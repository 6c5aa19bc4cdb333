import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_unitary
from efftemp import linalg
from efftemp.catalysis import JCConfig, jc_hamiltonian
from efftemp.linalg import ValidationError
from efftemp.thermal import check_energy_levels
from references import unitary_evolution, von_neumann_entropy

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def expm_taylor(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Scaling-and-squaring Taylor evaluation, independent of eigensolvers."""
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 2)
    m = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestHermitianEig:
    def test_already_diagonal(self):
        w, v = linalg.hermitian_eig(np.diag([0.0, 1.0, 2.0]))
        assert_allclose(w, [0.0, 1.0, 2.0])
        assert_allclose(np.abs(v), np.eye(3), atol=1e-14)

    def test_pauli_x_spectrum(self):
        w, _ = linalg.hermitian_eig(SIGMA_X)
        assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_jc_reconstruction(self):
        h = jc_hamiltonian(JCConfig(omega=1.0, g=0.1, fock_levels=3))
        w, v = linalg.hermitian_eig(h)
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestUnitaryEvolution:
    def test_zero_time_is_identity(self, rng):
        h = random_density(rng, 4)  # any Hermitian works
        assert_allclose(unitary_evolution(h, 0.0), np.eye(4), atol=1e-14)

    def test_zero_hamiltonian_is_identity(self):
        assert_allclose(unitary_evolution(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-14)

    def test_jc_against_taylor_series(self):
        h = jc_hamiltonian(JCConfig())
        u = unitary_evolution(h, 1.0)
        u_series = expm_taylor(-1j * h * 1.0)
        assert np.abs(u - u_series).max() < 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_result_is_unitary(self, rng, dim):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        u = unitary_evolution(h, 1.37)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10


class TestTensorAndPartialTrace:
    def test_trivial_factor(self, rng):
        rho = random_density(rng, 3)
        assert_allclose(linalg.tensor_product(rho, np.eye(1)), rho)

    def test_basis_projectors(self):
        got = linalg.tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert_allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_multiplicative(self, rng):
        a = random_density(rng, 3) * 0.7
        b = random_density(rng, 3) * 1.3
        prod = linalg.tensor_product(a, b)
        assert_allclose(np.trace(prod), np.trace(a) * np.trace(b), rtol=1e-12)

    def test_product_state_recovery(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        joint = linalg.tensor_product(rho, sigma)
        assert_allclose(linalg.partial_trace(joint, (2, 3), "first"), rho, atol=1e-12)
        assert_allclose(linalg.partial_trace(joint, (2, 3), "second"), sigma, atol=1e-12)

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        joint = np.outer(psi, psi.conj())
        assert_allclose(linalg.partial_trace(joint, (2, 2), "first"), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self, rng):
        joint = random_density(rng, 6)
        reduced = linalg.partial_trace(joint, (2, 3), "second")
        assert_allclose(np.trace(reduced), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d,dims,match", [
        (6, (2, 2), "joint dimension 6 != 2\\*2"),
        (4, (2.7, 2), "positive integers, got \\(2.7, 2\\)"),  # once read as (2, 2)
        (4, (-2, -2), "positive integers"),  # once numpy's raw reshape error
    ])
    def test_dimension_mismatch(self, d, dims, match):
        with pytest.raises(ValidationError, match=match):
            linalg.partial_trace(np.eye(d) / d, dims, "first")

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 4), (4, 2)])
    def test_roundtrip_identity(self, rng, d1, d2):
        rho = random_density(rng, d1)
        sigma = random_density(rng, d2)
        joint = linalg.tensor_product(rho, sigma)
        assert np.abs(linalg.partial_trace(joint, (d1, d2), "first") - rho).max() <= 1e-12
        assert np.abs(linalg.partial_trace(joint, (d1, d2), "second") - sigma).max() <= 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert_allclose(von_neumann_entropy(np.eye(3) / 3), np.log(3), rtol=1e-12)

    def test_binary_entropy_closed_form(self):
        # -0.6 log 0.6 - 0.4 log 0.4
        expected = -(0.6 * np.log(0.6) + 0.4 * np.log(0.4))
        assert_allclose(von_neumann_entropy(np.diag([0.6, 0.4])), expected, rtol=1e-12)
        assert_allclose(expected, 0.6730116670092565)

    def test_unitary_invariance(self, rng):
        for dim in (2, 3, 5):
            rho = random_density(rng, dim)
            u = random_unitary(rng, dim)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s1 - s2) <= 1e-10

    def test_bounds(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= np.log(4) + 1e-12


class TestTraceDistance:
    def test_self_distance(self, rng):
        rho = random_density(rng, 3)
        assert linalg.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert_allclose(
            linalg.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1.0, rtol=1e-14
        )

    def test_quarter(self):
        got = linalg.trace_distance(np.eye(2) / 2, np.diag([0.75, 0.25]))
        assert_allclose(got, 0.25, rtol=1e-14)

    def test_symmetry_and_triangle(self, rng):
        a, b, c = (random_density(rng, 4) for _ in range(3))
        assert_allclose(linalg.trace_distance(a, b), linalg.trace_distance(b, a), rtol=1e-12)
        assert linalg.trace_distance(a, c) <= (
            linalg.trace_distance(a, b) + linalg.trace_distance(b, c) + 1e-12
        )

    def test_contractive_under_partial_trace(self, rng):
        for _ in range(10):
            rho = random_density(rng, 6)
            sigma = random_density(rng, 6)
            full = linalg.trace_distance(rho, sigma)
            reduced = linalg.trace_distance(
                linalg.partial_trace(rho, (2, 3), "first"),
                linalg.partial_trace(sigma, (2, 3), "first"),
            )
            assert reduced <= full + 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            linalg.trace_distance(random_density(rng, 2), random_density(rng, 3))


class TestValidation:
    def test_trace_violation(self):
        with pytest.raises(ValidationError):
            linalg.check_density_matrix(np.diag([0.5, 0.4]))

    def test_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            linalg.check_density_matrix(np.diag([1.1, -0.1]))

    def test_nan_off_diagonal(self):
        rho = np.array([[0.5, np.nan], [np.nan, 0.5]])
        with pytest.raises(ValidationError, match="finite"):
            linalg.check_density_matrix(rho)

    def test_tensor_product_cap(self):
        with pytest.raises(ValidationError, match="cap 4096"):
            linalg.tensor_product(np.eye(65), np.eye(65))

    def test_energy_ladder_cap(self):
        with pytest.raises(ValidationError, match="cap 4096"):
            check_energy_levels(np.arange(4097.0))


class TestStackedValidation:
    """The checks validate each matrix of a (..., d, d) stack."""

    @pytest.mark.parametrize("stack", [(5,), (2, 3)])
    def test_a_valid_stack_keeps_each_matrix_bits_and_spectrum(self, rng, stack):
        count = int(np.prod(stack))
        stack = np.array([random_density(rng, 3) for _ in range(count)]).reshape(stack + (3, 3))
        arr, w = linalg.checked_state(stack)
        assert arr.tobytes() == stack.tobytes() and w.shape == stack.shape[:-1]
        for k in np.ndindex(stack.shape[:-2]):
            assert w[k].tobytes() == linalg.checked_state(stack[k])[1].tobytes()

    @pytest.mark.parametrize("bad,message", [
        (np.array([[0.5, 0.1], [0.3, 0.5]]), r"is not Hermitian: max deviation 2.000e-01"),
        (np.diag([0.5, 0.4]), r"trace 0.9\+0j differs from 1"),
        (np.diag([1.1, -0.1]), r"has negative eigenvalue -1.000e-01"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), r"must be finite"),
    ])
    def test_the_first_failing_matrix_is_named_as_alone(self, bad, message):
        good = np.eye(2) / 2
        worse = 2 * bad - good  # fails the same check by more
        with pytest.raises(ValidationError, match=message) as alone:
            linalg.check_density_matrix(bad, "phi")
        for stack in ([good, bad, worse], [bad, good], [[good, good], [bad, worse]]):
            with pytest.raises(ValidationError) as stacked:
                linalg.check_density_matrix(np.array(stack), "phi")
            assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(2,), (3, 2, 3), (0, 2, 2), (2, 0, 0), (2, 1, 3, 3, 2)])
    def test_a_stack_must_be_square_and_non_empty(self, shape):
        with pytest.raises(ValidationError, match=rf"must be square, got shape \({shape[0]},"):
            linalg.check_density_matrix(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 2)])
    def test_a_matrix_and_a_nested_stack_are_square(self, shape):
        ops = np.broadcast_to(np.diag([0.5, 0.5]), shape)
        assert linalg.check_density_matrix(ops).shape == shape

    def test_the_entropy_rejects_a_stack(self):
        with pytest.raises(ValidationError, match=r"^state must be square, got shape \(3, 2, 2\)$"):
            von_neumann_entropy(np.array([np.eye(2) / 2] * 3))


def _random_ops(rng, shape, d):
    return rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))


def _hermitian(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2


FACTOR_DIMS = [(d1, d2) for d1 in (2, 3) for d2 in (2, 3)]


class TestStackedHelpers:
    """Row k of each stacked helper is its single-matrix call on matrix k, bit for bit."""

    @pytest.mark.parametrize("d1,d2", FACTOR_DIMS)
    def test_single_tensor_products_are_numpy_kron(self, rng, d1, d2):
        a, b = _random_ops(rng, (), d1), _random_ops(rng, (), d2)
        assert linalg.tensor_product(a, b).tobytes() == np.kron(a, b).tobytes()

    @pytest.mark.parametrize("stacks", [(1, 1), (5, 5), (1, 5), (5, 1)])
    @pytest.mark.parametrize("d1,d2", FACTOR_DIMS)
    def test_tensor_product(self, rng, d1, d2, stacks):
        a, b = _random_ops(rng, (stacks[0],), d1), _random_ops(rng, (stacks[1],), d2)
        got = linalg.tensor_product(a, b)
        assert got.shape == (max(stacks), d1 * d2, d1 * d2)
        for k in range(max(stacks)):
            want = linalg.tensor_product(a[k % stacks[0]], b[k % stacks[1]])
            assert got[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep", ["first", "second"])
    @pytest.mark.parametrize("stack", [1, 5])
    @pytest.mark.parametrize("d1,d2", FACTOR_DIMS)
    def test_partial_trace(self, rng, d1, d2, stack, keep):
        joint = _random_ops(rng, (stack,), d1 * d2)
        got = linalg.partial_trace(joint, (d1, d2), keep)
        assert got.shape == (stack,) + ((d1, d1) if keep == "first" else (d2, d2))
        for k in range(stack):
            assert got[k].tobytes() == linalg.partial_trace(joint[k], (d1, d2), keep).tobytes()

    @pytest.mark.parametrize("stacks", [(1, 1), (5, 5), (1, 5), (5, 1)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_distance(self, rng, d, stacks):
        a = np.array([random_density(rng, d) for _ in range(stacks[0])])
        b = np.array([random_density(rng, d) for _ in range(stacks[1])])
        got = linalg.trace_distance(a, b)
        assert got.shape == (max(stacks),)
        for k in range(max(stacks)):
            want = linalg.trace_distance(a[k % stacks[0]], b[k % stacks[1]])
            assert isinstance(want, float) and got[k].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("stack", [1, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
    def test_trace_norm(self, rng, d, stack):
        ops = _random_ops(rng, (stack,), d)
        got = linalg.trace_norm(ops)
        assert got.shape == (stack,)
        for k in range(stack):
            want = linalg.trace_norm(ops[k])
            assert isinstance(want, float) and got[k].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("stack", [1, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
    def test_unitary_evolution(self, rng, d, stack):
        h = _hermitian(_random_ops(rng, (stack,), d))
        got = unitary_evolution(h, 1.37)
        assert got.shape == (stack, d, d)
        for k in range(stack):
            assert got[k].tobytes() == unitary_evolution(h[k], 1.37).tobytes()

    def test_a_nested_stack_keeps_its_leading_axes(self, rng):
        a, b = _random_ops(rng, (2, 3), 2), _random_ops(rng, (3,), 3)
        joint = linalg.tensor_product(a, b)
        assert joint.shape == (2, 3, 6, 6)
        assert linalg.partial_trace(joint, (2, 3), "second").shape == (2, 3, 3, 3)
        assert linalg.trace_norm(joint).shape == (2, 3)
        assert joint[1, 2].tobytes() == linalg.tensor_product(a[1, 2], b[2]).tobytes()
