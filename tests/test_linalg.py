import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_unitary
from efftemp import linalg
from efftemp.catalysis import JCConfig, jc_hamiltonian
from efftemp.linalg import ValidationError
from efftemp.thermal import check_energy_levels

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
        assert_allclose(linalg.unitary_evolution(h, 0.0), np.eye(4), atol=1e-14)

    def test_zero_hamiltonian_is_identity(self):
        assert_allclose(linalg.unitary_evolution(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-14)

    def test_jc_against_taylor_series(self):
        h = jc_hamiltonian(JCConfig())
        u = linalg.unitary_evolution(h, 1.0)
        u_series = expm_taylor(-1j * h * 1.0)
        assert np.abs(u - u_series).max() < 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_result_is_unitary(self, rng, dim):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        u = linalg.unitary_evolution(h, 1.37)
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

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            linalg.partial_trace(random_density(rng, 6), (2, 2), "first")

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 4), (4, 2)])
    def test_roundtrip_identity(self, rng, d1, d2):
        rho = random_density(rng, d1)
        sigma = random_density(rng, d2)
        joint = linalg.tensor_product(rho, sigma)
        assert np.abs(linalg.partial_trace(joint, (d1, d2), "first") - rho).max() <= 1e-12
        assert np.abs(linalg.partial_trace(joint, (d1, d2), "second") - sigma).max() <= 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert linalg.von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert_allclose(linalg.von_neumann_entropy(np.eye(3) / 3), np.log(3), rtol=1e-12)

    def test_binary_entropy_closed_form(self):
        # -0.6 log 0.6 - 0.4 log 0.4
        expected = -(0.6 * np.log(0.6) + 0.4 * np.log(0.4))
        assert_allclose(linalg.von_neumann_entropy(np.diag([0.6, 0.4])), expected, rtol=1e-12)
        assert_allclose(expected, 0.6730116670092565)

    def test_unitary_invariance(self, rng):
        for dim in (2, 3, 5):
            rho = random_density(rng, dim)
            u = random_unitary(rng, dim)
            s1 = linalg.von_neumann_entropy(rho)
            s2 = linalg.von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s1 - s2) <= 1e-10

    def test_bounds(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            s = linalg.von_neumann_entropy(rho)
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
    """check_density_matrix(stacked=True) validates each matrix of a stack."""

    def test_a_valid_stack_keeps_each_matrix_bits_and_spectrum(self, rng):
        stack = np.array([random_density(rng, 3) for _ in range(5)])
        arr, w = linalg.checked_state(stack, stacked=True)
        assert arr.tobytes() == stack.tobytes() and w.shape == (5, 3)
        for k, rho in enumerate(stack):
            assert w[k].tobytes() == linalg.checked_state(rho)[1].tobytes()

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
        for stack in ([good, bad, worse], [bad, good]):
            with pytest.raises(ValidationError) as stacked:
                linalg.check_density_matrix(np.array(stack), "phi", stacked=True)
            assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (0, 2, 2), (2, 2, 2, 2)])
    def test_a_stack_must_be_three_dimensional_and_square(self, shape):
        with pytest.raises(ValidationError, match="must be square"):
            linalg.check_density_matrix(np.zeros(shape), stacked=True)

    def test_unstacked_checks_reject_a_stack(self):
        with pytest.raises(ValidationError, match="must be square"):
            linalg.check_density_matrix(np.array([np.eye(2) / 2] * 3))
