import math
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_unitary
from efftemp import catalysis, cli, linalg
from efftemp.catalysis import (
    CATALYST_ENERGIES,
    QUTRIT_ENERGIES,
    JCConfig,
    QutritCatalystSetup,
    channel_fixed_point,
    excitation_number,
    jc_hamiltonian,
    qutrit_block_unitary,
    qutrit_catalyst_protocol,
    qutrit_state,
    reference_catalyst,
    run_time_series,
    solve_catalyst_fixed_point,
    tune_catalyst,
    uniform_superposition_state,
)
from efftemp.linalg import SolverError, ValidationError
from efftemp.temperatures import single_copy_effective, tensor_power_effective, virtual_spectrum
from efftemp.thermal import QuantumSystem, gibbs_populations

DEFAULT_CONFIG = JCConfig(omega=1.0, g=0.1, fock_levels=3, tau=28.5)
ROTATED_QUTRIT_BETA = math.log(5 / 2 + 3 / math.sqrt(2))


class TestJCHamiltonian:
    def test_zero_coupling_is_diagonal(self):
        h = jc_hamiltonian(JCConfig(g=0.0))
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_ladder_matrix_element(self):
        h = jc_hamiltonian(DEFAULT_CONFIG)
        # <n=0, e| H |n=1, g> couples through the first ladder step
        assert h[0 * 2 + 1, 1 * 2 + 0] == pytest.approx(0.1 * math.sqrt(1.0))
        assert h[1 * 2 + 1, 2 * 2 + 0] == pytest.approx(0.1 * math.sqrt(2.0))

    def test_commutes_with_excitation_number(self):
        h = jc_hamiltonian(DEFAULT_CONFIG)
        n_exc = excitation_number(DEFAULT_CONFIG)
        assert np.abs(h @ n_exc - n_exc @ h).max() < 1e-12

    def test_joint_dimension_over_the_dense_cap_rejected(self):
        # 2 * 2048 = MAX_DIM is the largest joint space; the config is checked
        # before any Hamiltonian or state is built
        assert JCConfig(fock_levels=linalg.MAX_DIM // 2).fock_levels == linalg.MAX_DIM // 2
        for fock in (linalg.MAX_DIM // 2 + 1, 100000):
            with pytest.raises(ValidationError, match="fock_levels"):
                JCConfig(fock_levels=fock)

    @pytest.mark.parametrize("field,value", [
        ("tau", math.inf), ("tau", 1e308), ("g", math.inf), ("g", -math.inf), ("g", math.nan),
    ])
    def test_non_finite_or_overflowing_inputs_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            JCConfig(**{field: value})

    @pytest.mark.parametrize("tau", [5.0, 28.5, 30.0, 45.0])
    @pytest.mark.parametrize("steps", [1, 90, 600])
    def test_time_grid_spans_the_longer_of_30_and_tau(self, tau, steps):
        grid = JCConfig(tau=tau, steps=steps).time_grid
        expected = np.linspace(0, max(30, tau), steps + 1)
        assert [t.hex() for t in grid] == [t.hex() for t in expected]

    def test_steps_capped_before_anything_is_allocated(self):
        # (steps + 1) samples of 2 * fock_levels joint levels may hold at most
        # MAX_DIM**2 numbers; the config rejects more without building a grid
        for fock in (2, 3, 32):
            cap = linalg.MAX_DIM ** 2 // (2 * fock) - 1
            assert (cap + 1) * 2 * fock <= linalg.MAX_DIM ** 2 < (cap + 2) * 2 * fock
            assert JCConfig(fock_levels=fock, steps=cap).steps == cap
            for steps in (cap + 1, 100_000_000, 10 ** 30):
                with pytest.raises(ValidationError, match="steps"):
                    JCConfig(fock_levels=fock, steps=steps)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_too_few_steps_rejected_after_tau(self, steps):
        with pytest.raises(ValidationError, match=r"^need steps >= 1 and t_max > 0$"):
            JCConfig(steps=steps)
        with pytest.raises(ValidationError, match="tau"):
            JCConfig(steps=steps, tau=math.inf)

    def test_non_integer_steps_rejected(self):
        with pytest.raises(ValidationError, match="steps"):
            JCConfig(steps=2.5)


def _atom_channel_at_tau(config: JCConfig):
    """The atom channel at tau of a uniform cavity, built independently of the config's cache."""
    u = linalg.unitary_evolution(jc_hamiltonian(config), config.tau)
    return catalysis._frame_channel(
        u, uniform_superposition_state(config.fock_levels), (config.fock_levels, 2)
    )


def _averaged_fixed_point(apply_channel, dim: int, tol: float) -> np.ndarray:
    """Reference: iterate x <- (x + Phi(x))/2 from I/d until Phi moves x by at most tol.

    The averaging damps the rotating spectrum, so the iterates approach the
    Cesaro fixed point from I/d even when the fixed space is degenerate.
    """
    x = np.eye(dim, dtype=complex) / dim
    for _ in range(200000):
        fx = apply_channel(x)
        if linalg.trace_distance(fx, x) <= tol:
            return x
        x = (x + fx) / 2
    raise AssertionError(f"averaged iteration missed tolerance {tol:.0e}")


class TestFixedPoint:
    def test_zero_coupling_returns_maximally_mixed(self):
        config = JCConfig(g=0.0)
        result = solve_catalyst_fixed_point(config, uniform_superposition_state(3))
        assert_allclose(result.catalyst_state, np.eye(2) / 2, atol=1e-12)
        assert result.fixed_point_residual <= 1e-12

    def test_default_config_residual(self):
        result = solve_catalyst_fixed_point(DEFAULT_CONFIG, uniform_superposition_state(3))
        assert result.fixed_point_residual < 1e-10
        w = np.linalg.eigvalsh(result.catalyst_state)
        assert w.min() >= -1e-12
        assert np.trace(result.catalyst_state).real == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _channel(case: str):
        if case == "qutrit":
            setup = QutritCatalystSetup(lam=0.8, beta=1.0)
            return catalysis._frame_channel(qutrit_block_unitary(), setup.rho_a, (3, 2))
        return _atom_channel_at_tau(DEFAULT_CONFIG if case == "jc" else JCConfig(g=0.0))

    @pytest.mark.parametrize("case", ["jc", "jc_g0", "qutrit"])
    def test_matches_the_averaged_iteration(self, case):
        # jc_g0 leaves every atom state fixed: a degenerate unit eigenvalue
        apply = self._channel(case)
        x = channel_fixed_point(apply, 2).catalyst_state
        assert linalg.trace_distance(x, _averaged_fixed_point(apply, 2, tol=1e-12)) <= 1e-8

    def test_degenerate_fixed_space_is_projected_exactly(self):
        # K0 = diag(1, 1, 0), K1 = |0><2|: every state on span{|0>, |1>} is
        # fixed, and the Cesaro limit from I/3 is Phi(I/3) = diag(2/3, 1/3, 0)
        k0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        k1 = np.zeros((3, 3), dtype=complex)
        k1[0, 2] = 1.0
        result = channel_fixed_point(lambda x: k0 @ x @ k0.conj().T + k1 @ x @ k1.conj().T, 3)
        assert_allclose(result.catalyst_state, np.diag([2 / 3, 1 / 3, 0.0]), rtol=0, atol=1e-12)
        assert result.fixed_point_residual <= 1e-15

    def test_jordan_block_at_one_raises_solver_error(self):
        # a linear map whose M - I is one nilpotent Jordan block: its right and
        # left null vectors are orthogonal, so no spectral projection exists
        m = np.eye(4, dtype=complex) + np.eye(4, k=1)

        def apply(x: np.ndarray) -> np.ndarray:
            return (m @ x.reshape(-1)).reshape(2, 2)

        with pytest.raises(SolverError, match="not semisimple"):
            channel_fixed_point(apply, 2)

    def test_no_unit_eigenvalue_raises_solver_error(self):
        with pytest.raises(SolverError, match="no eigenvalue within 1e-8 of 1"):
            channel_fixed_point(lambda x: x / 2, 2)

    @pytest.mark.parametrize("case", ["jc", "jc_g0", "qutrit"])
    def test_returned_residual_is_the_last_check(self, case):
        apply = self._channel(case)
        result = channel_fixed_point(apply, 2)
        x = result.catalyst_state
        assert result.fixed_point_residual.hex() == linalg.trace_distance(apply(x), x).hex()

    def test_fixed_point_is_catalytic_at_tau(self):
        result = solve_catalyst_fixed_point(DEFAULT_CONFIG, uniform_superposition_state(3))
        series = run_time_series(
            DEFAULT_CONFIG, uniform_superposition_state(3), result.catalyst_state
        )
        k_tau = int(np.argmin(np.abs(DEFAULT_CONFIG.time_grid - DEFAULT_CONFIG.tau)))
        assert series.time_series[k_tau, 5] < 1e-6


class Marginals(NamedTuple):
    """Per-sample marginals of an evolution of rho_A (x) X."""

    sigma_a: np.ndarray
    sigma_r: np.ndarray
    top: np.ndarray  # population of the last joint level, (n - 1, excited)

    def rows(self, config, atom) -> np.ndarray:
        """Series rows read through validated QuantumSystems, one per sample."""
        rows = []
        for t, sigma_a, sigma_r in zip(config.time_grid, self.sigma_a, self.sigma_r):
            # the per-state spectrum, not the batched core
            betas_a = virtual_spectrum(QuantumSystem(config.cavity_energies, sigma_a)).betas()
            betas_r = virtual_spectrum(QuantumSystem(config.atom_energies, sigma_r)).betas()
            rows.append((
                t,
                betas_a.max(),
                betas_a.min(),
                betas_r.max(),
                betas_r.min(),
                linalg.trace_distance(sigma_r, atom),
                float(np.abs(sigma_a - np.diag(np.diag(sigma_a))).sum()),
            ))
        return np.array(rows)


def dense_evolution(config, cavity, atom) -> Marginals:
    """U(t) (rho_A (x) X) U(t)^H as a dense matrix at each time of the grid."""
    n = config.fock_levels
    w, v = linalg.hermitian_eig(jc_hamiltonian(config))
    joint0_v = v.conj().T @ linalg.tensor_product(cavity, atom) @ v
    sigma_a, sigma_r, top = [], [], []
    for t in config.time_grid:
        vp = v * np.exp(-1j * w * t)
        joint = vp @ joint0_v @ vp.conj().T
        sigma_a.append(linalg.partial_trace(joint, (n, 2), keep="first"))
        sigma_r.append(linalg.partial_trace(joint, (n, 2), keep="second"))
        top.append(joint[2 * n - 1, 2 * n - 1].real)
    return Marginals(np.array(sigma_a), np.array(sigma_r), np.array(top))


def factored_marginals(config, cavity, atom) -> Marginals:
    """The series' own marginals, concatenated over its chunks."""
    chunks = list(catalysis._evolved_marginals(config, cavity, atom))
    return Marginals(*(np.concatenate([c[k] for c in chunks]) for k in (1, 2, 3)))


def make_cavity(kind: str, fock: int, rng) -> np.ndarray:
    """A cavity state of the named kind on `fock` levels."""
    if kind == "pure":
        return uniform_superposition_state(fock)
    if kind == "full-rank":
        return random_density(rng, fock)
    if kind == "negative":
        # eigenvalue -5e-11, inside the validation's EIG_FLOOR of -1e-10
        p = rng.dirichlet(np.ones(fock))
        p[-1] = -5e-11
        p[:-1] *= (1.0 - p[-1]) / p[:-1].sum()
        u = random_unitary(rng, fock)
        return (u * p) @ u.conj().T
    beta = float(kind.removeprefix("cold-"))
    return np.diag(gibbs_populations(np.arange(fock, dtype=float), beta)).astype(complex)


CAVITY_KINDS = ["pure", "full-rank", "negative", "cold-1.5", "cold-6"]


class TestFactoredPropagation:
    """The rank-r factor against the dense per-sample evolution it replaces."""

    @pytest.mark.parametrize("fock", [2, 3, 8, 24, 32])
    @pytest.mark.parametrize("kind", CAVITY_KINDS)
    def test_matches_the_dense_evolution(self, kind, fock):
        rng = np.random.default_rng(fock)
        config = JCConfig(fock_levels=fock, g=0.13, tau=17.0, steps=30)
        cavity = make_cavity(kind, fock, rng)
        atom = random_density(rng, 2)
        dense = dense_evolution(config, cavity, atom)
        factored = factored_marginals(config, cavity, atom)
        for got, want in zip(factored, dense):
            assert_allclose(got, want, rtol=0, atol=1e-12)
        result = run_time_series(config, cavity, atom)
        assert abs(result.boundary_occupancy - dense.top.max()) <= 1e-12
        columns = list(range(7))
        if kind.startswith("cold"):
            # the betas are left out: cavity populations near 1e-15 sit at
            # temperatures.ZERO_POPULATION, where rounding noise of either path
            # decides between a finite and an infinite beta, and the cooled
            # atom's small population magnifies rounding in its beta
            columns = [0, 5, 6]
        assert_allclose(result.time_series[:, columns], dense.rows(config, atom)[:, columns],
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fock", [2, 8, 32])
    def test_keeps_a_negative_eigenvalue_with_its_sign(self, fock):
        rng = np.random.default_rng(fock)
        cavity = make_cavity("negative", fock, rng)
        assert np.linalg.eigvalsh(cavity).min() == pytest.approx(-5e-11, rel=1e-4)
        atom = random_density(rng, 2)
        factor, sign = catalysis._signed_factor(cavity, atom)
        assert sign.size == 2 * fock and sign.tolist().count(-1.0) == 2
        assert_allclose((factor * sign) @ factor.conj().T, linalg.tensor_product(cavity, atom),
                        rtol=0, atol=1e-15)

    def test_trace_distances_match_the_eigenvalue_form(self):
        # random 2x2 matrices with a trace, so both terms of max(|tr D|, h) win
        rng = np.random.default_rng(2)
        diffs = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        diffs *= 10.0 ** rng.uniform(-12, 2, (500, 1, 1))
        want = [np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2)).sum() / 2 for d in diffs]
        assert_allclose(catalysis._trace_distances(diffs), want, rtol=1e-13, atol=0)

    def test_the_cli_cavity_propagates_rank_at_most_two(self):
        for fock in range(2, 65):
            config = JCConfig(fock_levels=fock, steps=10)
            cavity = uniform_superposition_state(fock)
            atom = solve_catalyst_fixed_point(config, cavity).catalyst_state
            assert catalysis._signed_factor(cavity, atom)[1].size <= 2, fock


class TestTimeSeries:
    def test_zero_coupling_keeps_betas_constant(self, rng):
        config = JCConfig(g=0.0, steps=40)
        cavity = random_density(rng, 3)
        atom = random_density(rng, 2)
        series = run_time_series(config, cavity, atom).time_series
        for col in (1, 2, 3, 4):
            assert np.ptp(series[:, col]) <= 1e-10

    @pytest.mark.parametrize("fock", [3, 8, 32])
    def test_rows_match_validated_states(self, fock):
        # the factored series against a per-sample dense evolution that reads
        # each marginal through a validated QuantumSystem; at fock 8 the grid
        # spans several chunks and ends in a partial one
        steps = {3: 40, 8: 200, 32: 45}[fock]
        config = JCConfig(fock_levels=fock, steps=steps)
        cavity = uniform_superposition_state(fock)
        atom = solve_catalyst_fixed_point(config, cavity).catalyst_state
        result = run_time_series(config, cavity, atom)
        assert result.time_series.shape == (steps + 1, 7)
        reference = dense_evolution(config, cavity, atom)
        assert_allclose(result.time_series, reference.rows(config, atom), rtol=0, atol=1e-12)
        assert abs(result.boundary_occupancy - reference.top.max()) <= 1e-12

    @pytest.mark.parametrize("cavity_kind", ["pure", "full-rank"])
    def test_chunking_keeps_every_bit(self, monkeypatch, cavity_kind):
        # each sample's factor product is its own matrix product and every
        # reduction runs within one sample, so one-sample chunks give the bits
        # of the default chunks
        config = JCConfig(fock_levels=8, steps=300)
        rng = np.random.default_rng(8)
        cavity = uniform_superposition_state(8) if cavity_kind == "pure" else random_density(rng, 8)
        atom = random_density(rng, 2)
        default = run_time_series(config, cavity, atom)
        monkeypatch.setattr(catalysis, "SERIES_CHUNK_BYTES", 1)
        one_sample = run_time_series(config, cavity, atom)
        assert one_sample.time_series.tobytes() == default.time_series.tobytes()
        assert one_sample.boundary_occupancy.hex() == default.boundary_occupancy.hex()

    def test_uniform_cavity_starts_at_beta_zero(self):
        result = solve_catalyst_fixed_point(DEFAULT_CONFIG, uniform_superposition_state(3))
        series = run_time_series(
            DEFAULT_CONFIG, uniform_superposition_state(3), result.catalyst_state
        ).time_series
        assert abs(series[0, 1]) <= 1e-12
        assert abs(series[0, 2]) <= 1e-12

    def test_cavity_loses_coherence_by_tau(self):
        result = solve_catalyst_fixed_point(DEFAULT_CONFIG, uniform_superposition_state(3))
        series = run_time_series(
            DEFAULT_CONFIG, uniform_superposition_state(3), result.catalyst_state
        ).time_series
        k_tau = int(np.argmin(np.abs(DEFAULT_CONFIG.time_grid - DEFAULT_CONFIG.tau)))
        assert series[k_tau, 6] < series[0, 6]

    def test_excitation_sectors_conserved(self):
        config = JCConfig(steps=60)
        cavity = uniform_superposition_state(3)
        atom = solve_catalyst_fixed_point(config, cavity).catalyst_state
        h = jc_hamiltonian(config)
        w, v = linalg.hermitian_eig(h)
        n_exc = excitation_number(config)
        sector_values = np.round(np.diag(v.conj().T @ n_exc @ v).real, 9)
        joint0 = linalg.tensor_product(cavity, atom)
        reference = None
        for t in config.time_grid[:: 12]:
            u = linalg.unitary_evolution(h, float(t))
            joint = u @ joint0 @ u.conj().T
            diag_h_basis = np.diag(v.conj().T @ joint @ v).real
            sums = {
                s: float(diag_h_basis[sector_values == s].sum())
                for s in np.unique(sector_values)
            }
            if reference is None:
                reference = sums
            else:
                for s, value in sums.items():
                    assert abs(value - reference[s]) <= 1e-10

    def test_joint_purity_constant(self):
        config = JCConfig(steps=50)
        cavity = uniform_superposition_state(3)
        atom = reference_catalyst()
        h = jc_hamiltonian(config)
        joint0 = linalg.tensor_product(cavity, atom)
        purity0 = float(np.trace(joint0 @ joint0).real)
        for t in (3.7, 11.0, 28.5):
            u = linalg.unitary_evolution(h, t)
            joint = u @ joint0 @ u.conj().T
            assert abs(float(np.trace(joint @ joint).real) - purity0) <= 1e-10

    def test_row_shape_and_grid(self):
        config = JCConfig(steps=25)
        cavity = uniform_superposition_state(3)
        series = run_time_series(config, cavity, np.eye(2) / 2)
        assert series.time_series.shape == (26, 7)
        assert series.time_series[0, 0] == 0.0
        assert series.time_series[-1, 0] == pytest.approx(30.0)

    def test_builds_the_hamiltonian_once(self, monkeypatch, capsys):
        # the series evolves the grid only; the return at tau is the fixed
        # point's job, so no second channel is built for it
        calls, eighs = [], []
        build, eigh = catalysis.jc_hamiltonian, np.linalg.eigh
        monkeypatch.setattr(catalysis, "jc_hamiltonian", lambda c: calls.append(c) or build(c))
        config = JCConfig(steps=10)
        series = run_time_series(config, uniform_superposition_state(3), np.eye(2) / 2)
        assert len(calls) == 1
        assert isinstance(series, catalysis.TimeSeriesResult)
        # one jc command: one config, whose one eigensystem serves the fixed
        # point and the series; the series also factors the cavity and the
        # atom, which are not the Hamiltonian
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
        assert cli.main(["jc", "--steps", "10"]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        hamiltonian = build(calls[0])
        assert sum(a.shape == hamiltonian.shape and np.array_equal(a, hamiltonian)
                   for a in eighs) == 1


class TestQutritBlockUnitary:
    def test_unitary(self):
        v = qutrit_block_unitary()
        assert np.abs(v @ v.conj().T - np.eye(6)).max() <= 1e-12

    def test_commutes_with_joint_energy(self):
        v = qutrit_block_unitary()
        h_joint = np.kron(np.diag(QUTRIT_ENERGIES), np.eye(2)) + np.kron(
            np.eye(3), np.diag(CATALYST_ENERGIES)
        )
        assert np.abs(v @ h_joint - h_joint @ v).max() <= 1e-12


class TestQutritProtocol:
    def test_closed_form_marginal(self):
        result = qutrit_catalyst_protocol(QutritCatalystSetup(lam=1.0, beta=0.0))
        expected = np.array([4 + math.sqrt(2), 4 - 2 * math.sqrt(2), 4 + math.sqrt(2)]) / 12
        assert np.abs(np.diag(result.sigma_a).real - expected).max() <= 1e-12
        assert result.temps.beta_c == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-9)
        assert result.temps.beta_h == pytest.approx(-ROTATED_QUTRIT_BETA, abs=1e-9)

    def test_temperatures_match_validated_state(self):
        run = qutrit_catalyst_protocol(QutritCatalystSetup(lam=0.6, beta=0.4))
        pair = single_copy_effective(QuantumSystem(QUTRIT_ENERGIES, run.sigma_a))
        assert (run.temps.beta_c, run.temps.beta_h) == (pair.beta_c, pair.beta_h)

    def test_catalyst_marginal_preserved(self):
        setup = QutritCatalystSetup(lam=1.0, beta=0.0)
        result = qutrit_catalyst_protocol(setup)
        assert linalg.trace_distance(result.sigma_r, setup.phi_r) <= 1e-9

    def test_zero_coherence_moves_nothing(self):
        # with the coherent frame the rotation can imprint coherences on A,
        # but the block off-diagonals of rho_A (x) phi_R vanish, so no
        # population moves and the temperatures stay at beta = 0
        result = qutrit_catalyst_protocol(QutritCatalystSetup(lam=0.0, beta=0.0))
        assert_allclose(np.diag(result.sigma_a).real, np.ones(3) / 3, atol=1e-12)
        assert result.temps.beta_c == pytest.approx(0.0, abs=1e-12)
        assert result.temps.beta_h == pytest.approx(0.0, abs=1e-12)
        # the tuned frame at lam = 0 is incoherent and then nothing happens
        tuned = tune_catalyst(QutritCatalystSetup(lam=0.0, beta=0.0))
        exact = qutrit_catalyst_protocol(QutritCatalystSetup(lam=0.0, beta=0.0, phi_r=tuned))
        assert_allclose(exact.sigma_a, np.eye(3) / 3, atol=1e-12)

    def test_diagonal_state_keeps_temperatures(self):
        # lam = 0 at any beta: no coherence, the rotation cannot help
        for beta in (0.0, 0.7):
            setup = QutritCatalystSetup(lam=0.0, beta=beta, phi_r=tune_catalyst(
                QutritCatalystSetup(lam=0.0, beta=beta)
            ))
            before = single_copy_effective(
                QuantumSystem(energies=QUTRIT_ENERGIES, rho=setup.rho_a)
            )
            after = qutrit_catalyst_protocol(setup).temps
            assert after.beta_c == pytest.approx(before.beta_c, abs=1e-10)
            assert after.beta_h == pytest.approx(before.beta_h, abs=1e-10)

    def test_low_coherence_non_strict_improvement(self):
        # lam = 0.2: the protocol may not hurt; any gain is genuine
        setup = QutritCatalystSetup(lam=0.2, beta=0.0)
        tuned = tune_catalyst(setup)
        result = qutrit_catalyst_protocol(
            QutritCatalystSetup(lam=0.2, beta=0.0, phi_r=tuned)
        )
        bare = single_copy_effective(QuantumSystem(energies=QUTRIT_ENERGIES, rho=setup.rho_a))
        assert result.temps.beta_c >= bare.beta_c - 1e-9
        assert result.temps.beta_h <= bare.beta_h + 1e-9

    def test_correlation_builds_up(self):
        result = qutrit_catalyst_protocol(QutritCatalystSetup(lam=1.0, beta=0.0))
        assert result.correlation_norm > 0.01
        tuned = tune_catalyst(QutritCatalystSetup(lam=0.0, beta=0.0))
        trivial = qutrit_catalyst_protocol(
            QutritCatalystSetup(lam=0.0, beta=0.0, phi_r=tuned)
        )
        assert trivial.correlation_norm <= 1e-12


class TestTuneCatalyst:
    def test_reproduces_reference_frame(self):
        tuned = tune_catalyst(QutritCatalystSetup(lam=1.0, beta=0.0))
        assert linalg.trace_distance(tuned, reference_catalyst()) <= 1e-9

    def test_diagonal_input_gives_diagonal_fixed_point(self):
        tuned = tune_catalyst(QutritCatalystSetup(lam=0.0, beta=0.9))
        assert abs(tuned[0, 1]) <= 1e-10

    @pytest.mark.parametrize("lam,beta", [(0.3, 0.0), (0.8, 1.0), (1.0, 0.5)])
    def test_defining_property(self, lam, beta):
        setup = QutritCatalystSetup(lam=lam, beta=beta)
        tuned = tune_catalyst(setup)
        v = qutrit_block_unitary()
        joint = v @ linalg.tensor_product(setup.rho_a, tuned) @ v.conj().T
        image = linalg.partial_trace(joint, (3, 2), keep="second")
        assert linalg.trace_distance(image, tuned) < 1e-10


class TestCopiesEquivalence:
    def test_lambda_08_matches_11_copies_at_beta_1(self):
        # the catalytic window at lam = 0.8 sits closest to the 11-copy
        # broadening of the same state
        setup = QutritCatalystSetup(lam=0.8, beta=1.0)
        tuned = tune_catalyst(setup)
        cat = qutrit_catalyst_protocol(
            QutritCatalystSetup(lam=0.8, beta=1.0, phi_r=tuned)
        ).temps
        system = QuantumSystem(energies=QUTRIT_ENERGIES, rho=qutrit_state(0.8, 1.0))
        widths = {}
        for n in (7, 9, 11):
            pair = tensor_power_effective(system, n)
            widths[n] = abs(pair.beta_c - cat.beta_c) + abs(pair.beta_h - cat.beta_h)
        assert widths[11] == min(widths.values())
        pair_11 = tensor_power_effective(system, 11)
        assert abs(pair_11.beta_c - cat.beta_c) < 0.06
        assert abs(pair_11.beta_h - cat.beta_h) < 0.01
