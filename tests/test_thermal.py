import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import diag_system, random_density, random_energies
from efftemp import thermal
from efftemp.linalg import BracketError, SolverError, ValidationError
from efftemp.thermal import QuantumSystem, gibbs_by_beta, gibbs_by_energy, t_star
from references import bisect_gibbs_by_energy, von_neumann_entropy


class TestGibbsByBeta:
    def test_infinite_temperature(self):
        assert_allclose(gibbs_by_beta([0.0, 1.0], 0.0).populations, [0.5, 0.5])

    def test_ground_state_limit(self):
        r = gibbs_by_beta([0.0, 1.0], math.inf)
        assert_allclose(r.populations, [1.0, 0.0])
        assert r.energy_variance == 0.0

    def test_top_state_limit(self):
        assert_allclose(gibbs_by_beta([0.0, 1.0], -math.inf).populations, [0.0, 1.0])

    def test_qubit_closed_form(self):
        # p0 = 1/(1 + e^-beta) at beta = ln 4 gives (0.8, 0.2)
        r = gibbs_by_beta([0.0, 1.0], np.log(4))
        assert_allclose(r.populations, [0.8, 0.2], rtol=1e-14)

    def test_degenerate_levels_share_weight(self):
        r = gibbs_by_beta([0.0, 1.0, 1.0], 1.0)
        assert_allclose(r.populations[1], r.populations[2], rtol=1e-14)

    def test_extreme_beta_no_overflow(self):
        r = gibbs_by_beta([0.0, 1.0, 2.0], 800.0)
        assert_allclose(r.populations, [1.0, 0.0, 0.0], atol=1e-300)

    def test_entropy_matches_identity(self):
        # S = beta * E + log Z for Gibbs states
        e = np.array([0.0, 0.7, 1.9])
        beta = 1.3
        r = gibbs_by_beta(e, beta)
        log_z = np.log(np.exp(-beta * e).sum())
        assert_allclose(r.entropy, beta * r.mean_energy + log_z, rtol=1e-12)


class TestGibbsByEnergy:
    def test_symmetric_target(self):
        assert gibbs_by_energy([0.0, 1.0], 0.5).beta == pytest.approx(0.0, abs=1e-12)

    def test_invert_qubit(self):
        assert gibbs_by_energy([0.0, 1.0], 0.2).beta == pytest.approx(np.log(4), abs=1e-12)

    def test_population_inversion(self):
        # target above the infinite-temperature mean forces negative beta
        assert gibbs_by_energy([0.0, 1.0], 0.6).beta == pytest.approx(-np.log(1.5), abs=1e-12)

    def test_residual_tolerance(self):
        r = gibbs_by_energy([0.0, 0.3, 1.1, 2.0], 0.777)
        assert abs(r.mean_energy - 0.777) <= 1e-12

    @pytest.mark.parametrize("exponent", [3, 4, 5, 6, 8, 10, 12, 16])
    def test_wide_span_inverts(self, exponent):
        # at these spans a beta within 1e-13 of the root still misses the
        # energy residual bound, so the iteration must go on past it
        span = 10.0**exponent
        target = 0.7 * span
        r = gibbs_by_energy([0.0, span], target)
        assert abs(r.mean_energy - target) <= thermal.ENERGY_RTOL * target
        assert r.beta * span == pytest.approx(-math.log(7 / 3), rel=1e-9)

    def test_residual_bound_on_wide_ladders(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            span = 10.0 ** rng.uniform(-2.0, 3.3)
            e = np.sort(rng.uniform(0.0, 1.0, dim))
            e = np.sort((e - e[0]) / (e[-1] - e[0]) * span + rng.uniform(-span, span))
            target = float(rng.dirichlet(np.ones(dim)) @ e)
            r = gibbs_by_energy(e, target)
            assert abs(r.mean_energy - target) <= thermal.ENERGY_RTOL * max(1.0, abs(target))

    @pytest.mark.parametrize("target", [-0.1, 0.0, 1.0, 1.5])
    def test_bracket_violations(self, target):
        with pytest.raises(BracketError):
            gibbs_by_energy([0.0, 1.0], target)

    def test_fully_degenerate(self):
        r = gibbs_by_energy([1.0, 1.0], 1.0)
        assert r.beta == 0.0
        with pytest.raises(BracketError):
            gibbs_by_energy([1.0, 1.0], 1.5)

    def test_roundtrip_beta(self, rng):
        eps = np.finfo(float).eps
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            e = random_energies(rng, dim)
            beta = float(rng.uniform(-20.0, 20.0))
            forward = gibbs_by_beta(e, beta)
            if not (e[0] < forward.mean_energy < e[-1]):
                continue
            back = gibbs_by_energy(e, forward.mean_energy)
            # rounding the stored mean energy to double already displaces the
            # inverse by ~eps*|E|/Var, which caps the reachable accuracy when
            # the variance collapses near the spectral edges
            information_limit = 4 * eps * max(1.0, abs(forward.mean_energy))
            tol = max(1e-9, information_limit / max(forward.energy_variance, 1e-300))
            assert abs(back.beta - beta) <= tol

    def test_roundtrip_beta_strict_when_conditioned(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            e = random_energies(rng, dim)
            beta = float(rng.uniform(-10.0, 10.0))
            forward = gibbs_by_beta(e, beta)
            if forward.energy_variance < 1e-6:
                continue
            back = gibbs_by_energy(e, forward.mean_energy)
            assert abs(back.beta - beta) <= 1e-9

    def test_mean_energy_strictly_decreasing(self, rng):
        e = random_energies(rng, 5)
        grid = np.linspace(-8.0, 8.0, 81)
        means = [gibbs_by_beta(e, b).mean_energy for b in grid]
        assert np.all(np.diff(means) < 0)


def _ulps_inside(edge: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        edge = float(np.nextafter(edge, toward))
    return edge


def _seeded_ladders():
    """(energies, target) over d = 2-64, spans 1e-3 to 1e3 and negative energies."""
    rng = np.random.default_rng(25)
    for _ in range(400):
        dim = int(rng.integers(2, 65))
        span = 10.0 ** rng.uniform(-3.0, 3.0)
        e = np.sort(rng.uniform(0.0, 1.0, dim))
        e = (e - e[0]) / (e[-1] - e[0]) * span + rng.uniform(-span, span)
        yield e, float(rng.dirichlet(np.ones(dim)) @ e)
    # the span 1000 that a fixed-width bisection could not invert
    yield np.array([0.0, 1000.0]), 700.0


EDGE_LADDERS = [[0.0, 1.0], [1.0, 2.0], [-2.0, -1.0, 0.0, 5e-4], [0.0, 1e-9], [0.0, 1e9],
                [0.0, 0.3, 1.1, 2.0], [0.0, 1e200]]
EDGE_CASES = [
    (e, target)
    for e in EDGE_LADDERS
    for ulps in (1, 4)
    for target in (_ulps_inside(e[0], e[-1], ulps), _ulps_inside(e[-1], e[0], ulps))
] + [([0.0, 1e-9], 3e-10), ([0.0, 1e9], 3e8), ([0.0, 1e200], 5e199), ([0.0, 1e200], 1e197),
     ([0.0, 1.0], 1e-100), ([0.0, 1.0], 1e-300), ([0.0, 1.0], 1.0 - 1e-15)]


def _out_of_reach(energies, target):
    """On [0, 1e200] off its middle, where the iteration stalls.

    The variance is inf or 0 at every float beta in reach, so the iteration
    can only bisect [0, 1], which does not come down to a root of order
    1e-197 in 200 steps.
    """
    return energies[-1] == 1e200 and target != 5e199


def _root(energies, target):
    """The exact root on two levels, else the reference bisection's."""
    if len(energies) == 2:
        a, b = energies
        return math.log((b - target) / (target - a)) / (b - a)
    return bisect_gibbs_by_energy(energies, target).beta


def _beta_spread(energies, beta):
    """How far from the root beta may sit when the mean is known to double rounding.

    A beta displaced by x moves the mean by about Var * x, and the mean
    p @ e of d levels is known to about d ulps of p @ |e|, or to the least
    subnormal.
    """
    e = np.asarray(energies, dtype=float)
    g = gibbs_by_beta(e, beta)
    noise = 16 * e.size * (np.finfo(float).eps * float(g.populations @ np.abs(e)) + 5e-324)
    spread = noise / g.energy_variance if g.energy_variance > 0.0 else math.inf
    return 1e-13 * max(1.0, abs(beta)) + spread


class TestNewtonAgainstBisection:
    """The Newton iteration against the bisection it replaced (tests/references.py)."""

    def test_both_meet_the_bound_and_agree(self, monkeypatch):
        calls = []
        populations = thermal._gibbs_populations

        def counted(e, beta):
            calls.append(beta)
            return populations(e, beta)

        monkeypatch.setattr(thermal, "_gibbs_populations", counted)
        evaluations = []
        for e, target in _seeded_ladders():
            bound = thermal.ENERGY_RTOL * max(1.0, abs(target))
            calls.clear()
            newton = gibbs_by_energy(e, target)
            evaluations.append(len(calls))
            bisect = bisect_gibbs_by_energy(e, target)
            assert abs(newton.mean_energy - target) <= bound
            assert abs(bisect.mean_energy - target) <= bound
            # a beta displaced by x moves the mean by about Var * x
            assert abs(newton.beta - bisect.beta) <= 1e-13 + bound / newton.energy_variance
        assert np.median(evaluations) <= 8

    def test_result_is_the_gibbs_state_at_its_beta(self):
        edges = [(e, target) for e, target in EDGE_CASES if not _out_of_reach(e, target)]
        for e, target in [*_seeded_ladders(), *edges]:
            solve = gibbs_by_energy(e, target)
            again = gibbs_by_beta(e, solve.beta)
            assert solve.populations.tobytes() == again.populations.tobytes()
            assert (solve.mean_energy, solve.entropy, solve.energy_variance) == (
                again.mean_energy, again.entropy, again.energy_variance)

    @pytest.mark.parametrize("energies,target", EDGE_CASES)
    def test_edge_targets_find_the_root_quietly(self, energies, target):
        bound = thermal.ENERGY_RTOL * max(1.0, abs(target))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if _out_of_reach(energies, target):
                with pytest.raises(SolverError, match="bisection"):
                    gibbs_by_energy(energies, target)
                return
            result = gibbs_by_energy(energies, target)
            root = _root(energies, target)
        assert abs(result.mean_energy - target) <= bound
        assert abs(result.beta - root) <= _beta_spread(energies, root)


class TestEntropyDerivatives:
    """Finite-difference checks of S(E) for Gibbs families."""

    E_GRID = np.linspace(0.35, 1.45, 12)
    ENERGIES = np.array([0.0, 0.6, 1.3, 2.1])

    def entropy_at(self, energy):
        return gibbs_by_energy(self.ENERGIES, energy).entropy

    def test_concavity_on_grid(self):
        h = self.E_GRID[1] - self.E_GRID[0]
        s = np.array([self.entropy_at(x) for x in self.E_GRID])
        second = (s[2:] - 2 * s[1:-1] + s[:-2]) / h**2
        assert np.all(second <= 1e-8)

    def test_first_derivative_is_beta_star(self):
        h = 1e-4
        for energy in (0.5, 0.9, 1.3):
            ds = (self.entropy_at(energy + h) - self.entropy_at(energy - h)) / (2 * h)
            beta = gibbs_by_energy(self.ENERGIES, energy).beta
            assert abs(ds - beta) <= 1e-5

    def test_second_derivative_is_minus_inverse_variance(self):
        h = 1e-4
        for energy in (0.5, 0.9, 1.3):
            d2s = (
                self.entropy_at(energy + h)
                - 2 * self.entropy_at(energy)
                + self.entropy_at(energy - h)
            ) / h**2
            var = gibbs_by_energy(self.ENERGIES, energy).energy_variance
            assert abs(d2s + 1.0 / var) <= 1e-4


class TestTStar:
    def test_gibbs_self_consistency(self, rng):
        e = random_energies(rng, 4)
        for beta in (-2.0, -0.3, 0.0, 0.7, 3.0):
            system = diag_system(e, gibbs_by_beta(e, beta).populations)
            assert abs(t_star(system) - beta) <= 1e-10

    def test_qubit_example(self):
        assert t_star(diag_system([0.0, 1.0], [0.8, 0.2])) == pytest.approx(
            np.log(4), abs=1e-10
        )

    def test_uniform_qutrit(self):
        assert t_star(diag_system([0.0, 1.0, 2.0], np.ones(3) / 3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_spectral_edges(self):
        assert t_star(diag_system([0.0, 1.0], [1.0, 0.0])) == math.inf
        assert t_star(diag_system([0.0, 1.0], [0.0, 1.0])) == -math.inf


def free_energy(system: QuantumSystem, beta: float) -> float:
    """Non-equilibrium free energy Tr[H rho] - S(rho)/beta at inverse temperature beta."""
    return system.mean_energy - system.entropy / beta


class TestFreeEnergy:
    def test_equilibrium_identity(self):
        e = np.array([0.0, 1.0, 2.2])
        beta = 0.9
        g = gibbs_by_beta(e, beta)
        system = diag_system(e, g.populations)
        log_z = np.log(np.exp(-beta * e).sum())
        assert_allclose(free_energy(system, beta), -log_z / beta, rtol=1e-12)

    def test_pure_excited_state(self):
        system = diag_system([0.0, 1.0], [0.0, 1.0])
        assert free_energy(system, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_example(self):
        system = diag_system([0.0, 1.0], [0.6, 0.4])
        expected = 0.4 - 0.6730116670092565
        assert free_energy(system, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_gibbs_minimizes(self, rng):
        e = random_energies(rng, 3)
        beta = 1.4
        gibbs_f = free_energy(diag_system(e, gibbs_by_beta(e, beta).populations), beta)
        for _ in range(25):
            rho = random_density(rng, 3)
            f = free_energy(QuantumSystem(energies=e, rho=rho), beta)
            assert f >= gibbs_f - 1e-10

    def test_beta_form_finite_at_zero(self):
        system = diag_system([0.0, 1.0], [0.5, 0.5])
        assert_allclose(0.0 * system.mean_energy - system.entropy, -np.log(2), rtol=1e-12)


class TestEnergyVariance:
    def test_fair_bernoulli(self):
        assert gibbs_by_beta([0.0, 1.0], 0.0).energy_variance == pytest.approx(0.25)

    def test_single_level_support(self):
        assert gibbs_by_beta([0.0, 1.0], math.inf).energy_variance == 0.0

    def test_uniform_three_levels(self):
        got = gibbs_by_beta([0.0, 1.0, 2.0], 0.0).energy_variance
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_an_overflowing_square_is_inf_quietly(self):
        # (1e200 / 2)^2 overflows; a warning would fail the test
        assert gibbs_by_beta([0.0, 1e200], 0.0).energy_variance == math.inf

    def test_a_zero_weight_adds_nothing(self):
        # 0 * inf would be NaN, and max(0, NaN) reads 0
        e = np.array([0.0, 1e200, 2e200])
        spread = thermal._result_from_populations(e, 0.0, np.array([0.5, 0.5, 0.0]))
        assert spread.energy_variance == math.inf
        ground = thermal._result_from_populations(e, 0.0, np.array([1.0, 0.0, 0.0]))
        assert ground.energy_variance == 0.0


class TestQuantumSystem:
    def test_rejects_unsorted_energies(self):
        with pytest.raises(ValidationError):
            diag_system([1.0, 0.0], [0.5, 0.5])

    def test_rejects_an_infinite_energy_span(self):
        # each level is finite but e_1 - e_0 overflows
        for energies in ([-1e308, 1e308], [-1e308, 0.0, 1e308]):
            with pytest.raises(ValidationError, match="span"):
                thermal.check_energy_levels(energies)
            with pytest.raises(ValidationError, match="span"):
                diag_system(energies, np.ones(len(energies)) / len(energies))
        assert thermal.check_energy_levels([-8e307, 8e307]).tolist() == [-8e307, 8e307]

    def test_rejects_non_state(self):
        with pytest.raises(ValidationError):
            diag_system([0.0, 1.0], [0.7, 0.7])

    @pytest.mark.parametrize("stack", [(3,), (1,), (1, 1)])
    def test_rejects_a_stack_of_states(self, stack):
        rho = np.broadcast_to(np.eye(2) / 2, stack + (2, 2))
        with pytest.raises(ValidationError) as error:
            QuantumSystem(energies=[0.0, 1.0], rho=rho)
        assert str(error.value) == f"state must be square, got shape {rho.shape}"

    def test_keeps_a_copy_of_the_energies(self):
        e = np.array([0.0, 1.0])
        system = QuantumSystem(e, np.diag([0.8, 0.2]).astype(complex))
        e[1] = -5.0
        assert system.energies is not e
        assert system.energies.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_entropy_reads_the_validation_spectrum(self, monkeypatch, dim):
        # pure, full-rank, and with an eigenvalue just above EIG_FLOOR
        rng = np.random.default_rng(dim)
        pure = np.zeros((dim, dim), dtype=complex)
        pure[0, 0] = 1.0
        floored = np.diag(np.r_[1.0 + 5e-11, np.full(dim - 2, 0.0), -5e-11]).astype(complex)
        for rho in (pure, random_density(rng, dim), floored):
            expected = von_neumann_entropy(rho)
            system = QuantumSystem(energies=np.arange(dim, dtype=float), rho=rho)
            calls = []
            eigvalsh = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
            assert system.entropy.hex() == expected.hex()
            assert calls == []
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


class TestGibbsWeightOverflow:
    @staticmethod
    def unguarded(e, beta):
        """The weights' arithmetic, t = beta e and exp(-(t - min t)), with overflow silenced."""
        with np.errstate(over="ignore"):
            t = beta * e
        w = np.exp(-(t - t.min()))
        return w / w.sum()

    def test_same_bits_with_and_without_overflow(self):
        rng = np.random.default_rng(78)
        cases = [(random_energies(rng, d), float(b)) for d in (1, 2, 3, 6, 9)
                 for b in rng.uniform(-5.0, 5.0, 20)]
        cases += [(np.array([0.0, 1.0, 2.0]), 1e308), (np.array([-2.0, 0.0, 3.0]), 0.0),
                  (np.array([1.0, 2.0]), 1e308), (np.array([-3.0, -1.0]), -1e308),
                  (np.array([0.0, 1e-300, 5.0]), 1e307), (np.array([0.0, 1.0, 2.0]), 1e300)]
        for e, beta in cases:
            got = thermal._gibbs_populations(e, beta)
            assert got.tobytes() == self.unguarded(e, beta).tobytes()
        assert thermal._gibbs_populations(np.array([0.0, 1.0, 2.0]), 1e308).tolist() == [1, 0, 0]

    @pytest.mark.parametrize("energies,beta", [
        ([0.0, 1.0, 2.0], -1e308), ([-2.0, 0.0, 2.0], 1e308), ([-2.0, -1.0], 1e308),
    ])
    def test_a_minus_infinite_exponent_is_rejected(self, energies, beta):
        with pytest.raises(ValidationError, match="overflows"):
            thermal._gibbs_populations(np.array(energies), beta)
