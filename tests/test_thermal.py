import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import diag_system, random_density, random_energies
from efftemp import linalg, thermal
from efftemp.linalg import BracketError, ValidationError
from efftemp.thermal import QuantumSystem, gibbs_by_beta, gibbs_by_energy, t_star


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
        # at these spans a bracket 1e-13 wide in beta still misses the energy
        # residual bound, so the bisection must narrow it further
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


class TestFreeEnergy:
    def test_equilibrium_identity(self):
        e = np.array([0.0, 1.0, 2.2])
        beta = 0.9
        g = gibbs_by_beta(e, beta)
        system = diag_system(e, g.populations)
        log_z = np.log(np.exp(-beta * e).sum())
        assert_allclose(thermal.free_energy(system, beta), -log_z / beta, rtol=1e-12)

    def test_pure_excited_state(self):
        system = diag_system([0.0, 1.0], [0.0, 1.0])
        assert thermal.free_energy(system, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_example(self):
        system = diag_system([0.0, 1.0], [0.6, 0.4])
        expected = 0.4 - 0.6730116670092565
        assert thermal.free_energy(system, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_gibbs_minimizes(self, rng):
        e = random_energies(rng, 3)
        beta = 1.4
        gibbs_f = thermal.free_energy(diag_system(e, gibbs_by_beta(e, beta).populations), beta)
        for _ in range(25):
            rho = random_density(rng, 3)
            f = thermal.free_energy(QuantumSystem(energies=e, rho=rho), beta)
            assert f >= gibbs_f - 1e-10

    def test_zero_beta_rejected(self):
        with pytest.raises(ValidationError):
            thermal.free_energy(diag_system([0.0, 1.0], [0.5, 0.5]), 0.0)

    def test_beta_form_finite_at_zero(self):
        system = diag_system([0.0, 1.0], [0.5, 0.5])
        assert_allclose(thermal.beta_free_energy(system, 0.0), -np.log(2), rtol=1e-12)


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

    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_entropy_reads_the_validation_spectrum(self, monkeypatch, dim):
        # pure, full-rank, and with an eigenvalue just above EIG_FLOOR
        rng = np.random.default_rng(dim)
        pure = np.zeros((dim, dim), dtype=complex)
        pure[0, 0] = 1.0
        floored = np.diag(np.r_[1.0 + 5e-11, np.full(dim - 2, 0.0), -5e-11]).astype(complex)
        for rho in (pure, random_density(rng, dim), floored):
            expected = linalg.von_neumann_entropy(rho)
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
