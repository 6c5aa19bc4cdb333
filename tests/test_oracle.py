import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import diag_system, random_diagonal_system, random_energies
from efftemp import linalg, oracle, temperatures
from efftemp.linalg import SolverError, ValidationError
from efftemp.oracle import (
    GibbsStochasticLP,
    heat_sign_oracle,
    max_energy_gain,
    thermomajorization_extremes,
)
from references import build_cooling_protocol, simulated_protocol_heat
from efftemp.temperatures import EffectiveTempPair, single_copy_effective
from efftemp.thermal import gibbs_by_beta, gibbs_populations

ROTATED_QUTRIT_DIAG = np.array([4 + np.sqrt(2), 4 - 2 * np.sqrt(2), 4 + np.sqrt(2)]) / 12
QUBIT = diag_system([0.0, 1.0], [0.8, 0.2])


class TestMaxEnergyGain:
    def test_equilibrium_is_neutral(self, rng):
        e = random_energies(rng, 3)
        beta = 0.8
        p = gibbs_by_beta(e, beta).populations
        lp = GibbsStochasticLP(p, e, beta)
        for maximize in (True, False):
            opt = max_energy_gain(lp, maximize=maximize)
            assert abs(opt.value) <= 1e-9

    @pytest.mark.parametrize("beta_bath", [0.0, 0.5, 1.0, np.log(4) - 0.05])
    def test_qubit_closed_form(self, beta_bath):
        # the optimal vertex is the full beta-swap: gain = p0 e^-beta - p1,
        # which is the two-level transfer delta_01 rescaled by 1/g0
        lp = GibbsStochasticLP(QUBIT.populations, QUBIT.energies, beta_bath)
        opt = max_energy_gain(lp, maximize=True)
        expected = 0.8 * math.exp(-beta_bath) - 0.2
        assert opt.value == pytest.approx(expected, abs=1e-10)
        protocol = build_cooling_protocol(QUBIT, beta_bath)
        assert opt.value == pytest.approx(protocol.delta_ij / protocol.g0, abs=1e-10)

    def test_colder_bath_cannot_feed_energy(self):
        for beta_bath in (np.log(4), 1.5, 2.5):
            lp = GibbsStochasticLP(QUBIT.populations, QUBIT.energies, beta_bath)
            assert max_energy_gain(lp, maximize=True).value <= 1e-9

    def test_matrix_invariants(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim))
            beta = float(rng.uniform(-2.0, 2.0))
            opt = max_energy_gain(GibbsStochasticLP(p, e, beta), maximize=True)
            g = gibbs_populations(e, beta)
            assert np.abs(opt.matrix.sum(axis=0) - 1.0).max() <= 1e-9
            assert np.abs(opt.matrix @ g - g).max() <= 1e-9
            assert opt.matrix.min() >= -1e-9
            recomputed = float(e @ (opt.matrix @ p) - e @ p)
            assert abs(recomputed - opt.value) <= 1e-9

    def test_energy_shift_invariance(self, rng):
        e = random_energies(rng, 3)
        p = rng.dirichlet(np.ones(3))
        for shift in (0.7, -0.4):
            base = max_energy_gain(GibbsStochasticLP(p, e, 0.9), maximize=True).value
            moved = max_energy_gain(GibbsStochasticLP(p, e + shift, 0.9), maximize=True).value
            assert moved == pytest.approx(base, abs=1e-9)

    def test_minimize_sense(self):
        lp = GibbsStochasticLP(QUBIT.populations, QUBIT.energies, 2.0)
        opt = max_energy_gain(lp, maximize=False)
        assert opt.value < -1e-6  # a colder bath absorbs energy

    def test_residual_is_the_polytope_deviation(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim))
            beta = float(rng.uniform(-2.0, 2.0))
            lp = GibbsStochasticLP(p, e, beta)
            g = gibbs_populations(e, beta)
            for maximize in (True, False):
                opt = max_energy_gain(lp, maximize=maximize)
                recomputed = max(
                    float(np.abs(opt.matrix.sum(axis=0) - 1.0).max()),
                    float(np.abs(opt.matrix @ g - g).max()),
                )
                assert opt.residual == recomputed
                assert opt.residual <= oracle.POLYTOPE_TOL


def loop_built_lp_data(populations, energies, beta_bath):
    """The LP rows and cost built entry by entry, G[i, j] -> x[i*d + j]."""
    e = np.asarray(energies, dtype=float)
    p = np.maximum(np.asarray(populations, dtype=float), 0.0)
    g = gibbs_populations(e, beta_bath)
    d = e.size
    a_eq = np.zeros((2 * d, d * d))
    b_eq = np.zeros(2 * d)
    cost = np.zeros(d * d)
    for j in range(d):
        for i in range(d):
            a_eq[j, i * d + j] = 1.0
        b_eq[j] = 1.0
    for i in range(d):
        for j in range(d):
            a_eq[d + i, i * d + j] = g[j]
            cost[i * d + j] = e[i] * p[j]
        b_eq[d + i] = g[i]
    return a_eq, b_eq, cost


class TestGibbsStochasticLPModel:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_data_match_the_entrywise_build_bit_for_bit(self, dim):
        rng = np.random.default_rng(4000 + dim)
        for beta in (-2.5, 0.0, 0.3, 1.7):
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim))
            lp = GibbsStochasticLP(p, e, beta)
            a_eq, b_eq, cost = loop_built_lp_data(p, e, beta)
            assert np.array_equal(lp.a_eq, a_eq)
            assert np.array_equal(lp.b_eq, b_eq)
            assert np.array_equal(lp.cost, cost)
            assert np.array_equal(lp.gibbs, gibbs_populations(e, beta))

    def test_clamps_rounding_negatives_before_the_cost(self):
        lp = GibbsStochasticLP(np.array([1.0 + 1e-13, -1e-13]), np.array([0.0, 1.0]), 0.5)
        assert lp.populations.tolist() == [1.0 + 1e-13, 0.0]
        assert lp.cost.tolist() == [0.0, 0.0, 1.0 + 1e-13, 0.0]


def highs_energy_change(populations, energies, beta_bath: float, maximize: bool) -> float:
    """Optimum of e^T (G - 1) p over the Gibbs-stochastic polytope, by HiGHS.

    Built from the definition alone, with no efftemp code: G >= 0 with unit
    column sums and G g = g for g proportional to exp(-beta_bath * e).
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    d = e.size
    g = np.exp(-beta_bath * (e - e.min()))
    g /= g.sum()
    columns = np.kron(np.ones((1, d)), np.eye(d))  # sum_i G[i, j] = 1
    fixes = np.kron(np.eye(d), g[None, :])  # sum_j G[i, j] g_j = g_i
    a_eq = np.vstack([columns, fixes])
    b_eq = np.concatenate([np.ones(d), g])
    cost = np.outer(e, p).ravel()  # x[i*d + j] = G[i, j]
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return sign * res.fun - float(e @ p)


class TestHighsCrossCheck:
    @staticmethod
    def check(populations, energies, beta_bath):
        # the LP reference and the vertex path, each against HiGHS
        lp = GibbsStochasticLP(populations, energies, beta_bath)
        verdict = heat_sign_oracle(diag_system(energies, populations), beta_bath)
        for vertex, maximize in ((verdict.gain, True), (verdict.loss, False)):
            highs = highs_energy_change(populations, energies, beta_bath, maximize)
            assert max_energy_gain(lp, maximize=maximize).value == pytest.approx(highs, abs=1e-9)
            assert vertex.value == pytest.approx(highs, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_random_instances(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(6):
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim))
            self.check(p, e, float(rng.uniform(-2.0, 2.0)))

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_infinite_temperature_bath(self, dim):
        rng = np.random.default_rng(2000 + dim)
        self.check(rng.dirichlet(np.ones(dim)), random_energies(rng, dim), 0.0)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_gibbs_input_at_its_own_temperature(self, dim):
        rng = np.random.default_rng(3000 + dim)
        e = random_energies(rng, dim)
        self.check(gibbs_populations(e, 0.7), e, 0.7)

    @pytest.mark.parametrize(
        "energies",
        [[0.0, 0.0, 1.0], [0.0, 0.6, 0.6, 1.3], [0.0, 0.5, 0.5, 0.5, 1.0, 1.0]],
        ids=["ground-pair", "middle-pair", "two-blocks"],
    )
    def test_repeated_levels(self, energies):
        rng = np.random.default_rng(len(energies))
        for beta_bath in (-0.8, 0.0, 1.1):
            self.check(rng.dirichlet(np.ones(len(energies))), energies, beta_bath)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_empty_levels(self, dim):
        rng = np.random.default_rng(4000 + dim)
        for beta_bath in (-1.5, 0.0, 0.9):
            p = rng.dirichlet(np.ones(dim))
            p[rng.integers(dim)] = 0.0
            self.check(p / p.sum(), random_energies(rng, dim), beta_bath)


def curve_excess(q, p, g):
    """How far q's thermo-majorization curve rises above p's, from the definition.

    Each curve joins the cumulative (Gibbs weight, population) points of
    its levels sorted by descending population / weight; weights g > 0.
    """
    def corners(r):
        order = sorted(range(len(r)), key=lambda i: -r[i] / g[i])
        return np.cumsum([0.0, *g[order]]), np.cumsum([0.0, *r[order]])

    xq, yq = corners(q)
    xp, yp = corners(p)
    return max(0.0, max(yq - np.interp(xq, xp, yp)))


def looped_extremes(populations, energies, beta_bath):
    """(gain, loss, vertices): the largest and smallest e . (q - p) over the
    vertices q, with vertices[order] = (q, e . (q - p)) for every order.

    The vertex of an order climbs p's curve over each level's Gibbs weight
    in that order, one order at a time.  Plain numpy throughout, with the
    weights exp(-beta e) taken directly, so it is well conditioned only
    while |beta| * span is far below the float range and no weight
    underflows.
    """
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    g = np.exp(-beta_bath * (e - e.mean()))
    g /= g.sum()
    order = sorted(range(e.size), key=lambda i: -p[i] / g[i])
    xp = np.cumsum([0.0, *g[order]])
    yp = np.cumsum([0.0, *p[order]])
    vertices = {}
    for perm in itertools.permutations(range(e.size)):
        climb = np.interp(np.cumsum([0.0, *g[list(perm)]]), xp, yp)
        q = np.zeros(e.size)
        q[list(perm)] = np.diff(climb)
        vertices[perm] = q, float(e @ q - e @ p)
    changes = [change for _, change in vertices.values()]
    return max(changes), min(changes), vertices


def looped_decided(e, p, value):
    """`oracle._decided` as a loop over the rows with an exactly empty level
    and their pairs of distinct energies, as it ran before it was stacked."""
    can_cool = value[0] > oracle.SIGN_MARGIN
    can_heat = value[1] < -oracle.SIGN_MARGIN
    for s in np.flatnonzero((p == 0.0).any(axis=1)).tolist():
        tol = linalg.energy_equal_tol(e[s])
        for i, j in itertools.combinations(range(e.shape[1]), 2):
            if e[s, j] - e[s, i] > tol:
                occupied_i, occupied_j = p[s, [i, j]] > temperatures.ZERO_POPULATION
                can_cool[s] |= occupied_i and p[s, j] == 0.0
                can_heat[s] |= p[s, i] == 0.0 and occupied_j
    return can_cool, can_heat


def oracle_cases(dim, count, seed, beta_span=5.0):
    """(energies, populations, beta_bath) with |beta_bath| * span <= beta_span,
    cycling through generic, degenerate, empty-level, beta = 0 and Gibbs cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        kind = k % 5
        e = random_energies(rng, dim)
        if kind == 1:
            e = np.repeat(np.arange((dim + 1) // 2), 2)[:dim] * rng.uniform(0.3, 1.2)
        p = rng.dirichlet(np.ones(dim))
        span = max(float(e[-1] - e[0]), 1e-3)
        beta = float(rng.uniform(-beta_span, beta_span)) / span
        if kind == 2 and dim > 1:
            p[rng.integers(dim)] = 0.0
            p /= p.sum()
        elif kind == 3:
            beta = 0.0
        elif kind == 4:
            p = gibbs_populations(e, beta)
        cases.append((e, p, beta))
    return cases


class TestThermomajorizationExtremes:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_the_lp_where_it_is_well_conditioned(self, dim):
        for e, p, beta in oracle_cases(dim, 25, seed=6100 + dim):
            verdict = heat_sign_oracle(diag_system(e, p), beta)
            lp = GibbsStochasticLP(p, e, beta)
            assert verdict.gain.value == pytest.approx(max_energy_gain(lp, True).value, abs=1e-9)
            assert verdict.loss.value == pytest.approx(max_energy_gain(lp, False).value, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_the_looped_vertices(self, dim):
        top, ground = tuple(range(dim - 1, -1, -1)), tuple(range(dim))
        for e, p, beta in oracle_cases(dim, 10, seed=6200 + dim):
            verdict = heat_sign_oracle(diag_system(e, p), beta)
            gain, loss, vertices = looped_extremes(p, e, beta)
            assert verdict.gain.value == pytest.approx(gain, abs=1e-12)
            assert verdict.loss.value == pytest.approx(loss, abs=1e-12)
            assert np.abs(verdict.gain.vertex - vertices[top][0]).max() <= 1e-12
            assert np.abs(verdict.loss.vertex - vertices[ground][0]).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_the_energy_orders_are_the_looped_extremes(self, dim):
        # the rearrangement inequality, on the looped reference alone: no
        # order's vertex gains more than the one that climbs the levels from
        # the top, or loses more than the one that climbs from the ground
        top, ground = tuple(range(dim - 1, -1, -1)), tuple(range(dim))
        for e, p, beta in oracle_cases(dim, 10, seed=6800 + dim):
            gain, loss, vertices = looped_extremes(p, e, beta)
            assert len(vertices) == math.factorial(dim)
            assert vertices[top][1] == pytest.approx(gain, abs=1e-12)
            assert vertices[ground][1] == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_vertices_carry_their_certificate(self, dim):
        for e, p, beta in oracle_cases(dim, 15, seed=6300 + dim):
            g = gibbs_populations(e, beta)
            verdict = heat_sign_oracle(diag_system(e, p), beta)
            for opt in (verdict.gain, verdict.loss):
                q = opt.vertex
                assert q.min() >= -1e-15 and abs(q.sum() - 1.0) <= 1e-12
                assert curve_excess(q, p, g) <= 1e-12
                assert 0.0 <= opt.residual <= 1e-12
                assert opt.value == float(((q - p) * (e - e[0])).sum())

    def test_stacked_rows_are_the_single_rows_bit_for_bit(self):
        for dim in (1, 2, 3, 4, 5, 6):
            cases = oracle_cases(dim, 20, seed=6400 + dim)
            cases += [(e, p, b * 400.0) for e, p, b in cases[:5]]
            e, p, beta = (np.array(column) for column in zip(*cases))
            stacked = thermomajorization_extremes(e, p, beta)
            assert [a.shape for a in stacked] == [(2, len(cases)), (2, len(cases), dim),
                                                  (2, len(cases))]
            for s in range(len(cases)):
                alone = thermomajorization_extremes(e[s:s + 1], p[s:s + 1], beta[s:s + 1])
                for whole, one in zip(stacked, alone):
                    assert whole[:, s].tobytes() == one[:, 0].tobytes()

    @pytest.mark.parametrize(
        "beta_bath,gain,loss",
        [(30.0, 0.0, -0.7), (800.0, 0.0, -0.7), (1e308, 0.0, -0.7),
         (-30.0, 1.3, 0.0), (-800.0, 1.3, 0.0), (-1e308, 1.3, 0.0)],
    )
    def test_cold_and_hot_baths_on_the_pinned_state(self, beta_bath, gain, loss):
        # beta_c = log(5/3) and beta_h = log(3/2): a cold bath can only take
        # energy, a hot one only give it, up to the full ground or top level
        system = diag_system([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        verdict = heat_sign_oracle(system, beta_bath)
        assert verdict.gain.value == pytest.approx(gain, abs=1e-12)
        assert verdict.loss.value == pytest.approx(loss, abs=1e-12)
        predicted = oracle.predicted_verdicts(single_copy_effective(system), beta_bath)
        assert (verdict.can_cool, verdict.can_heat) == predicted == (beta_bath < 0, beta_bath > 0)

    @pytest.mark.parametrize("beta_bath", [25.0, 30.0, 800.0, 1e308, -25.0, -30.0, -800.0, -1e308])
    @pytest.mark.parametrize(
        "populations", [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        ids=["empty-top", "empty-ground", "empty-middle"],
    )
    def test_flows_into_an_empty_level_count_however_small(self, populations, beta_bath):
        # an empty level above (below) an occupied one gives beta_c = +inf
        # (beta_h = -inf), and the flow into it is positive at any finite
        # bath, though below SIGN_MARGIN here or below the smallest float
        system = diag_system([0.0, 1.0, 2.0], populations)
        verdict = heat_sign_oracle(system, beta_bath)
        pair = single_copy_effective(system)
        predicted = oracle.predicted_verdicts(pair, beta_bath)
        assert (verdict.can_cool, verdict.can_heat) == predicted
        if pair.beta_c == math.inf and beta_bath > 0:
            assert 0.0 <= verdict.gain.value <= oracle.SIGN_MARGIN and verdict.can_cool
        if pair.beta_h == -math.inf and beta_bath < 0:
            assert -oracle.SIGN_MARGIN <= verdict.loss.value <= 0.0 and verdict.can_heat

    def test_a_clamped_zero_counts_and_a_degenerate_one_does_not(self):
        # a population of -1e-13, clamped to 0, is an empty level
        clamped = heat_sign_oracle(diag_system([0.0, 1.0, 2.0], [0.5 + 1e-13, 0.5, -1e-13]), 30.0)
        assert clamped.can_cool
        # level 2 is empty beside level 1 at the same energy: no energy moves
        degenerate = heat_sign_oracle(diag_system([0.0, 1.0, 1.0], [0.0, 1.0, 0.0]), 30.0)
        assert (degenerate.can_cool, degenerate.can_heat) == (False, True)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_the_empty_level_rule_is_the_per_row_loop(self, dim):
        # a ladder per row, every other one rounded to degenerate pairs, with
        # exactly empty levels, populations around ZERO_POPULATION and optima
        # on either side of SIGN_MARGIN
        rng = np.random.default_rng(6800 + dim)
        e = np.sort(rng.uniform(0.0, 2.0, (400, dim)), axis=1)
        e[::2] = np.round(e[::2] * 2.0) / 2.0
        p = rng.dirichlet(np.ones(dim), size=400)
        p[rng.random(p.shape) < 0.3] = 0.0
        tiny = rng.random(p.shape) < 0.1
        p[tiny] = rng.choice([1e-300, 1.0, 2.0], tiny.sum()) * temperatures.ZERO_POPULATION
        value = rng.choice([-2.0, -0.5, 0.5, 2.0], (2, 400)) * oracle.SIGN_MARGIN
        got = oracle._decided(e, p, value)
        want = looped_decided(e, p, value)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_cold_and_hot_baths_agree_with_the_closed_form(self):
        # random states, and the same states with some levels emptied, whose
        # beta_c or beta_h is then infinite
        rng = np.random.default_rng(6500)
        emptying = np.random.default_rng(6700)
        for k in range(200):
            system = random_diagonal_system(rng, 2 + k % 5)
            p = system.populations.copy()
            p[emptying.choice(p.size, 1 + k % (p.size - 1), replace=False)] = 0.0
            magnitudes = rng.uniform(10.0, 40.0, 2)
            for state in (system, diag_system(system.energies, p / p.sum())):
                pair = single_copy_effective(state)
                for magnitude in (*magnitudes, 800.0, 1e308):
                    for beta_bath in (float(magnitude), -float(magnitude)):
                        verdict = heat_sign_oracle(state, beta_bath)
                        predicted = oracle.predicted_verdicts(pair, beta_bath)
                        assert (verdict.can_cool, verdict.can_heat) == predicted

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_underflowing_weights_reach_the_limit(self, dim):
        # once every weight ratio is below e^-100, the optima sit at their
        # beta -> +/-inf limits, whether or not the weights underflow
        for e, p, _ in oracle_cases(dim, 15, seed=6600 + dim):
            gaps = np.diff(e)[np.diff(e) > 0]
            if not gaps.size:
                continue
            near = 100.0 / gaps.min()
            for sign in (1.0, -1.0):
                limit = heat_sign_oracle(diag_system(e, p), sign * near)
                for beta_bath in (sign * 800.0 / gaps.min(), sign * 1e308):
                    far = heat_sign_oracle(diag_system(e, p), beta_bath)
                    assert far.gain.value == pytest.approx(limit.gain.value, abs=1e-12)
                    assert far.loss.value == pytest.approx(limit.loss.value, abs=1e-12)
                    assert far.gain.residual <= 1e-12 and far.loss.residual <= 1e-12

    def test_a_vertex_off_the_polytope_raises(self, monkeypatch):
        curve_table = oracle._curve_table
        monkeypatch.setattr(oracle, "_curve_table", lambda *args: curve_table(*args) * 1.001)
        with pytest.raises(SolverError, match="thermo-majorization"):
            heat_sign_oracle(diag_system([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]), 0.5)

    def test_level_tables_are_built_on_first_use(self):
        code = (
            "import numpy as np, efftemp, efftemp.cli\n"
            "from efftemp import oracle\n"
            "print(oracle._level_tables.cache_info().currsize)\n"
            "oracle.heat_sign_oracle(efftemp.QuantumSystem([0.0, 1.0], np.eye(2) / 2), 0.5)\n"
            "print(oracle._level_tables.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.split() == ["0", "1"]


class TestHeatSignOracle:
    def test_equilibrium(self, rng):
        e = random_energies(rng, 3)
        system = diag_system(e, gibbs_by_beta(e, 1.1).populations)
        verdict = heat_sign_oracle(system, 1.1)
        assert (verdict.can_cool, verdict.can_heat) == (False, False)

    def test_rotated_qutrit_state_both_ways(self):
        system = diag_system([0.0, 1.0, 2.0], ROTATED_QUTRIT_DIAG)
        # |0.5| is inside the +/-1.5307 window, so both directions open
        verdict = heat_sign_oracle(system, 0.5)
        assert (verdict.can_cool, verdict.can_heat) == (True, True)

    def test_inverted_qubit(self):
        inverted = diag_system([0.0, 1.0], [0.2, 0.8])
        verdict = heat_sign_oracle(inverted, 2.0)
        assert (verdict.can_cool, verdict.can_heat) == (False, True)

    def test_returns_the_deciding_optima(self):
        system = diag_system([0.0, 1.0, 2.0], ROTATED_QUTRIT_DIAG)
        verdict = heat_sign_oracle(system, 0.5)
        value, vertex, residual = thermomajorization_extremes(
            system.energies[None], system.populations[None], np.array([0.5])
        )
        lp = GibbsStochasticLP(system.populations, system.energies, 0.5)
        for k, (opt, maximize) in enumerate(((verdict.gain, True), (verdict.loss, False))):
            assert opt.value == value[k, 0]
            assert np.array_equal(opt.vertex, vertex[k, 0])
            assert opt.residual == residual[k, 0] <= oracle.POLYTOPE_TOL
            # the vertex's energy change is the value, and the LP reaches it too
            shift = system.energies - system.energies[0]
            assert opt.value == float(((opt.vertex - system.populations) * shift).sum())
            assert opt.value == pytest.approx(max_energy_gain(lp, maximize).value, abs=1e-12)
        assert verdict.can_cool == (verdict.gain.value > oracle.SIGN_MARGIN)
        assert verdict.can_heat == (verdict.loss.value < -oracle.SIGN_MARGIN)

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.8, 3.0])
    def test_prediction_agrees_at_a_gibbs_tie(self, beta):
        e = np.array([0.0, 0.7, 1.3, 2.1])
        system = diag_system(e, gibbs_populations(e, beta))
        verdict = heat_sign_oracle(system, beta)
        predicted = oracle.predicted_verdicts(single_copy_effective(system), beta)
        assert predicted == (verdict.can_cool, verdict.can_heat) == (False, False)

    def test_prediction_outside_the_tie(self):
        pair = single_copy_effective(diag_system([0.0, 1.0], [0.8, 0.2]))  # beta = log 4
        assert oracle.predicted_verdicts(pair, math.log(4) - 1e-6) == (True, False)
        assert oracle.predicted_verdicts(pair, math.log(4) + 1e-6) == (False, True)
        empty = single_copy_effective(diag_system([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))
        assert oracle.predicted_verdicts(empty, 1e300) == (True, True)

    def test_array_prediction_is_the_scalar_ones(self):
        # finite and infinite pairs against baths at, inside and outside the
        # tie around beta_c and beta_h, far from both, and infinite
        rng = np.random.default_rng(6900)
        states = [random_diagonal_system(rng, 2 + k % 4) for k in range(30)]
        states += [diag_system([0.0, 1.0, 2.0], p) for p in ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])]
        rows = []
        for pair in map(single_copy_effective, states):
            for centre in (pair.beta_c, pair.beta_h, 0.0, 1e308, -1e308):
                centre = centre if math.isfinite(centre) else 30.0
                scale = max(1.0, abs(centre))
                ties = [centre + t * scale for t in (0.0, 5e-10, -5e-10, 2e-9, -2e-9)]
                for beta_bath in (*ties, centre + rng.uniform(-3.0, 3.0), math.inf, -math.inf):
                    rows.append((pair.beta_c, pair.beta_h, beta_bath))
        beta_c, beta_h, beta = np.array(rows).T
        cool, heat = oracle.predicted_verdicts(EffectiveTempPair(beta_c, beta_h), beta)
        want = [oracle.predicted_verdicts(EffectiveTempPair(c, h), b) for c, h, b in rows]
        assert list(zip(cool.tolist(), heat.tolist())) == [(bool(c), bool(h)) for c, h in want]
        assert set(cool.tolist()) == set(heat.tolist()) == {False, True}

    def test_dimension_cap(self):
        system = diag_system(np.arange(7.0), np.ones(7) / 7)
        with pytest.raises(ValidationError, match="cap"):
            heat_sign_oracle(system, 1.0)

    def test_one_model_and_one_constraint_build_per_verdict(self, monkeypatch):
        # one validated model, one vertex enumeration for both directions,
        # and no LP model or solve
        built = []
        calls = []
        extremes = oracle.thermomajorization_extremes

        def recording_extremes(energies, populations, beta_bath):
            calls.append((energies, populations, beta_bath))
            return extremes(energies, populations, beta_bath)

        def no_lp(*args, **kwargs):
            raise AssertionError("the verdict ran the LP")

        monkeypatch.setattr(GibbsStochasticLP, "__post_init__", lambda lp: built.append(lp))
        monkeypatch.setattr(oracle, "thermomajorization_extremes", recording_extremes)
        monkeypatch.setattr(oracle.simplex, "solve_lp", no_lp)
        system = diag_system([0.0, 1.0, 2.0], ROTATED_QUTRIT_DIAG)
        verdict = heat_sign_oracle(system, 0.5)
        assert built == []
        ((energies, populations, beta_bath),) = calls
        assert energies.shape == populations.shape == (1, 3) and beta_bath.tolist() == [0.5]
        assert np.array_equal(energies[0], system.energies)
        assert np.array_equal(populations[0], system.populations)
        assert (verdict.can_cool, verdict.can_heat) == (True, True)

    @pytest.mark.parametrize(
        "energies",
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.6, 0.6, 1.3],
            [0.0, 0.4, 0.4, 0.4, 1.1],
            [0.0, 0.5, 0.5, 1.0, 1.0, 1.0],
        ],
        ids=["d3", "d4", "d5", "d6"],
    )
    def test_relabelling_degenerate_levels_keeps_the_verdicts(self, energies):
        e = np.asarray(energies)
        d = e.size
        rng = np.random.default_rng(5000 + d)
        # cycle the labels inside each block of equal energies
        perm = np.arange(d)
        for level in np.unique(e):
            block = np.flatnonzero(e == level)
            perm[block] = np.roll(block, 1)
        assert not np.array_equal(perm, np.arange(d))
        for _ in range(6):
            p = rng.dirichlet(np.ones(d))
            system = diag_system(e, p)
            relabelled = diag_system(e, p[perm])
            pair = single_copy_effective(system)
            for beta_bath in rng.uniform(-3.0, 3.0, 4):
                # keep away from the ties at beta_c and beta_h
                if min(abs(beta_bath - pair.beta_c), abs(beta_bath - pair.beta_h)) < 1e-3:
                    continue
                verdict = heat_sign_oracle(system, beta_bath)
                again = heat_sign_oracle(relabelled, beta_bath)
                assert (again.can_cool, again.can_heat) == (verdict.can_cool, verdict.can_heat)
                assert again.gain.value == pytest.approx(verdict.gain.value, abs=1e-12)
                assert again.loss.value == pytest.approx(verdict.loss.value, abs=1e-12)

    def test_matches_formula_on_small_batch(self, rng):
        report = oracle.equivalence_trials(30, 3, seed=1234)
        assert report.cases == 90
        assert report.disagreements == 0
        assert report.max_polytope_residual <= 1e-9


def looped_trials(n_systems, baths_per_system, seed, dims):
    """`equivalence_trials` one `heat_sign_oracle` verdict at a time."""
    rng = np.random.default_rng(seed)
    cases = disagreements = 0
    residual = 0.0
    for k in range(n_systems):
        system = random_diagonal_system(rng, dims[k % len(dims)])
        pair = single_copy_effective(system)
        for _ in range(baths_per_system):
            beta_bath = float(rng.uniform(-3.0, 3.0))
            verdict = heat_sign_oracle(system, beta_bath)
            residual = max(residual, verdict.gain.residual, verdict.loss.residual)
            cases += 1
            if (verdict.can_cool, verdict.can_heat) != oracle.predicted_verdicts(pair, beta_bath):
                disagreements += 1
    return cases, disagreements, residual


class TestStackedTrials:
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 4, 5, 6)], ids=["d3-4", "d2-6"])
    @pytest.mark.parametrize("n_systems", [0, 1, 3, 8, 40])
    @pytest.mark.parametrize("small_chunks", [False, True], ids=["budget", "small-chunks"])
    def test_report_equals_the_per_verdict_loop(self, monkeypatch, dims, n_systems, small_chunks):
        if small_chunks:
            # 3 systems of (3, 4) or 1 of (2, ..., 6) per chunk
            monkeypatch.setattr(oracle, "TRIAL_CHUNK_BYTES", 3 * 5 * 16 * 4 * 8)
        for seed in (1, 7, 2024):
            report = oracle.equivalence_trials(n_systems, 5, seed, dims)
            cases, disagreements, residual = looped_trials(n_systems, 5, seed, dims)
            assert report.cases == cases == 5 * n_systems
            assert report.disagreements == disagreements
            assert report.max_polytope_residual.hex() == residual.hex()

    def test_chunks_end_in_a_partial_one(self, monkeypatch):
        sizes = []
        extremes = oracle.thermomajorization_extremes

        def recording_extremes(energies, *args):
            sizes.append(energies.shape)
            return extremes(energies, *args)

        # 3 systems of 5 baths x 2^4 subsets x 4 levels x 8 bytes per chunk
        monkeypatch.setattr(oracle, "TRIAL_CHUNK_BYTES", 3 * 5 * 16 * 4 * 8)
        monkeypatch.setattr(oracle, "thermomajorization_extremes", recording_extremes)
        oracle.equivalence_trials(10, 5, 3, (3, 4))
        # chunks of 3 systems, alternating d = 3 and 4, one row per bath
        assert sizes == [(10, 3), (5, 4), (5, 3), (10, 4), (10, 3), (5, 4), (5, 4)]


class TestCoolingProtocol:
    def test_boundary_bath_gives_zero_transfer(self):
        pair = single_copy_effective(QUBIT)
        protocol = build_cooling_protocol(QUBIT, pair.beta_c)
        assert protocol.delta_ij == 0.0
        assert protocol.heat_to_thermometer == 0.0

    def test_qubit_worked_example(self):
        protocol = build_cooling_protocol(QUBIT, 0.0)
        # p_i g0 e^0 (1 - e^-beta_max) = 0.8 * 0.5 * (1 - 0.25)
        assert protocol.pair == (0, 1)
        assert protocol.gap == 1.0
        assert protocol.g0 == pytest.approx(0.5)
        assert protocol.delta_ij == pytest.approx(0.3, abs=1e-14)
        assert protocol.heat_to_thermometer == pytest.approx(-0.3, abs=1e-14)

    def test_thermometer_is_resonant_gibbs(self):
        protocol = build_cooling_protocol(QUBIT, 0.7)
        assert protocol.g0 == pytest.approx(1.0 / (1.0 + math.exp(-0.7 * protocol.gap)))
        assert protocol.g0 + protocol.g1 == pytest.approx(1.0, abs=1e-15)

    def test_cooling_iff_bath_hotter_than_beta_max(self):
        for beta_bath in (-1.0, 0.3, 1.0):
            assert build_cooling_protocol(QUBIT, beta_bath).heat_to_thermometer < 0.0
        for beta_bath in (1.5, 3.0):
            assert build_cooling_protocol(QUBIT, beta_bath).heat_to_thermometer > 0.0

    def test_agrees_with_qubit_swap_simulation(self):
        protocol = build_cooling_protocol(QUBIT, 0.0)
        simulated = simulated_protocol_heat(QUBIT, 0.0, protocol.pair)
        assert abs(simulated - protocol.heat_to_thermometer) <= 1e-12

    def test_agrees_with_simulation_random(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            system = diag_system(random_energies(rng, dim), rng.dirichlet(np.ones(dim)))
            beta_bath = float(rng.uniform(-2.0, 2.0))
            protocol = build_cooling_protocol(system, beta_bath)
            simulated = simulated_protocol_heat(system, beta_bath, protocol.pair)
            assert abs(simulated - protocol.heat_to_thermometer) <= 1e-12

    def test_empty_upper_level(self):
        system = diag_system([0.0, 1.0], [1.0, 0.0])
        protocol = build_cooling_protocol(system, 1.0)
        assert protocol.beta_max == math.inf
        # the swap moves the full p_i * g1 weight
        assert protocol.delta_ij == pytest.approx(protocol.g1, abs=1e-14)
        simulated = simulated_protocol_heat(system, 1.0, protocol.pair)
        assert abs(simulated - protocol.heat_to_thermometer) <= 1e-12


    @pytest.mark.parametrize("populations", [[0.0, 1.0], [1e-300, 1.0]])
    @pytest.mark.parametrize("beta_bath", [0.0, 1.0, -2.0])
    def test_empty_lower_level(self, populations, beta_bath):
        # beta_max = -inf: the swap moves p_j g0 up and nothing down
        system = diag_system([0.0, 1.0], populations)
        protocol = build_cooling_protocol(system, beta_bath)
        assert protocol.beta_max == -math.inf
        simulated = simulated_protocol_heat(system, beta_bath, protocol.pair)
        assert abs(simulated - protocol.heat_to_thermometer) <= 1e-12
        assert protocol.heat_to_thermometer > 0.0

    @pytest.mark.parametrize("beta_bath", [710.0, -710.0, 1000.0, -1000.0, 1e308, -1e308])
    def test_extreme_baths_give_the_two_flows(self, beta_bath):
        system = diag_system([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        protocol = build_cooling_protocol(system, beta_bath)
        assert math.isfinite(protocol.g0) and math.isfinite(protocol.g1)
        assert protocol.g0 + protocol.g1 == 1.0
        i, j = protocol.pair
        p = system.populations
        flows = p[i] * protocol.g1 - p[j] * protocol.g0
        assert abs(protocol.delta_ij - flows) <= 1e-12


class TestGibbsStochasticLPValidation:
    def test_rejects_bad_populations(self):
        with pytest.raises(ValidationError):
            GibbsStochasticLP(np.array([0.7, 0.7]), np.array([0.0, 1.0]), 1.0)

    def test_rejects_nan_population(self):
        with pytest.raises(ValidationError):
            GibbsStochasticLP(np.array([np.nan, 1.0]), np.array([0.0, 1.0]), 1.0)

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(ValidationError, match="cap is 6, got 7"):
            GibbsStochasticLP(np.ones(7) / 7, np.arange(7.0), 1.0)

    def test_rejects_an_infinite_energy_span(self):
        # e_1 - e_0 overflows; the energy validation rejects it for both
        e = np.array([-1e308, 1e308])
        with pytest.raises(ValidationError, match="span"):
            GibbsStochasticLP(np.array([0.5, 0.5]), e, 0.0)
        with pytest.raises(ValidationError, match="span"):
            heat_sign_oracle(diag_system(e, [0.5, 0.5]), 0.0)

    def test_rejects_infinite_bath(self):
        with pytest.raises(ValidationError):
            GibbsStochasticLP(np.array([0.5, 0.5]), np.array([0.0, 1.0]), math.inf)
