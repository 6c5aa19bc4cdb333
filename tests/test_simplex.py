import numpy as np
import pytest
from numpy.testing import assert_allclose

from efftemp.linalg import SolverError, ValidationError
from efftemp.simplex import InfeasibleProblem, UnboundedProblem, solve_lp


def gibbs_lp_data(rng, dim):
    """Random energy-flow LP over the Gibbs-stochastic polytope."""
    energies = np.sort(rng.uniform(0.0, 2.0, dim)) + 0.05 * np.arange(dim)
    populations = rng.dirichlet(np.ones(dim))
    beta = rng.uniform(-2.0, 2.0)
    t = beta * energies
    weights = np.exp(-(t - t.min()))
    weights /= weights.sum()
    nvar = dim * dim
    a_eq = np.zeros((2 * dim, nvar))
    b_eq = np.zeros(2 * dim)
    for j in range(dim):
        for i in range(dim):
            a_eq[j, i * dim + j] = 1.0
        b_eq[j] = 1.0
    for i in range(dim):
        for j in range(dim):
            a_eq[dim + i, i * dim + j] = weights[j]
        b_eq[dim + i] = weights[i]
    cost = np.array([energies[k // dim] * populations[k % dim] for k in range(nvar)])
    return a_eq, b_eq, cost, energies, populations, weights


def qubit_vertex_enumeration(energies, populations, weights):
    """The 2x2 Gibbs-stochastic set is a segment; evaluate its endpoints."""
    g0, g1 = weights
    a_max = min(1.0, g1 / g0)
    values = []
    for a in (0.0, a_max):
        b = a * g0 / g1
        G = np.array([[1.0 - a, b], [a, 1.0 - b]])
        values.append(float(energies @ (G @ populations)))
    return max(values)


class TestBasics:
    # inequalities are written as equalities with one slack column each
    def test_box_maximum(self):
        # max x s.t. x + s = 1
        result = solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0], maximize=True)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert_allclose(result.x, [1.0, 0.0])

    def test_two_variable_max(self):
        # max x + y s.t. x + 2y + s1 = 4, 3x + y + s2 = 6
        result = solve_lp(
            [1.0, 1.0, 0.0, 0.0],
            [[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]],
            [4.0, 6.0],
            maximize=True,
        )
        assert result.value == pytest.approx(2.8, abs=1e-10)

    def test_infeasible(self):
        with pytest.raises(InfeasibleProblem):
            solve_lp([1.0], a_eq=[[1.0]], b_eq=[-1.0])

    def test_unbounded(self):
        # max x s.t. -x + s = 0
        with pytest.raises(UnboundedProblem):
            solve_lp([1.0, 0.0], [[-1.0, 1.0]], [0.0], maximize=True)

    def test_negative_rhs_handled(self):
        # -x + s = -2 means x >= 2; minimize x -> 2
        result = solve_lp([1.0, 0.0], [[-1.0, 1.0]], [-2.0])
        assert result.value == pytest.approx(2.0, abs=1e-12)

    def test_rejects_mismatched_or_non_finite_data(self):
        with pytest.raises(ValidationError, match="incompatible"):
            solve_lp(np.ones(2), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValidationError, match="incompatible"):
            solve_lp(np.ones(2), np.ones((2, 2)), np.ones(1))
        with pytest.raises(ValidationError, match="finite"):
            solve_lp(np.ones(2), np.full((1, 2), np.nan), np.ones(1))
        with pytest.raises(ValidationError, match="non-empty"):
            solve_lp(np.ones((2, 2)), np.ones((1, 2)), np.ones(1))


class TestDegeneracy:
    def test_redundant_equalities_terminate(self):
        # the same constraint three times plus its double
        a_eq = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        b_eq = [1.0, 1.0, 1.0, 2.0]
        result = solve_lp([-1.0, 0.0], a_eq=a_eq, b_eq=b_eq)
        assert result.value == pytest.approx(-1.0, abs=1e-12)

    def test_beale_cycling_example(self):
        # classic degenerate instance that cycles under the most-negative
        # pivot rule; Bland's rule must terminate at -0.05
        c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
        a_eq = [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
        result = solve_lp(c, a_eq, [0.0, 0.0, 1.0])
        assert result.value == pytest.approx(-0.05, abs=1e-10)

    def test_degenerate_vertex(self):
        # three planes through one vertex of the simplex: x + y + z = 1 and
        # x + s = 1
        result = solve_lp(
            [-1.0, -1.0, -1.0, 0.0],
            [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
            [1.0, 1.0],
        )
        assert result.value == pytest.approx(-1.0, abs=1e-12)


class TestGibbsStochasticInstances:
    def test_qubit_matches_vertex_enumeration(self, rng):
        for _ in range(50):
            a_eq, b_eq, cost, e, p, w = gibbs_lp_data(rng, 2)
            result = solve_lp(cost, a_eq=a_eq, b_eq=b_eq, maximize=True)
            assert result.value == pytest.approx(
                qubit_vertex_enumeration(e, p, w), abs=1e-10
            )

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_feasibility_residuals(self, rng, dim):
        for _ in range(20):
            a_eq, b_eq, cost, *_ = gibbs_lp_data(rng, dim)
            result = solve_lp(cost, a_eq=a_eq, b_eq=b_eq, maximize=True)
            assert np.abs(a_eq @ result.x - b_eq).max() <= 1e-9
            assert result.x.min() >= -1e-9

    def test_identity_always_feasible_bound(self, rng):
        # the optimum can never fall below the identity matrix's objective
        for _ in range(20):
            a_eq, b_eq, cost, e, p, w = gibbs_lp_data(rng, 3)
            result = solve_lp(cost, a_eq=a_eq, b_eq=b_eq, maximize=True)
            assert result.value >= float(e @ p) - 1e-10


class TestBackends:
    """How solve_lp surfaces the kernel's status codes."""

    def test_iteration_cap_raises(self):
        # the cap is checked before the optimality test, so one pivot hits it
        with pytest.raises(SolverError, match="iteration"):
            solve_lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], max_iter=1)
