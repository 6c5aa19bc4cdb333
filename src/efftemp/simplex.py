"""Equality-form linear programming front end over the simplex kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import SolverError, ValidationError

FEASIBILITY_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-10
DEFAULT_MAX_ITER = 20000


class InfeasibleProblem(SolverError):
    """The constraint set is empty."""


class UnboundedProblem(SolverError):
    """The objective is unbounded over the feasible region."""


@dataclass(frozen=True, eq=False)
class LPResult:
    value: float
    x: np.ndarray


def _lp_arrays(c, a_eq, b_eq):
    """c (n,), A_eq (m, n) and b_eq (m,) as float arrays, checked for shape
    and finiteness."""
    cost = np.atleast_1d(np.asarray(c, dtype=float))
    A = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if cost.ndim != 1 or cost.size == 0:
        raise ValidationError("objective vector must be 1-d and non-empty")
    n = cost.size
    if A.shape != b.shape + (n,):
        raise ValidationError(f"A_eq shape {A.shape} incompatible with n={n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(cost))):
        raise ValidationError("LP data must be finite")
    return cost, A, b


def _checked_value(status, x, cost, A, b, max_iter):
    """Objective value cost @ x of a kernel result.

    Raises InfeasibleProblem, UnboundedProblem, or SolverError when the
    iteration cap was hit or the vertex misses A x = b or x >= 0 by more
    than FEASIBILITY_TOL.
    """
    if status == _kernels.INFEASIBLE:
        raise InfeasibleProblem("no feasible point satisfies the constraints")
    if status == _kernels.UNBOUNDED:
        raise UnboundedProblem("objective is unbounded over the feasible region")
    if status != _kernels.OPTIMAL:
        raise SolverError(f"simplex iteration cap {max_iter} reached")
    residual = float(np.abs(A @ x - b).max())
    if residual > FEASIBILITY_TOL or x.min() < -FEASIBILITY_TOL:
        raise SolverError(f"vertex failed feasibility check: residual {residual:.3e}")
    return float(cost @ x)


def solve_lp(
    c,
    a_eq,
    b_eq,
    maximize: bool = False,
    tol: float = DEFAULT_PIVOT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LPResult:
    """Solve min (or max) c @ x over {A_eq x = b_eq, x >= 0}.

    The two-phase simplex with Bland's rule returns a vertex of the feasible
    polytope.  Redundant equality rows are tolerated; an inequality enters
    as an equality row with its own slack column.

    Raises InfeasibleProblem / UnboundedProblem, or SolverError when the
    iteration cap is hit or the vertex fails the 1e-9 feasibility check.
    """
    cost, A, b = _lp_arrays(c, a_eq, b_eq)
    status, x = _kernels.simplex_kernel(A, b, -cost if maximize else cost, tol, max_iter)
    return LPResult(value=_checked_value(status, x, cost, A, b, max_iter), x=x)
