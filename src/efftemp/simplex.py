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


def _lp_arrays(c, a_eq, b_eq, stacked: bool):
    """c, A_eq and b_eq as float arrays, checked for shape and finiteness.

    Unstacked: c (n,), A_eq (m, n), b_eq (m,).  Stacked: one more leading
    axis of B members on each.
    """
    cost = np.asarray(c, dtype=float)
    A = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    if not stacked:
        cost, A, b = np.atleast_1d(cost), np.atleast_2d(A), np.atleast_1d(b)
    if cost.ndim != 1 + stacked or cost.shape[-1] == 0:
        raise ValidationError("objective vector must be 1-d and non-empty")
    n = cost.shape[-1]
    if A.shape != b.shape + (n,) or cost.shape[:-1] != b.shape[:-1]:
        raise ValidationError(f"A_eq shape {A.shape} incompatible with n={n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(cost))):
        raise ValidationError("LP data must be finite")
    return cost, A, b


def _checked_values(status, x, cost, A, b, max_iter):
    """Objective values cost @ x of a stack of kernel results.

    Raises, for the first member that fails, InfeasibleProblem,
    UnboundedProblem, or SolverError when the iteration cap was hit or the
    vertex misses A x = b or x >= 0 by more than FEASIBILITY_TOL.
    """
    failed = np.flatnonzero(status != _kernels.OPTIMAL)
    if failed.size:
        code = status[failed[0]]
        if code == _kernels.INFEASIBLE:
            raise InfeasibleProblem("no feasible point satisfies the constraints")
        if code == _kernels.UNBOUNDED:
            raise UnboundedProblem("objective is unbounded over the feasible region")
        raise SolverError(f"simplex iteration cap {max_iter} reached")
    residual = np.abs(np.matmul(A, x[:, :, None])[:, :, 0] - b).max(axis=1)
    bad = np.flatnonzero((residual > FEASIBILITY_TOL) | (x.min(axis=1) < -FEASIBILITY_TOL))
    if bad.size:
        raise SolverError(f"vertex failed feasibility check: residual {residual[bad[0]]:.3e}")
    return np.matmul(cost[:, None, :], x[:, :, None])[:, 0, 0]


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
    cost, A, b = _lp_arrays(c, a_eq, b_eq, stacked=False)
    status, x = _kernels.simplex_kernel(A, b, -cost if maximize else cost, tol, max_iter)
    value = _checked_values(np.array([status]), x[None], cost[None], A[None], b[None], max_iter)
    return LPResult(value=float(value[0]), x=x)


def solve_lps(
    c,
    a_eq,
    b_eq,
    maximize=False,
    tol: float = DEFAULT_PIVOT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """`solve_lp` over a stack of B LPs of one shape, in one kernel call.

    c is (B, n), a_eq (B, m, n) and b_eq (B, m); maximize is one flag or
    one per member.  Returns the values (B,) and vertices (B, n), each bit
    for bit what `solve_lp` returns for that member, and raises what
    `solve_lp` raises if any member fails.
    """
    cost, A, b = _lp_arrays(c, a_eq, b_eq, stacked=True)
    signed = np.where(np.asarray(maximize)[..., None], -cost, cost)
    status, x = _kernels.simplex_kernels(A, b, signed, tol, max_iter)
    return _checked_values(status, x, cost, A, b, max_iter), x
