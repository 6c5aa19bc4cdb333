"""Two-phase dense simplex kernel with Bland's anti-cycling rule.

`simplex_kernel` solves the reference LP over the Gibbs-stochastic polytope
(`oracle.GibbsStochasticLP`) that the heat-sign oracle's vertex path is
checked against; interpreter overhead dominates at tableau sizes of a few
hundred cells.

Solves   min c @ x   s.t.  A @ x = b,  x >= 0
and returns a vertex optimum.  Status codes: 0 optimal, 1 infeasible,
2 unbounded, 3 iteration limit.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
ITERATION_LIMIT = 3

# phase-1 artificials above this total mean no feasible point
_PHASE1_GAP = 1e-8
# ratio-test ties within this band fall back to Bland's smallest-basis rule
_TIE_BAND = 1e-12


def _tableau(A, b):
    """Phase-1 tableau (m + 1, n + m + 1) of A (m, n) and b (m,).

    Rows with b < 0 are negated, each row gets its artificial column, and
    the last row holds the reduced costs of the artificial total, summed
    row by row from +0.0.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    flip = np.where(b < 0.0, -1.0, 1.0)
    T[:m, :n] = flip[:, None] * A
    T[:m, -1] = flip * b
    T[np.arange(m), n + np.arange(m)] = 1.0
    s = np.zeros(n + m + 1)
    for i in range(m):
        s = s + T[i]
    T[m, :n] = -s[:n]
    T[m, -1] = -s[-1]
    return T


def _leaving_row(col, rhs, basis, tol):
    """Ratio test over Python floats: the row with the smallest rhs/col
    among col > tol, compared against the running minimum, with ties
    within _TIE_BAND going to the lowest basis index (Bland); -1 if none."""
    leave = -1
    best = np.inf
    for i, a in enumerate(col):
        if a > tol:
            r = rhs[i] / a
            if leave == -1 or r < best - _TIE_BAND:
                best = r
                leave = i
            elif r < best + _TIE_BAND and basis[i] < basis[leave]:
                leave = i
    return leave


def _eliminate(T, f, prow):
    """Rank-1 elimination T <- T - f (x) prow on the rows with f != 0.

    The caller has already put the divided pivot row in place and zeroed f
    there.  Rows with f = 0 are left alone, so even the sign of a zero is
    that of a row-by-row elimination.
    """
    np.copyto(T, T - f[:, None] * prow[None, :], where=(f != 0.0)[:, None])


def _pivot(T, leave, enter):
    """Pivot the tableau T on (leave, enter) in place."""
    T[leave] = T[leave] / T[leave, enter]
    f = T[:, enter].copy()
    f[leave] = 0.0
    _eliminate(T, f, T[leave])


def simplex_kernel(A, b, c, tol, max_iter):
    """Solve one LP: A (m, n), b (m,), c (n,); returns (status, x (n,))."""
    m, n = A.shape
    T = _tableau(A, b)
    basis = list(range(n, n + m))
    x = np.zeros(n)

    for phase in range(2):
        iters = 0
        while True:
            if iters >= max_iter:
                return ITERATION_LIMIT, x
            # Bland: entering = lowest structural index with negative cost
            enter = -1
            for j, v in enumerate(T[m, :n].tolist()):
                if v < -tol:
                    enter = j
                    break
            if enter == -1:
                break
            leave = _leaving_row(T[:m, enter].tolist(), T[:m, -1].tolist(), basis, tol)
            if leave == -1:
                # a feasible phase-1 objective is bounded below by zero
                return (INFEASIBLE, x) if phase == 0 else (UNBOUNDED, x)
            _pivot(T, leave, enter)
            basis[leave] = enter
            iters += 1

        if phase == 1:
            break
        if -T[m, -1] > _PHASE1_GAP:
            return INFEASIBLE, x
        # pivot leftover artificials out; an all-zero structural row is a
        # redundant constraint and its artificial stays basic at level zero
        for i in range(m):
            if basis[i] >= n:
                nonzero = np.flatnonzero(np.abs(T[i, :n]) > tol)
                if nonzero.size:
                    _pivot(T, i, nonzero[0])
                    basis[i] = int(nonzero[0])
        # install the phase-2 objective row
        T[m] = 0.0
        T[m, :n] = c
        for i in range(m):
            if basis[i] < n:
                cb = c[basis[i]]
                if cb != 0.0:
                    T[m] = T[m] - cb * T[i]
        T[m, n:-1] = 0.0

    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    return OPTIMAL, x
