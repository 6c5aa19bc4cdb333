"""Two-phase dense simplex kernels with Bland's anti-cycling rule.

This is the one hot loop in the package: the heat-flow oracle solves
thousands of small LPs over the Gibbs-stochastic polytope, and interpreter
overhead dominates at tableau sizes of a few hundred cells.

Solves   min c @ x   s.t.  A @ x = b,  x >= 0
and returns a vertex optimum.  Status codes: 0 optimal, 1 infeasible,
2 unbounded, 3 iteration limit.

`simplex_kernel` solves one LP.  `simplex_kernels` solves a stack of LPs of
one shape in lockstep, one pivot per member per step; it makes the same
pivot choices and the same arithmetic, element by element, as solving each
member alone, so both return the same vertex to the bit.
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
# sort key, above any row or basis index, of the rows off a stack's minimum ratio
_NOT_AT_MIN = np.iinfo(np.int64).max


def _tableaux(A, b):
    """Phase-1 tableaux (B, m + 1, n + m + 1) of a (B, m, n) stack.

    Rows with b < 0 are negated, each row gets its artificial column, and
    the last row holds the reduced costs of the artificial total, summed
    row by row from +0.0.
    """
    B, m, n = A.shape
    T = np.zeros((B, m + 1, n + m + 1))
    flip = np.where(b < 0.0, -1.0, 1.0)
    T[:, :m, :n] = flip[:, :, None] * A
    T[:, :m, -1] = flip * b
    T[:, np.arange(m), n + np.arange(m)] = 1.0
    s = np.zeros((B, n + m + 1))
    for i in range(m):
        s = s + T[:, i]
    T[:, m, :n] = -s[:, :n]
    T[:, m, -1] = -s[:, -1]
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

    T is one tableau (m + 1, w) or a stack (B, m + 1, w), with f and prow
    to match.  The caller has already put the divided pivot row in place
    and zeroed f there.  Rows with f = 0 are left alone, so even the sign
    of a zero is that of a row-by-row elimination.
    """
    np.copyto(T, T - f[..., :, None] * prow[..., None, :], where=(f != 0.0)[..., :, None])


def _pivot(T, leave, enter):
    """Pivot the tableau T on (leave, enter) in place."""
    T[leave] = T[leave] / T[leave, enter]
    f = T[:, enter].copy()
    f[leave] = 0.0
    _eliminate(T, f, T[leave])


def simplex_kernel(A, b, c, tol, max_iter):
    """Solve one LP: A (m, n), b (m,), c (n,); returns (status, x (n,))."""
    m, n = A.shape
    T = _tableaux(A[None], b[None])[0]
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


def _leaving_rows(W, basis, enter, tol):
    """`_leaving_row` for every member of a stack at once.

    Let rmin be a member's smallest ratio.  When every other ratio is clear
    of rmin by more than _TIE_BAND, the running minimum takes the first row
    at rmin whatever comes before it, and later rows at exactly rmin tie
    with it, so the row at rmin with the lowest basis index leaves (the
    first such row when rmin + _TIE_BAND rounds to rmin).  A member with a
    near tie is scanned by `_leaving_row` itself.
    """
    m = basis.shape[1]
    col = W[np.arange(W.shape[0]), :m, enter]
    rhs = W[:, :m, -1]
    valid = col > tol
    r = np.divide(rhs, col, out=np.full(col.shape, np.inf), where=valid)
    rmin = r.min(axis=1)
    at_min = valid & (r == rmin[:, None])
    second = np.where(at_min, np.inf, r).min(axis=1)
    clear = (second - _TIE_BAND > rmin) & (second >= rmin + _TIE_BAND)
    ties = (rmin < rmin + _TIE_BAND)[:, None]
    key = np.where(at_min, np.where(ties, basis, np.arange(m)), _NOT_AT_MIN)
    some = valid.any(axis=1)
    leave = np.where(some, key.argmin(axis=1), -1)
    for j in np.flatnonzero(some & ~clear).tolist():
        leave[j] = _leaving_row(col[j].tolist(), rhs[j].tolist(), basis[j].tolist(), tol)
    return leave


def _pivots(W, leave, enter):
    """Pivot member k of the stack W on (leave[k], enter[k]), in place."""
    k = np.arange(W.shape[0])
    prow = W[k, leave] / W[k, leave, enter][:, None]
    W[k, leave] = prow
    f = W[k, :, enter]
    f[k, leave] = 0.0
    _eliminate(W, f, prow)


def _lockstep(T, basis, live, status, phase, tol, max_iter):
    """Run one phase on the members `live` of the stack T, one pivot each
    per step.  A member leaves when it has no entering column, and its
    tableau and basis are written back to T and basis; one with no leaving
    row or out of iterations gets its status.  Returns the members that
    finished the phase."""
    m = basis.shape[1]
    n = T.shape[2] - m - 1
    W = T[live]
    Wb = basis[live]
    finished = []
    iters = 0
    while live.size:
        if iters >= max_iter:
            status[live] = ITERATION_LIMIT
            break
        # Bland: entering = lowest structural index with negative cost
        neg = W[:, m, :n] < -tol
        enter = neg.argmax(axis=1)
        optimal = ~neg.any(axis=1)
        if optimal.any():
            T[live[optimal]] = W[optimal]
            basis[live[optimal]] = Wb[optimal]
            finished.append(live[optimal])
            keep = ~optimal
            live, W, Wb, enter = live[keep], W[keep], Wb[keep], enter[keep]
            if not live.size:
                break
        leave = _leaving_rows(W, Wb, enter, tol)
        stuck = leave == -1
        if stuck.any():
            # a feasible phase-1 objective is bounded below by zero
            status[live[stuck]] = UNBOUNDED if phase else INFEASIBLE
            keep = ~stuck
            live, W, Wb, enter, leave = live[keep], W[keep], Wb[keep], enter[keep], leave[keep]
            if not live.size:
                break
        _pivots(W, leave, enter)
        Wb[np.arange(live.size), leave] = enter
        iters += 1
    return np.concatenate(finished) if finished else live[:0]


def simplex_kernels(A, b, c, tol, max_iter):
    """`simplex_kernel` over a (B, m, n) stack, with b (B, m) and c (B, n).

    Returns (status (B,), x (B, n)); a member that is infeasible, unbounded
    or out of iterations gets that status and a zero x, as when solved
    alone.  Members pivot in lockstep within each phase, and the phase-1
    exit runs once for the stack.
    """
    B, m, n = A.shape
    T = _tableaux(A, b)
    basis = np.tile(np.arange(n, n + m), (B, 1))
    status = np.full(B, OPTIMAL)
    live = _lockstep(T, basis, np.arange(B), status, 0, tol, max_iter)

    gap = -T[live, m, -1] > _PHASE1_GAP
    status[live[gap]] = INFEASIBLE
    live = live[~gap]
    W = T[live]
    Wb = basis[live]
    # pivot leftover artificials out; an all-zero structural row is a
    # redundant constraint and its artificial stays basic at level zero
    for i in range(m):
        nonzero = np.abs(W[:, i, :n]) > tol
        sel = np.flatnonzero((Wb[:, i] >= n) & nonzero.any(axis=1))
        if sel.size:
            enter = nonzero[sel].argmax(axis=1)
            sub = W[sel]
            _pivots(sub, np.full(sel.size, i), enter)
            W[sel] = sub
            Wb[sel, i] = enter
    # install the phase-2 objective row
    k = np.arange(live.size)
    cost = c[live]
    W[:, m] = 0.0
    W[:, m, :n] = cost
    for i in range(m):
        cb = np.where(Wb[:, i] < n, cost[k, np.minimum(Wb[:, i], n - 1)], 0.0)
        np.copyto(W[:, m], W[:, m] - cb[:, None] * W[:, i], where=(cb != 0.0)[:, None])
    W[:, m, n:-1] = 0.0
    T[live] = W
    basis[live] = Wb

    live = _lockstep(T, basis, live, status, 1, tol, max_iter)
    x = np.zeros((B, n))
    member, row = np.nonzero(basis[live] < n)
    member = live[member]
    x[member, basis[member, row]] = T[member, row, -1]
    return status, x
