"""Two-phase dense simplex kernel with Bland's anti-cycling rule.

This is the one hot loop in the package: the heat-flow oracle solves
thousands of small LPs over the Gibbs-stochastic polytope, and interpreter
overhead dominates at tableau sizes of a few hundred cells.

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


def simplex_kernel(A, b, c, tol, max_iter):
    m, n = A.shape
    width = n + m + 1
    rhs = width - 1
    T = np.zeros((m + 1, width))
    for i in range(m):
        flip = -1.0 if b[i] < 0.0 else 1.0
        for j in range(n):
            T[i, j] = flip * A[i, j]
        T[i, rhs] = flip * b[i]
        T[i, n + i] = 1.0
    # phase-1 reduced costs: minimize the artificial total
    for j in range(n):
        s = 0.0
        for i in range(m):
            s += T[i, j]
        T[m, j] = -s
    s = 0.0
    for i in range(m):
        s += T[i, rhs]
    T[m, rhs] = -s

    basis = np.empty(m, np.int64)
    for i in range(m):
        basis[i] = n + i
    x = np.zeros(n)

    for phase in range(2):
        iters = 0
        while True:
            if iters >= max_iter:
                return ITERATION_LIMIT, x
            # Bland: entering = lowest structural index with negative cost
            enter = -1
            for j in range(n):
                if T[m, j] < -tol:
                    enter = j
                    break
            if enter == -1:
                break
            leave = -1
            best = np.inf
            for i in range(m):
                a = T[i, enter]
                if a > tol:
                    r = T[i, rhs] / a
                    if leave == -1 or r < best - _TIE_BAND:
                        best = r
                        leave = i
                    elif r < best + _TIE_BAND and basis[i] < basis[leave]:
                        leave = i
            if leave == -1:
                # a feasible phase-1 objective is bounded below by zero
                return (INFEASIBLE, x) if phase == 0 else (UNBOUNDED, x)
            piv = T[leave, enter]
            T[leave, :] = T[leave, :] / piv
            for i in range(m + 1):
                if i != leave:
                    f = T[i, enter]
                    if f != 0.0:
                        T[i, :] = T[i, :] - f * T[leave, :]
            basis[leave] = enter
            iters += 1

        if phase == 1:
            break
        if -T[m, rhs] > _PHASE1_GAP:
            return INFEASIBLE, x
        # pivot leftover artificials out; an all-zero structural row is a
        # redundant constraint and its artificial stays basic at level zero
        for i in range(m):
            if basis[i] >= n:
                enter = -1
                for j in range(n):
                    if T[i, j] > tol or T[i, j] < -tol:
                        enter = j
                        break
                if enter >= 0:
                    piv = T[i, enter]
                    T[i, :] = T[i, :] / piv
                    for i2 in range(m + 1):
                        if i2 != i:
                            f = T[i2, enter]
                            if f != 0.0:
                                T[i2, :] = T[i2, :] - f * T[i, :]
                    basis[i] = enter
        # install the phase-2 objective row
        for j in range(width):
            T[m, j] = 0.0
        for j in range(n):
            T[m, j] = c[j]
        for i in range(m):
            if basis[i] < n:
                cb = c[basis[i]]
                if cb != 0.0:
                    T[m, :] = T[m, :] - cb * T[i, :]
        for j in range(n, rhs):
            T[m, j] = 0.0

    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, rhs]
    return OPTIMAL, x

