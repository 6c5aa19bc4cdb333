"""The simplex kernel against a loop reference.

`loop_kernel` below is the entry-by-entry form of `simplex_kernel`, kept as
the reference for its rank-1 elimination: both make the same pivot choices
with the same arithmetic, so they are compared bit for bit, sign bits of
zeros included.
"""

import numpy as np
import pytest

from conftest import random_energies
from efftemp import _kernels
from efftemp._kernels import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    simplex_kernel,
)
from efftemp.oracle import GibbsStochasticLP
from efftemp.thermal import gibbs_populations

TOL = 1e-10
MAX_ITER = 20000


def loop_kernel(A, b, c, tol, max_iter):
    """The two-phase Bland simplex written entry by entry."""
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
                    if leave == -1 or r < best - _kernels._TIE_BAND:
                        best = r
                        leave = i
                    elif r < best + _kernels._TIE_BAND and basis[i] < basis[leave]:
                        leave = i
            if leave == -1:
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
        if -T[m, rhs] > _kernels._PHASE1_GAP:
            return INFEASIBLE, x
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


KINDS = ("generic", "degenerate-ladder", "empty-level", "gibbs-at-bath", "bath-zero", "uniform")


def gibbs_lps(dim, count, seed):
    """(A, b, c) of heat-sign LPs at one dimension, both directions, over
    the six input kinds in turn."""
    rng = np.random.default_rng(seed)
    lps = []
    for t in range(count):
        kind = KINDS[t % len(KINDS)]
        e = random_energies(rng, dim)
        p = rng.dirichlet(np.ones(dim))
        beta = float(rng.uniform(-3.0, 3.0))
        if kind == "degenerate-ladder":
            e = np.repeat(np.arange((dim + 1) // 2), 2)[:dim] * rng.uniform(0.3, 1.2)
        elif kind == "empty-level" and dim > 1:
            p[rng.integers(dim)] = 0.0
            p /= p.sum()
        elif kind == "gibbs-at-bath":
            p = gibbs_populations(e, beta)
        elif kind == "bath-zero":
            beta = 0.0
        elif kind == "uniform":
            p = np.ones(dim) / dim
        lp = GibbsStochasticLP(p, e, beta)
        lps += [(lp.a_eq, lp.b_eq, -lp.cost), (lp.a_eq, lp.b_eq, lp.cost)]
    return lps


def assert_same(one, status, x):
    assert one[0] == status
    assert one[1].tobytes() == x.tobytes()


class TestOneLPKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_the_loop_reference_bit_for_bit(self, dim):
        for A, b, c in gibbs_lps(dim, 60, seed=600 + dim):
            status, x = simplex_kernel(A, b, c, TOL, MAX_ITER)
            assert_same(loop_kernel(A, b, c, TOL, MAX_ITER), status, x)

    def test_matches_the_loop_reference_on_signed_and_capped_inputs(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            A = rng.integers(-2, 3, (3, 4)).astype(float)
            b = rng.integers(-2, 3, 3).astype(float)
            c = rng.integers(-2, 3, 4).astype(float)
            for max_iter in (0, 1, 2, MAX_ITER):
                status, x = simplex_kernel(A, b, c, TOL, max_iter)
                assert_same(loop_kernel(A, b, c, TOL, max_iter), status, x)

    def test_running_minimum_ratio_test(self):
        # entering column 0 (all ones) gives the ratios b.  Row 1 is within
        # the tie band of the smallest ratio (row 2) but not of the running
        # minimum (row 0) when it is scanned, and row 2 undercuts row 0 by
        # more than the band: the running minimum leaves at row 2, while a
        # global minimum with band ties would pick row 1 (lower basis index).
        b = np.array([1.0 + 1.5e-12, 1.0 + 0.6e-12, 1.0])
        A = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        c = np.array([1.0, 0.0, 0.0, 0.0])
        assert _kernels._leaving_row([1.0, 1.0, 1.0], b.tolist(), [4, 5, 6], TOL) == 2
        assert_same(loop_kernel(A, b, c, TOL, MAX_ITER), *simplex_kernel(A, b, c, TOL, MAX_ITER))

    def test_ratio_one_band_above_the_minimum(self):
        # 1 + 1e-12 rounds to a float whose difference with the band rounds
        # back to 1: the smaller ratio of row 1 does not undercut row 0 by
        # the band, and its basis index is higher, so row 0 stays
        col, rhs, basis = [1.0, 1.0], [1.0 + 1e-12, 1.0], [4, 5]
        assert (rhs[0] - _kernels._TIE_BAND) == rhs[1]
        assert _kernels._leaving_row(col, rhs, basis, TOL) == 0
        # reversed, row 1 sits exactly at 1 + band: no tie, row 0 stays too
        assert _kernels._leaving_row(col, rhs[::-1], basis, TOL) == 0

    def test_each_status_matches_the_loop_reference(self):
        # max_iter 3: optimal, infeasible, unbounded, out of iterations
        A = np.array([
            [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
            [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
            [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
            [[-1.0, 1.0, 2.0], [0.0, 0.0, 1.0]],
            [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        ])
        b = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        c = np.array([[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-2.0, 2.0, 0.0],
                      [0.0, 0.0, 1.0]])
        capped = [simplex_kernel(A[k], b[k], c[k], TOL, 3) for k in range(5)]
        assert [status for status, _ in capped] == [
            OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT, OPTIMAL
        ]
        assert capped[0][1].tolist() == [0.5, 0.5, 0.0]
        for k in range(5):
            assert_same(loop_kernel(A[k], b[k], c[k], TOL, 3), *capped[k])
        # with room to finish, the capped LP solves
        full = [simplex_kernel(A[k], b[k], c[k], TOL, MAX_ITER) for k in range(5)]
        assert [status for status, _ in full] == [OPTIMAL, INFEASIBLE, UNBOUNDED, OPTIMAL, OPTIMAL]
        for k in range(5):
            assert_same(loop_kernel(A[k], b[k], c[k], TOL, MAX_ITER), *full[k])

    def test_phase_one_gap_and_redundant_rows(self):
        # an infeasible LP caught at the phase-1 exit, not by the ratio test,
        # and an LP with a redundant row whose artificial stays basic
        A = np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]]])
        b = np.array([[1.0, 2.0], [1.0, 2.0]])
        c = np.array([-1.0, 0.0])
        for k, want in enumerate([INFEASIBLE, OPTIMAL]):
            status, x = simplex_kernel(A[k], b[k], c, TOL, MAX_ITER)
            assert status == want
            assert_same(loop_kernel(A[k], b[k], c, TOL, MAX_ITER), status, x)
