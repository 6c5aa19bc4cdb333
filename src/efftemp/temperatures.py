"""Effective cold/hot inverse temperatures of a quantum state.

Every pair of energy levels with distinct energies carries an inverse
virtual temperature

    beta_ij = log(p_i / p_j) / (e_j - e_i),

where the p_i are the populations of the dephased state.  The hotness order
is total in beta: smaller beta is hotter, and negative beta is hotter than
every positive beta.  A state is coldest across its largest beta_ij and
hottest across its smallest, which gives the single-copy pair

    beta_c = max_ij beta_ij,      beta_h = min_ij beta_ij.

Heat-per-copy constrained (asymptotic) temperatures follow from entropy
differences of mean-energy-matched Gibbs states; those pairs depend on the
full spectrum of the state, coherences included, and at finite heat delta the
cold value drops below the hot one (the usable temperature window shrinks).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SolverError, ValidationError
from .thermal import GibbsSolveResult, QuantumSystem, gibbs_by_energy

ZERO_POPULATION = 1e-15
# cap on the multisets of levels a tensor-power query enumerates
TENSOR_POWER_CAP = 10**6
# relative tolerance for clustering sums of energies in tensor powers
_GROUP_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class VirtualTempSpectrum:
    """All pairwise inverse virtual temperatures of a state, as three columns.

    Entry k is the pair (low[k], high[k]) of levels with e_low < e_high and
    its beta_ij = beta[k], one per unordered pair of levels with distinct
    energies in row-major order; beta_ji = beta_ij.  `low` and `high` are
    int64 arrays and `beta` a float64 array.  Pairs whose two populations
    both vanish are omitted, and a single vanishing population is recorded
    as +inf (empty upper level) or -inf (empty lower level).
    """

    low: np.ndarray
    high: np.ndarray
    beta: np.ndarray


def _has_nan(beta) -> bool:
    # a float, the usual case, skips numpy's per-call overhead (about 2 us)
    return np.isnan(beta).any() if isinstance(beta, np.ndarray) else math.isnan(beta)


@dataclass(frozen=True)
class EffectiveTempPair:
    """A (beta_c, beta_h) pair on the extended real line.

    For spectrum-derived pairs beta_h <= beta_c by construction.  Heat-
    constrained pairs may order the other way once the minimum transferred
    heat is finite, so no ordering is enforced here.  The pairs of a stack
    of states hold two arrays of one shape.
    """

    beta_c: float
    beta_h: float

    def __post_init__(self):
        if _has_nan(self.beta_c) or _has_nan(self.beta_h):
            raise ValidationError("effective temperatures must not be NaN")


@dataclass(frozen=True)
class AsymptoticRequest:
    """A system together with the heat per copy, delta > 0, in energy units."""

    system: QuantumSystem
    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise ValidationError(f"delta must be positive and finite, got {self.delta}")


def _clean_populations(p: np.ndarray) -> np.ndarray:
    """Treat populations at or below the zero threshold as exact zeros."""
    return np.where(p <= ZERO_POPULATION, 0.0, p)


def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the pairs i < j in row-major order."""
    levels = np.arange(d)
    return np.nonzero(levels[:, None] < levels)


def _pair_table(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low, high, gap) of the level pairs i < j of an ascending (..., d) ladder, row-major.

    The one enumeration of level pairs: `gap` is (..., pairs), NaN where the
    pair is degenerate, its gap at or below `linalg.energy_equal_tol`.
    """
    low, high = _upper_pairs(e.shape[-1])
    gap = e[..., high] - e[..., low]
    distinct = gap > linalg.energy_equal_tol(e)[..., None]
    return low, high, np.where(distinct, gap, np.nan)


def _pair_betas(p: np.ndarray, low: np.ndarray, high: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """log(p_i / p_j) / (e_j - e_i) of the pairs (low, high) along the last axis of p.

    The one evaluation of the virtual temperatures.  An empty upper (lower)
    level gives +inf (-inf); two empty levels, or a degenerate pair's NaN
    gap, give NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(p[..., low] / p[..., high]) / gap


def virtual_spectrum(system: QuantumSystem) -> VirtualTempSpectrum:
    """Virtual temperature spectrum of the dephased state.

    Coherences never enter: the populations are read from the dephased state
    in the energy eigenbasis.  Degenerate pairs (equal energies) carry no
    virtual temperature and are excluded, as are pairs of two empty levels.
    Every entry comes from `_pair_betas`, as in `extremal_pairs`.
    """
    low, high, gap = _pair_table(system.energies)
    beta = _pair_betas(_clean_populations(system.populations), low, high, gap)
    kept = ~np.isnan(beta)
    return VirtualTempSpectrum(low=low[kept], high=high[kept], beta=beta[kept])


# byte budget of one chunk of rows in extremal_pairs, which holds at most
# three float64 (rows, pairs) arrays at once over every i < j pair,
# degenerate ones included: the two gathered population columns and their
# quotient
PAIR_CHUNK_BYTES = 1 << 19


def extremal_pairs(energies: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """(beta_c, beta_h) of every row of an (S, d) stack of populations.

    `energies` is one (d,) ladder shared by every row or an (S, d) stack of
    ladders, one per row.  Returns an (S, 2) array equal bit for bit to the
    max and min of the `virtual_spectrum` entries of each row: both take
    their entries from `_pair_betas`, and fmax/fmin skip the NaN of a
    degenerate pair or of two empty levels as the spectrum omits those
    pairs.  Rows are processed in chunks of about PAIR_CHUNK_BYTES.

    Unchecked: `energies` must be ascending, each row a valid state's diagonal.
    """
    e = np.asarray(energies, dtype=float)
    p = _clean_populations(np.asarray(populations, dtype=float))
    low, high, gap = _pair_table(e)
    # a shared ladder's gaps become a stride-0 view, not an (S, pairs) array
    gap = np.broadcast_to(gap, (p.shape[0], low.size))
    out = np.empty((p.shape[0], 2))
    per_chunk = max(1, PAIR_CHUNK_BYTES // (3 * 8 * max(1, low.size)))
    for start in range(0, p.shape[0], per_chunk):
        stop = start + per_chunk
        beta = _pair_betas(p[start:stop], low, high, gap[start:stop])
        out[start:stop, 0] = np.fmax.reduce(beta, axis=1, initial=np.nan)
        out[start:stop, 1] = np.fmin.reduce(beta, axis=1, initial=np.nan)
    # a row without a pair of distinct energies, d = 1 included, is all NaN
    if np.isnan(out).any():
        raise ValidationError(
            "effective temperatures are undefined: all energy levels are degenerate"
        )
    return out


def single_copy_effective(system: QuantumSystem) -> EffectiveTempPair:
    """Extremal inverse virtual temperatures (beta_c = max, beta_h = min) of a validated state."""
    beta_c, beta_h = extremal_pairs(system.energies, system.populations[None, :])[0]
    return EffectiveTempPair(beta_c=float(beta_c), beta_h=float(beta_h))


def _multiset_rows(system: QuantumSystem, copies: int):
    """Yield (energy sums, log-population sums, group tol) of n = 1..copies copies.

    The spectrum of A^n pairs product populations with summed energies; both
    depend only on the multiset of chosen levels, and the multisets of n
    levels are those of n - 1 levels each extended by a level at or above
    its last, so each row grows from the one before without materializing
    the d**n-dimensional state.
    """
    if copies < 1:
        raise ValidationError(f"copy count must be >= 1, got {copies}")
    d = system.dim
    multisets = math.comb(copies + d - 1, d - 1)  # the largest row's
    if multisets > TENSOR_POWER_CAP:
        raise ValidationError(
            f"{multisets} multisets of {copies} copies of {d} levels exceed the "
            f"tensor-power cap {TENSOR_POWER_CAP}"
        )
    e = system.energies
    p = _clean_populations(system.populations)
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf)
    levels = np.arange(d)
    # energy sum, log-population sum and last level of each multiset of a row;
    # each sum starts at 0.0 and adds its levels in ascending order
    esum, lsum, last = np.zeros(1), np.zeros(1), np.zeros(1, dtype=int)
    for n in range(1, copies + 1):
        rows, last = np.nonzero(last[:, None] <= levels)
        esum = esum[rows] + e[last]
        lsum = lsum[rows] + logp[last]
        yield esum, lsum, _GROUP_RTOL * max(1.0, n * float(np.abs(e).max()))


def _row_extremes(esum: np.ndarray, lsum: np.ndarray, tol: float) -> tuple[float, float]:
    """(beta_c, beta_h) of one row of `_multiset_rows`.

    The multisets fall into energy groups of width tol, and the pairs of
    groups play the part of the level pairs of one copy.
    """
    order = np.argsort(esum, kind="stable")
    energies, logs = esum[order], lsum[order]
    # a group starts at the first sum more than tol above the group's
    # first; a sum equal to the one before it never starts one
    distinct = np.flatnonzero(np.diff(energies, prepend=-math.inf))
    starts, first = [], -math.inf
    for k, s in zip(distinct.tolist(), energies[distinct].tolist()):
        if s - first > tol:
            starts.append(k)
            first = s
    if len(starts) < 2:
        raise ValidationError(
            "effective temperatures are undefined: all energy levels are degenerate"
        )
    # each group's extremal log-populations over its populated multisets
    empty = logs == -math.inf
    top = np.maximum.reduceat(logs, starts)
    bottom = np.minimum.reduceat(np.where(empty, math.inf, logs), starts)
    has_zero = np.logical_or.reduceat(empty, starts)
    low, high = _upper_pairs(len(starts))
    gap = energies[starts][high] - energies[starts][low]
    populated = top > -math.inf
    both = populated[low] & populated[high]
    # without a pair of populated groups the starting -inf/+inf stand; a
    # populated group below (above) one with an empty multiset makes
    # beta_c = +inf (beta_h = -inf)
    beta_c = np.max((top[low] - bottom[high])[both] / gap[both], initial=-math.inf)
    beta_h = np.min((bottom[low] - top[high])[both] / gap[both], initial=math.inf)
    if (populated[low] & has_zero[high]).any():
        beta_c = math.inf
    if (has_zero[low] & populated[high]).any():
        beta_h = -math.inf
    return float(beta_c), float(beta_h)


def tensor_power_pairs(system: QuantumSystem, copies: int) -> np.ndarray:
    """(beta_c, beta_h) of n = 1..copies copies processed collectively, one row per n."""
    return np.array([_row_extremes(*row) for row in _multiset_rows(system, copies)])


def tensor_power_effective(system: QuantumSystem, n: int) -> EffectiveTempPair:
    """Effective temperatures of n copies processed collectively: the table's row n alone."""
    beta_c, beta_h = _row_extremes(*deque(_multiset_rows(system, n), maxlen=1)[0])
    return EffectiveTempPair(beta_c=beta_c, beta_h=beta_h)


@dataclass(frozen=True)
class AsymptoticPair(EffectiveTempPair):
    """Asymptotic temperatures with the Gibbs solves at E + delta and E - delta."""

    cold: GibbsSolveResult
    hot: GibbsSolveResult


@dataclass(frozen=True)
class ExpansionPair(EffectiveTempPair):
    """Small-delta expansion with the Gibbs solve matching the mean energy E."""

    matched: GibbsSolveResult


def _branch_solve(request: AsymptoticRequest, sign: float, s_rho: float):
    """(beta, Gibbs solve) of one asymptotic branch, given S(rho).

    sign = +1 is the cold branch, [S(gibbs(E + delta)) - S(rho)] / delta, and
    sign = -1 the hot one, [S(rho) - S(gibbs(E - delta))] / delta.  S(rho) is
    the full von Neumann entropy, so coherences matter here.  The shifted
    mean energy must stay strictly inside the spectrum; otherwise a
    BracketError propagates from the Gibbs inversion.
    """
    system, delta = request.system, request.delta
    solve = gibbs_by_energy(system.energies, system.mean_energy + sign * delta)
    return sign * (solve.entropy - s_rho) / delta, solve


def asymptotic_effective(request: AsymptoticRequest) -> AsymptoticPair:
    """Both asymptotic branches; requires E +/- delta inside the spectrum."""
    s_rho = request.system.entropy
    beta_c, cold = _branch_solve(request, 1.0, s_rho)
    beta_h, hot = _branch_solve(request, -1.0, s_rho)
    return AsymptoticPair(beta_c=beta_c, beta_h=beta_h, cold=cold, hot=hot)


def expansion_effective(request: AsymptoticRequest) -> ExpansionPair:
    """Small-delta expansion of the asymptotic temperatures.

        beta_c ~  dS/delta + beta*(E) - delta / (2 Var)
        beta_h ~ -dS/delta + beta*(E) + delta / (2 Var)

    with dS = S(gibbs(E)) - S(rho) and Var the energy variance of gibbs(E).
    The hot branch is the cold expansion evaluated at -delta, which flips the
    variance term; the remaining error is O(delta^2) on both branches.
    """
    system, delta = request.system, request.delta
    solve = gibbs_by_energy(system.energies, system.mean_energy)
    var = solve.energy_variance
    if var <= 0.0:
        raise SolverError("energy variance of the matched Gibbs state vanishes")
    # the Gibbs state is the entropy maximizer at fixed mean energy; clamp
    # float noise so the leading term keeps its sign
    ds = max(0.0, solve.entropy - system.entropy)
    curvature = delta / (2.0 * var)
    return ExpansionPair(
        beta_c=ds / delta + solve.beta - curvature,
        beta_h=-ds / delta + solve.beta + curvature,
        matched=solve,
    )


def hotter_than(beta_1, beta_2):
    """True where the first inverse temperature is strictly hotter.

    Hotness is strictly decreasing in beta across the whole extended real
    line: every negative beta is hotter than every positive one, and
    beta = -inf (+inf) is the hottest (coldest) point.  Scalars give a
    numpy bool, arrays a bool array, compared elementwise.
    """
    return np.less(beta_1, beta_2)
