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
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .linalg import SolverError, ValidationError
from .thermal import GibbsSolveResult, QuantumSystem, gibbs_by_energy

ZERO_POPULATION = 1e-15
# cap on the multisets of levels a tensor-power query enumerates
TENSOR_POWER_CAP = 10**6
# relative tolerance for clustering sums of energies in tensor powers
_GROUP_RTOL = 1e-9


@dataclass(frozen=True)
class VirtualTempSpectrum:
    """All pairwise inverse virtual temperatures of a state.

    Entries are (i, j, beta_ij) with e_i < e_j, one per unordered pair of
    levels with distinct energies; beta_ji = beta_ij.  Pairs whose two
    populations both vanish are omitted, and a single vanishing population
    is recorded as +inf (empty upper level) or -inf (empty lower level).
    """

    entries: tuple[tuple[int, int, float], ...]

    def betas(self) -> np.ndarray:
        return np.array([b for _, _, b in self.entries], dtype=float)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EffectiveTempPair:
    """A (beta_c, beta_h) pair on the extended real line.

    For spectrum-derived pairs beta_h <= beta_c by construction.  Heat-
    constrained pairs may order the other way once the minimum transferred
    heat is finite, so no ordering is enforced here.
    """

    beta_c: float
    beta_h: float

    def __post_init__(self):
        if math.isnan(self.beta_c) or math.isnan(self.beta_h):
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
    """(low, high, gap) of the level pairs with distinct energies, row-major.

    The one enumeration of level pairs: a pair counts when its gap exceeds
    `linalg.energy_equal_tol`, and `e` must be ascending.
    """
    low, high = _upper_pairs(e.size)
    gap = e[high] - e[low]
    distinct = gap > linalg.energy_equal_tol(e)
    return low[distinct], high[distinct], gap[distinct]


def _exact_betas(ratio: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """math.log(ratio) / gap entry by entry: the exact virtual temperatures."""
    return np.array(list(map(math.log, ratio.tolist())), dtype=float) / gap


def virtual_spectrum(system: QuantumSystem) -> VirtualTempSpectrum:
    """Virtual temperature spectrum of the dephased state.

    Coherences never enter: the populations are read from the dephased state
    in the energy eigenbasis.  Degenerate pairs (equal energies) carry no
    virtual temperature and are excluded.
    """
    p = _clean_populations(system.populations)
    low, high, gap = _pair_table(system.energies)
    # the quotient extremal_pairs screens: an empty upper (lower) level gives
    # inf (0), so beta = +inf (-inf); two empty levels give NaN, and are omitted
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p[low] / p[high]
    beta = np.where(ratio == 0.0, -math.inf, ratio)
    finite = np.isfinite(beta)
    beta[finite] = _exact_betas(ratio[finite], gap[finite])
    kept = ~np.isnan(beta)
    return VirtualTempSpectrum(
        entries=tuple(zip(low[kept].tolist(), high[kept].tolist(), beta[kept].tolist())))


# byte budget of one chunk of rows in extremal_pairs, which holds at most
# three float64 (rows, pairs) work arrays at once
PAIR_CHUNK_BYTES = 1 << 19
# Width of the log screen in extremal_pairs, in units of the spacing (ulp) of
# the screened extreme.  An entry's exact value is b1 = fl(L1 / gap) with
# L1 = math.log(r); the screen computes b2 = fl(L2 / gap) with L2 = np.log(r),
# from the same ratio r and the same gap.  glibc's log is within 1 ulp of
# log(r), and numpy's float64 log within 1 ulp by its accuracy tests (numpy
# 2.4 on x86-64 differs from math.log by one ulp on 0.01-0.2% of random
# inputs, never by more); allow 4.  An ulp is at most 2**-52 of the value, so
# |L1 - L2| <= 5 * 2**-52 |L|, and the two divisions add at most 2**-53 each:
# |b1 - b2| <= c |b| with c = 6 * 2**-52, and b1, b2 share their sign.  The
# entry that attains the exact maximum M1 then screens at >= M1 - c|M1|, and
# the screened maximum M2 <= M1 + c|M1|, so that entry lies within
# 2c|M2| (1 + O(c)) = 12 * 2**-52 |M2| of M2 (likewise for the minimum).  The
# spacing of M2 is at least 2**-53 |M2|, so 64 spacings cover at least
# 32 * 2**-52 |M2|, over twice the bound; they also cover the two
# half-spacing roundings of a subnormal quotient, where the relative bound
# fails.  Infinite entries come from empty levels, never from a log.
SCREEN_ULPS = 64


def _exact_extreme(beta, chunk, low, high, gap, screened, reduce) -> np.ndarray:
    """Recompute with math.log every finite entry near a row's screened extreme.

    `reduce` is np.maximum or np.minimum; rows whose screened extreme is
    infinite or NaN keep it unchanged (their width is NaN, so nothing is near).
    """
    out = screened.copy()
    width = SCREEN_ULPS * np.spacing(np.abs(screened))
    dist = beta - screened[:, None]
    near = np.abs(dist, out=dist) <= width[:, None]
    rows, cols = np.nonzero(near)
    ratio = chunk[rows, low[cols]] / chunk[rows, high[cols]]
    exact = _exact_betas(ratio, gap[cols])
    out[rows] = exact
    reduce.at(out, rows, exact)
    return out


def extremal_pairs(energies: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """(beta_c, beta_h) of every row of an (S, d) stack of populations.

    Returns an (S, 2) array equal bit for bit to the max and min of the
    `virtual_spectrum` entries of each row.  All pairs are screened at once
    with np.log; the entries within SCREEN_ULPS of each row's extremes are
    recomputed by `_exact_betas`, the spectrum's arithmetic.  Rows are
    processed in chunks of about PAIR_CHUNK_BYTES.

    Unchecked: `energies` must be ascending, each row a valid state's diagonal.
    """
    e = np.asarray(energies, dtype=float)
    p = _clean_populations(np.asarray(populations, dtype=float))
    low, high, gap = _pair_table(e)
    if gap.size == 0:
        raise ValidationError(
            "effective temperatures are undefined: all energy levels are degenerate"
        )
    out = np.empty((p.shape[0], 2))
    per_chunk = max(1, PAIR_CHUNK_BYTES // (3 * 8 * gap.size))
    for start in range(0, p.shape[0], per_chunk):
        stop = start + per_chunk
        chunk = p[start:stop]
        # an empty upper (lower) level gives +inf (-inf); two empty levels give
        # NaN, which fmax/fmin skip as the spectrum omits the pair
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = chunk[:, low]
            beta /= chunk[:, high]
            np.log(beta, out=beta)
            beta /= gap
            for col, screen, reduce in ((0, np.fmax, np.maximum), (1, np.fmin, np.minimum)):
                out[start:stop, col] = _exact_extreme(
                    beta, chunk, low, high, gap, screen.reduce(beta, axis=1), reduce)
    if np.isnan(out).any():
        raise ValidationError(
            "effective temperatures are undefined: all energy levels are degenerate"
        )
    return out


def extremal_pair(energies: np.ndarray, populations: np.ndarray) -> EffectiveTempPair:
    """Extremal inverse virtual temperatures (beta_c = max, beta_h = min).

    The one-row case of `extremal_pairs`; unchecked in the same way.
    """
    beta_c, beta_h = extremal_pairs(energies, np.asarray(populations)[None, :])[0]
    return EffectiveTempPair(beta_c=float(beta_c), beta_h=float(beta_h))


def single_copy_effective(system: QuantumSystem) -> EffectiveTempPair:
    """Extremal inverse virtual temperatures of a validated state."""
    return extremal_pair(system.energies, system.populations)


def _energy_groups(energies: np.ndarray, log_pops: np.ndarray, n: int):
    """Cluster n-fold energy sums and track extremal log-populations per sum.

    Products of populations and sums of energies depend only on the multiset
    of chosen levels, so enumerating multisets instead of all d**n indices is
    exact and keeps n <= 6 cheap.  Returns the arrays (energy, max_log_p,
    min_log_p, has_zero), one entry per group in ascending energy, with
    max/min over the positive-population multi-indices only (-inf/+inf when
    every one vanishes).
    """
    raw = []
    for combo in combinations_with_replacement(range(len(energies)), n):
        esum = 0.0
        lsum = 0.0
        for idx in combo:
            esum += energies[idx]
            lsum += log_pops[idx]
        raw.append((esum, lsum))
    raw.sort(key=lambda t: t[0])
    esum, lsum = map(np.array, zip(*raw))
    tol = _GROUP_RTOL * max(1.0, n * float(np.abs(energies).max()))
    # a group starts at the first sum more than tol above the group's first
    starts, first = [], -math.inf
    for k, s in enumerate(esum.tolist()):
        if s - first > tol:
            starts.append(k)
            first = s
    empty = lsum == -math.inf
    return (esum[starts], np.maximum.reduceat(lsum, starts),
            np.minimum.reduceat(np.where(empty, math.inf, lsum), starts),
            np.logical_or.reduceat(empty, starts))


def tensor_power_effective(system: QuantumSystem, n: int) -> EffectiveTempPair:
    """Effective temperatures of n independent copies processed collectively.

    The spectrum of A^n pairs product populations p_{i1}...p_{in} with summed
    energies; the extremes are found from per-energy extremal populations
    without materializing the d**n-dimensional state.  The pairs of energy
    groups play the part of the level pairs of one copy.
    """
    if n < 1:
        raise ValidationError(f"copy count must be >= 1, got {n}")
    d = system.dim
    multisets = math.comb(n + d - 1, d - 1)
    if multisets > TENSOR_POWER_CAP:
        raise ValidationError(
            f"{multisets} multisets of {n} copies of {d} levels exceed the "
            f"tensor-power cap {TENSOR_POWER_CAP}"
        )
    e = system.energies
    p = _clean_populations(system.populations)
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf)
    energy, top, bottom, has_zero = _energy_groups(e, logp, n)
    if energy.size < 2:
        raise ValidationError(
            "effective temperatures are undefined: all energy levels are degenerate"
        )
    low, high = _upper_pairs(energy.size)
    gap = energy[high] - energy[low]
    populated = top > -math.inf
    both = populated[low] & populated[high]
    # without a pair of populated groups the starting -inf/+inf stand
    beta_c = np.max((top[low] - bottom[high])[both] / gap[both], initial=-math.inf)
    beta_h = np.min((bottom[low] - top[high])[both] / gap[both], initial=math.inf)
    # a populated group below (above) one with an empty multi-index makes
    # beta_c = +inf (beta_h = -inf)
    if (populated[low] & has_zero[high]).any():
        beta_c = math.inf
    if (has_zero[low] & populated[high]).any():
        beta_h = -math.inf
    return EffectiveTempPair(beta_c=float(beta_c), beta_h=float(beta_h))


@dataclass(frozen=True)
class AsymptoticPair(EffectiveTempPair):
    """Asymptotic temperatures with the Gibbs solves at E + delta and E - delta."""

    cold: GibbsSolveResult
    hot: GibbsSolveResult


@dataclass(frozen=True)
class ExpansionPair(EffectiveTempPair):
    """Small-delta expansion with the Gibbs solve matching the mean energy E."""

    matched: GibbsSolveResult


def _branch_solve(request: AsymptoticRequest, branch: str, s_rho: float):
    """(beta, Gibbs solve) of one asymptotic branch, given S(rho)."""
    sign = {"cold": 1.0, "hot": -1.0}.get(branch)
    if sign is None:
        raise ValidationError(f"branch must be 'cold' or 'hot', got {branch!r}")
    system, delta = request.system, request.delta
    solve = gibbs_by_energy(system.energies, system.mean_energy + sign * delta)
    return sign * (solve.entropy - s_rho) / delta, solve


def asymptotic_branch(request: AsymptoticRequest, branch: str) -> float:
    """One branch of the heat-constrained asymptotic temperatures.

    cold: [S(gibbs(E + delta)) - S(rho)] / delta
    hot:  [S(rho) - S(gibbs(E - delta))] / delta

    S(rho) is the full von Neumann entropy, so coherences matter here.  The
    shifted mean energy must stay strictly inside the spectrum; otherwise a
    BracketError propagates from the Gibbs inversion.
    """
    return _branch_solve(request, branch, request.system.entropy)[0]


def asymptotic_effective(request: AsymptoticRequest) -> AsymptoticPair:
    """Both asymptotic branches; requires E +/- delta inside the spectrum."""
    s_rho = request.system.entropy
    beta_c, cold = _branch_solve(request, "cold", s_rho)
    beta_h, hot = _branch_solve(request, "hot", s_rho)
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


def hotter_than(beta_1: float, beta_2: float) -> bool:
    """True when the first inverse temperature is strictly hotter.

    Hotness is strictly decreasing in beta across the whole extended real
    line: every negative beta is hotter than every positive one, and
    beta = -inf (+inf) is the hottest (coldest) point.
    """
    return float(beta_1) < float(beta_2)
