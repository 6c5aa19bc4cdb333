"""Heat-flow verification on the thermo-majorization polytope.

A bath at inverse temperature beta acting through any energy-conserving
interaction moves the populations p of a state by a column-stochastic matrix
G that fixes the bath's Gibbs weight vector g (G @ g = g).  The populations
q = G p it can reach are those thermo-majorized by p (Ruch, Schranner &
Seligman 1978; Horodecki & Oppenheim 2013), a polytope with one closed-form
vertex per order of the levels (Lostaglio, Alhambra & Perry 2018).  The
largest energy gain and loss over those vertices decide whether any
thermometer at that bath temperature can be cooled or heated; by the
rearrangement inequality they are the vertices of the two energy orders,
top level first and ground level first.  The linear program over G itself
(`GibbsStochasticLP`, `max_energy_gain`) stays as the independent
reference.  This module is the brute-force counterpart to the closed-form
virtual-temperature predictions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, simplex, temperatures
from .linalg import ValidationError
from .thermal import QuantumSystem, _gibbs_populations

ORACLE_DIM_CAP = 6
SIGN_MARGIN = 1e-9       # numerical margin realizing strict heat-sign inequalities
POLYTOPE_TOL = 1e-9
# bytes of one (S, 2^d, d) subset array over the systems `equivalence_trials`
# decides in one chunk, at the largest dimension; the certificate's
# (2, S, d, 2^d) array takes twice this, and the chunk's other arrays and
# temporaries a few times, whatever the number of systems
TRIAL_CHUNK_BYTES = 1 << 20


def _check_scope(dim: int, beta_bath) -> None:
    """What the oracle checks beyond QuantumSystem: its dimension cap, finite baths."""
    if dim > ORACLE_DIM_CAP:
        raise ValidationError(f"oracle dimension cap is {ORACLE_DIM_CAP}, got {dim}")
    if not np.isfinite(beta_bath).all():
        raise ValidationError("bath inverse temperature must be finite")


@dataclass(frozen=True, eq=False)
class GibbsStochasticLP:
    """Energy-change optimization over {G >= 0, 1^T G = 1^T, G g = g}.

    On construction (populations, energies) are validated as the QuantumSystem
    they make and by `heat_sign_oracle`'s cap and bath checks, entries in
    [EIG_FLOOR, 0) are clamped to 0, and the Gibbs weights g and the LP data
    are built in the layout G[i, j] -> x[i*d + j]: rows j < d are the
    column sums, rows d + i the fixed-vector condition (one row is
    redundant, which the solver tolerates), and cost[i*d + j] = e_i p_j.
    """

    populations: np.ndarray
    energies: np.ndarray
    beta_bath: float
    gibbs: np.ndarray = field(init=False, repr=False)
    a_eq: np.ndarray = field(init=False, repr=False)
    b_eq: np.ndarray = field(init=False, repr=False)
    cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        system = QuantumSystem(self.energies, self.populations)
        e, p, d = system.energies, np.maximum(system.populations, 0.0), system.dim
        _check_scope(d, self.beta_bath)
        g = _gibbs_populations(e, float(self.beta_bath))
        a_eq = np.zeros((2 * d, d, d))  # a_eq[row, i, j] multiplies G[i, j]
        k = np.arange(d)
        a_eq[k, :, k] = 1.0
        a_eq[d + k, k] = g
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "gibbs", g)
        object.__setattr__(self, "a_eq", a_eq.reshape(2 * d, d * d))
        object.__setattr__(self, "b_eq", np.concatenate([np.ones(d), g]))
        object.__setattr__(self, "cost", (e[:, None] * p[None, :]).ravel())

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class PolytopeOptimum:
    """LP optimum of lambda^T (G - 1) p with its certifying matrix.

    `residual` is the matrix's largest deviation from the polytope's
    equalities, max(|1^T G - 1^T|, |G g - g|), checked to be <= 1e-9.
    """

    value: float
    matrix: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class HeatOptimum:
    """Extreme energy change e . (q - p) over the populations q thermo-majorized by p.

    `vertex` is the optimal q, and `residual` its certificate: the largest
    of |sum q - 1|, the most negative entry of q, and the height by which
    q's thermo-majorization curve rises above p's, read as the most that
    q's population on any subset of levels exceeds p's curve at the
    subset's Gibbs weight, checked to be <= 1e-9.
    """

    value: float
    vertex: np.ndarray
    residual: float


@dataclass(frozen=True)
class HeatVerdict:
    """Heat-sign verdicts at one bath temperature with the two optima.

    gain maximizes and loss minimizes the system's energy change; can_cool
    is gain > SIGN_MARGIN and can_heat is loss < -SIGN_MARGIN, each also
    true for a flow that an exactly empty level makes certain (`_decided`).
    """

    can_cool: bool
    can_heat: bool
    gain: HeatOptimum
    loss: HeatOptimum


def max_energy_gain(lp: GibbsStochasticLP, maximize: bool = True) -> PolytopeOptimum:
    """Maximize (or minimize) the system energy change over the polytope.

    Variables are the d^2 entries of G.  The returned matrix is re-checked
    against the polytope and the objective to 1e-9.
    """
    result = simplex.solve_lp(lp.cost, a_eq=lp.a_eq, b_eq=lp.b_eq, maximize=maximize)
    G = result.x.reshape(lp.dim, lp.dim)
    g, p, e = lp.gibbs, lp.populations, lp.energies
    residual = max(float(np.abs(G.sum(axis=0) - 1.0).max()), float(np.abs(G @ g - g).max()))
    if result.x.min() < -POLYTOPE_TOL or residual > POLYTOPE_TOL:
        raise linalg.SolverError(f"optimal matrix violates the polytope by {residual:.2e}")
    before = float(e @ p)
    value = float(e @ (G @ p)) - before
    if abs(value - (result.value - before)) > POLYTOPE_TOL:
        raise linalg.SolverError("objective recomputation mismatch beyond 1e-9")
    return PolytopeOptimum(value=value, matrix=G, residual=residual)


class _LevelTables(NamedTuple):
    """Index tables over d levels; a subset of levels is a bitmask T < 2^d."""

    members: np.ndarray   # (2^d, d) the levels in each subset
    holders: np.ndarray   # (d, 2^d) the subsets holding each level, members transposed
    heaviest: np.ndarray  # (2, 2^d) each subset's lowest and highest level, 0 if empty
    lower: np.ndarray     # (d, d) the level pairs a < b
    levels: np.ndarray    # (d,) 0, ..., d - 1
    subsets: np.ndarray   # (2^d,) 0, ..., 2^d - 1
    bits: np.ndarray      # (d,) each level's own subset, 1 << k
    # (2, d + 1) at k = 0, ..., d the levels at or above k, which the gain's
    # order climbs from the top, and the levels under k, which the loss's
    # climbs from the ground
    climbs: np.ndarray


@functools.cache
def _level_tables(d: int) -> _LevelTables:
    """The index tables of d levels, built on first use of each d."""
    levels = np.arange(d)
    subsets = np.arange(1 << d)
    members = ((subsets[:, None] >> levels) & 1).astype(bool)
    below = (1 << np.arange(d + 1)) - 1  # the subset of the levels under k = 0, ..., d
    return _LevelTables(
        members=members,
        holders=np.ascontiguousarray(members.T),
        heaviest=np.stack([members.argmax(axis=1), d - 1 - members[:, ::-1].argmax(axis=1)]),
        lower=np.triu(np.ones((d, d), dtype=bool), 1),
        levels=levels,
        subsets=subsets,
        bits=1 << levels,
        climbs=np.stack([below[-1] - below, below]),
    )


def _beta_order(p, rel, lower):
    """Levels of each row in descending log p_i + beta e_i: p's beta-order.

    p is (..., S, d) and rel[s, a, b] is beta (e_a - e_b), +/-inf where it
    overflows, so two keys are compared by their difference and no weight
    or quotient can underflow.  Empty levels come last, and ties go to the
    lower level.
    """
    occupied = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(p)
        ahead = (logp[..., :, None] - logp[..., None, :]) + rel
    both = occupied[..., :, None] & occupied[..., None, :]
    ahead = np.where(both, ahead, occupied[..., :, None] * 1.0 - occupied[..., None, :])
    before = (ahead > 0.0) | ((ahead == 0.0) & lower)
    return before.sum(axis=-2).argsort(axis=-1, kind="stable")


def _curve_table(p, weight, order, beta, tables, rows):
    """p's thermo-majorization curve at the Gibbs weight of every subset of levels.

    table[s, T] is the curve of row s, whose segments are p's levels in
    beta-order `order`, at the summed Gibbs weight of the levels in T.
    Each subset is measured in the weights relative to its heaviest level,
    weight[s, j, i] = exp(-beta (e_i - e_j)), so its own weight is at least
    1.  A level whose relative weight underflows to 0 is then a zero-width
    segment that lies wholly below the point, and no zero width is ever a
    divisor.  Where T is a prefix of the beta-order the table holds the
    cumulative population exactly.  `rows` is the (S, 1) row index.
    """
    S, d = p.shape
    widths = weight[rows[:, :, None], tables.levels[:, None], order[:, None, :]]  # (S, scale, d)
    corners = np.zeros((S, d, d + 1))
    widths.cumsum(axis=2, out=corners[:, :, 1:])
    heights = p[rows, order]
    climbed = np.zeros((S, d + 1))
    heights.cumsum(axis=1, out=climbed[:, 1:])
    scale = tables.heaviest[(beta < 0.0).astype(np.intp)]  # (S, 2^d)
    x = np.where(tables.members, weight[rows, scale], 0.0).sum(axis=2)
    xs = corners[rows, scale]
    # the last corner at or below x, and the segment that starts there
    m = (xs <= x[:, :, None]).sum(axis=2) - 1
    seg = np.minimum(m, d - 1)
    width = np.where(m < d, widths[rows, scale, seg], np.inf)
    fraction = np.minimum((x - xs[rows, tables.subsets, m]) / width, 1.0)
    table = climbed[rows, m] + heights[rows, seg] * fraction
    table[:, 0] = 0.0
    table[rows, tables.bits[order].cumsum(axis=1)] = climbed[:, 1:]
    return table


def thermomajorization_extremes(energies, populations, beta_bath):
    """Largest energy gain and loss over the populations thermo-majorized by p.

    energies (S, d) ascending and populations (S, d) non-negative, one
    model per row, are validated by the caller; beta_bath (S,) is finite.
    Every vertex of a row's polytope is the curve's rise along one order of
    the levels, and its energy is that order's energy profile integrated
    against the curve's non-increasing slope.  By the rearrangement
    inequality the gain is therefore the vertex whose order climbs the
    levels from the top, d - 1, ..., 0, and the loss the one that climbs
    from the ground, 0, ..., d - 1; the curve is tabulated over all 2^d
    subsets because the certificate reads it at every one: q is
    thermo-majorized by p iff no subset holds more of q than p's curve at
    the subset's Gibbs weight, which exact arithmetic only needs at q's own
    beta-order prefixes.  Returns (value (2, S), vertex (2, S, d),
    residual (2, S)): row 0 of each is the gain, max e . (q - p), and row 1
    the loss, the minimum, each with its vertex q and the certificate
    residual that `HeatOptimum` describes.  Raises SolverError if a
    residual exceeds POLYTOPE_TOL.
    """
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    beta = np.asarray(beta_bath, dtype=float)
    S, d = p.shape
    tables = _level_tables(d)
    rows = np.arange(S)[:, None]
    with np.errstate(over="ignore"):
        # rel[s, j, i] = -beta (e_i - e_j): the log Gibbs weight of level i
        # relative to level j, +/-inf where the product overflows
        rel = -(beta[:, None, None] * (e[:, None, :] - e[:, :, None]))
        weight = np.exp(rel)
    order = _beta_order(p, rel, tables.lower)
    table = _curve_table(p, weight, order, beta, tables, rows)
    # q along an order is the curve's rise over each level's Gibbs weight:
    # the gain's order climbs from the top level down, the loss's from the
    # ground up, so level k rises from the levels above (below) it
    climbed = table[:, tables.climbs]  # (S, 2, d + 1)
    q = np.empty((2, S, d))
    np.subtract(climbed[:, :, 1:], climbed[:, :, :-1], out=q.transpose(1, 0, 2))
    np.negative(q[0], out=q[0])
    # the certificate: q's population on no subset of levels may exceed p's
    # curve at the subset's Gibbs weight; the empty subset's 0 bounds it below
    rise = np.where(tables.holders, q[..., None], 0.0).sum(axis=2) - table
    residual = np.maximum(
        np.maximum(np.abs(q.sum(axis=2) - 1.0), -q.min(axis=2)), rise.max(axis=2)
    )
    if (residual > POLYTOPE_TOL).any():
        raise linalg.SolverError(
            f"optimal vertex violates thermo-majorization by {float(residual.max()):.2e}"
        )
    return ((q - p) * (e - e[:, :1])).sum(axis=2), q, residual


def _decided(e, p, value):
    """(can_cool, can_heat), two (S,) bool arrays, of a stack's optima.

    `value` is the (2, S) gain and loss of `thermomajorization_extremes`.
    A flow is an optimum beyond SIGN_MARGIN, or one an exactly empty level
    makes certain: at any finite bath the two-level thermalization of an
    empty level j and a level i of distinct energy holding more than
    ZERO_POPULATION moves a share p_i g_j / (g_i + g_j) > 0 into j, which
    raises the energy when e_i < e_j and lowers it when e_i > e_j, however
    far below the margin (or below the smallest float) that share lies.
    Such a pair is one the closed form gives an infinite virtual
    temperature.  Rounded subtraction is monotone, so a pair's gap exceeds
    `linalg.energy_equal_tol` somewhere iff the widest one does: the
    highest empty level less the lowest occupied one for a flow up, and
    the mirror for a flow down.
    """
    ends = np.stack([p == 0.0, p > temperatures.ZERO_POPULATION])  # empty, occupied
    top = np.where(ends, e, -np.inf).max(axis=2)
    bottom = np.where(ends, e, np.inf).min(axis=2)
    tol = linalg.energy_equal_tol(e)
    can_cool = (value[0] > SIGN_MARGIN) | (top[0] - bottom[1] > tol)
    can_heat = (value[1] < -SIGN_MARGIN) | (top[1] - bottom[0] > tol)
    return can_cool, can_heat


def heat_sign_oracle(system: QuantumSystem, beta_bath: float) -> HeatVerdict:
    """Cool/heat verdicts for a bath at the given inverse temperature.

    can_cool: some thermometer at beta_bath loses energy, i.e. the system
    can gain energy under a Gibbs-stochastic map; can_heat symmetrically.
    Strict inequalities are realized with a 1e-9 margin, since the
    vertices are exact up to float noise, except for the flows into an
    exactly empty level that `_decided` counts however small.  The system is
    taken as validated, and populations in [EIG_FLOOR, 0) are clamped to 0.
    The two optima that decide the verdicts are returned with them.
    """
    beta = np.array([float(beta_bath)])
    _check_scope(system.dim, beta)
    e, p = system.energies, np.maximum(system.populations, 0.0)
    value, vertex, residual = thermomajorization_extremes(e[None], p[None], beta)
    can_cool, can_heat = _decided(e[None], p[None], value)
    gain, loss = (
        HeatOptimum(value=float(value[k, 0]), vertex=vertex[k, 0], residual=float(residual[k, 0]))
        for k in (0, 1)
    )
    return HeatVerdict(can_cool=bool(can_cool[0]), can_heat=bool(can_heat[0]), gain=gain, loss=loss)


def predicted_verdicts(pair: temperatures.EffectiveTempPair, beta_bath):
    """Closed-form (can_cool, can_heat) at a bath of inverse temperature beta_bath.

    Cooling needs a bath strictly hotter than beta_c, heating one strictly
    colder than beta_h.  A bath within SIGN_MARGIN * max(1, |beta_bath|) of
    beta_c or beta_h is a tie and predicts no flow, as the verdicts'
    SIGN_MARGIN does for an optimum that vanishes up to rounding.  An
    infinite beta_c or beta_h, from an empty level, is never a tie.  The
    bath and the pair's fields may be scalars, giving two numpy bools, or
    arrays of one shape, giving two bool arrays.
    """
    tie = SIGN_MARGIN * np.maximum(1.0, np.abs(beta_bath))
    # an infinite bath less its infinite tie is NaN, which predicts no flow
    with np.errstate(invalid="ignore"):
        return (
            temperatures.hotter_than(beta_bath + tie, pair.beta_c),
            temperatures.hotter_than(pair.beta_h, beta_bath - tie),
        )


@dataclass(frozen=True)
class EquivalenceReport:
    cases: int
    disagreements: int
    max_polytope_residual: float


def equivalence_trials(
    n_systems: int,
    baths_per_system: int,
    seed: int,
    dims: tuple[int, ...] = (3, 4),
) -> EquivalenceReport:
    """Compare heat-sign verdicts with the virtual-temperature prediction.

    For each random diagonal system and bath temperature the oracle verdict
    must match `predicted_verdicts`: cooling possible iff the bath is strictly
    hotter than beta_c, heating possible iff strictly colder than beta_h.

    The verdicts are those of `heat_sign_oracle`, bit for bit, but decided
    in stacks: systems are drawn in chunks of about TRIAL_CHUNK_BYTES of
    (rows, 2^d, d) subset arrays, the certificate's array taking twice
    that, and each dimension of a chunk is one
    `thermomajorization_extremes` call over all its baths, predicted by one
    `extremal_pairs` call over its ladders.  The draws are those of one
    system at a time: the same generator calls in the same order.
    """
    rng = np.random.default_rng(seed)
    d_max = max(dims)
    system_bytes = baths_per_system * (1 << d_max) * d_max * 8
    chunk = max(1, TRIAL_CHUNK_BYTES // max(1, system_bytes))
    disagreements = 0
    cases = 0
    residual = 0.0
    spread = {d: 0.05 * np.arange(d) for d in dims}
    flat = {d: np.ones(d) for d in dims}
    for start in range(0, n_systems, chunk):
        drawn = []
        for k in range(start, min(start + chunk, n_systems)):
            d = dims[k % len(dims)]
            # full rank, with well-separated ascending energy levels
            energies = np.sort(rng.uniform(0.0, 2.0, d)) + spread[d]
            populations = rng.dirichlet(flat[d])
            drawn.append((energies, populations, rng.uniform(-3.0, 3.0, baths_per_system)))
        for d in dict.fromkeys(dims):
            group = [draw for draw in drawn if draw[0].size == d]
            if not group or not baths_per_system:
                continue
            ladders, rows, baths = (np.array(column) for column in zip(*group))
            e, p = ladders.repeat(baths_per_system, axis=0), rows.repeat(baths_per_system, axis=0)
            beta = baths.ravel()
            _check_scope(d, beta)
            value, _, certificate = thermomajorization_extremes(e, p, beta)
            residual = max(residual, float(certificate.max()))
            can_cool, can_heat = _decided(e, p, value)
            pair = temperatures.extremal_pairs(ladders, rows).repeat(baths_per_system, axis=0)
            cool, heat = predicted_verdicts(temperatures.EffectiveTempPair(*pair.T), beta)
            disagreements += int(np.count_nonzero((can_cool != cool) | (can_heat != heat)))
            cases += beta.size
    return EquivalenceReport(
        cases=cases, disagreements=disagreements, max_polytope_residual=residual
    )
