"""Heat-flow verification over the Gibbs-stochastic polytope.

A bath at inverse temperature beta acting through any energy-conserving
interaction moves the populations of a state by a column-stochastic matrix G
that fixes the bath's Gibbs weight vector g (G @ g = g).  Maximizing the
system's energy change lambda^T (G - 1) p over that polytope is a small
linear program; its sign decides whether any thermometer at that bath
temperature can be cooled or heated.  This module is the brute-force
counterpart to the closed-form virtual-temperature predictions, plus the
explicit two-level swap protocol that saturates the cooling bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, simplex, temperatures
from .linalg import ValidationError
from .thermal import QuantumSystem, _gibbs_rows, check_energy_levels

ORACLE_DIM_CAP = 6
SIGN_MARGIN = 1e-9       # numerical margin realizing strict heat-sign inequalities
POLYTOPE_TOL = 1e-9
# tableau bytes, both directions, of the systems `equivalence_trials` solves
# in one chunk; the chunk's LP data and kernel temporaries take a few times
# this, whatever the number of systems
TRIAL_CHUNK_BYTES = 1 << 20


def _lp_rows(energies, populations, beta_bath):
    """Gibbs weights and LP data of one model per row.

    energies and populations are (S, d), beta_bath (S,); returns g (S, d),
    a_eq (S, 2d, d^2), b_eq (S, 2d) and cost (S, d^2) in the layout of
    `GibbsStochasticLP`, every entry 1.0, a copy of g[j] or e[i] * p[j].
    """
    S, d = populations.shape
    g = _gibbs_rows(energies, beta_bath)
    a_eq = np.zeros((S, 2 * d, d, d))  # a_eq[s, row, i, j] multiplies G[i, j]
    k = np.arange(d)
    a_eq[:, k, :, k] = 1.0
    a_eq[:, d + k, k] = g[:, None, :]
    b_eq = np.concatenate([np.ones((S, d)), g], axis=1)
    cost = (energies[:, :, None] * populations[:, None, :]).reshape(S, d * d)
    return g, a_eq.reshape(S, 2 * d, d * d), b_eq, cost


def _checked_optima(energies, populations, gibbs, x, lp_values):
    """Energy changes and polytope residuals of a stack of LP optima.

    Row s holds one model's energies, populations and Gibbs weights, its
    vertex x (d^2,) and the LP value cost @ x.  Each matrix G is re-checked
    against the polytope and the objective to POLYTOPE_TOL; raises
    SolverError for the first that fails.  Returns lambda^T (G - 1) p and
    max(|1^T G - 1^T|, |G g - g|) per row.
    """
    S, d = populations.shape
    G = x.reshape(S, d, d)
    col_dev = np.abs(G.sum(axis=1) - 1.0).max(axis=1)
    fix_dev = np.abs(np.matmul(G, gibbs[:, :, None])[:, :, 0] - gibbs).max(axis=1)
    bad = np.flatnonzero(
        (x.min(axis=1) < -POLYTOPE_TOL) | (col_dev > POLYTOPE_TOL) | (fix_dev > POLYTOPE_TOL)
    )
    if bad.size:
        s = bad[0]
        raise linalg.SolverError(
            f"optimal matrix violates the polytope: cols {col_dev[s]:.2e}, fix {fix_dev[s]:.2e}"
        )
    before = np.matmul(energies[:, None, :], populations[:, :, None])[:, 0, 0]
    after = np.matmul(energies[:, None, :], np.matmul(G, populations[:, :, None]))[:, 0, 0]
    value = after - before
    if np.any(np.abs(value - (lp_values - before)) > POLYTOPE_TOL):
        raise linalg.SolverError("objective recomputation mismatch beyond 1e-9")
    return value, np.maximum(col_dev, fix_dev)


@dataclass(frozen=True, eq=False)
class GibbsStochasticLP:
    """Energy-change optimization over {G >= 0, 1^T G = 1^T, G g = g}.

    Validated once on construction, which also builds the Gibbs weights g
    and the LP data in the layout G[i, j] -> x[i*d + j]: rows j < d are the
    column sums, rows d + i the fixed-vector condition (one row is
    redundant, which the solver tolerates), and cost[i*d + j] = e_i p_j.
    The data are the one-row case of `_lp_rows`.
    """

    populations: np.ndarray
    energies: np.ndarray
    beta_bath: float
    gibbs: np.ndarray = field(init=False, repr=False)
    a_eq: np.ndarray = field(init=False, repr=False)
    b_eq: np.ndarray = field(init=False, repr=False)
    cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        e = check_energy_levels(self.energies)
        d = e.size
        if d > ORACLE_DIM_CAP:
            raise ValidationError(f"oracle dimension cap is {ORACLE_DIM_CAP}, got {d}")
        if p.ndim != 1 or p.size != d:
            raise ValidationError("populations must match the energy ladder")
        if not (p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-10):  # NaN fails
            raise ValidationError("populations must be a probability vector (1e-10)")
        if not math.isfinite(self.beta_bath):
            raise ValidationError("bath inverse temperature must be finite")
        p = np.maximum(p, 0.0)
        g, a_eq, b_eq, cost = _lp_rows(e[None], p[None], np.array([float(self.beta_bath)]))
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "gibbs", g[0])
        object.__setattr__(self, "a_eq", a_eq[0])
        object.__setattr__(self, "b_eq", b_eq[0])
        object.__setattr__(self, "cost", cost[0])

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class HeatOptimum:
    """LP optimum of lambda^T (G - 1) p with its certifying matrix.

    `residual` is the matrix's largest deviation from the polytope's
    equalities, max(|1^T G - 1^T|, |G g - g|), checked to be <= 1e-9.
    """

    value: float
    matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class HeatVerdict:
    """Heat-sign verdicts at one bath temperature with the two LP optima.

    gain maximizes and loss minimizes the system's energy change; can_cool
    is gain > SIGN_MARGIN and can_heat is loss < -SIGN_MARGIN.
    """

    can_cool: bool
    can_heat: bool
    gain: HeatOptimum
    loss: HeatOptimum


@dataclass(frozen=True)
class CoolingProtocol:
    """Resonant two-level swap against a qubit thermometer.

    The pair (i, j) attains the coldest virtual temperature beta_max; the
    thermometer has gap = e_j - e_i and Gibbs populations (g0, g1) at the
    bath temperature.  delta_ij is the ground-population gain of the
    thermometer, so heat_to_thermometer = -gap * delta_ij.
    """

    pair: tuple[int, int]
    gap: float
    g0: float
    g1: float
    delta_ij: float
    heat_to_thermometer: float
    beta_max: float


def max_energy_gain(lp: GibbsStochasticLP, maximize: bool = True) -> HeatOptimum:
    """Maximize (or minimize) the system energy change over the polytope.

    Variables are the d^2 entries of G.  The returned matrix is re-checked
    against the polytope and the objective to 1e-9.
    """
    result = simplex.solve_lp(lp.cost, a_eq=lp.a_eq, b_eq=lp.b_eq, maximize=maximize)
    value, residual = _checked_optima(
        lp.energies[None], lp.populations[None], lp.gibbs[None], result.x[None],
        np.array([result.value]),
    )
    return HeatOptimum(
        value=float(value[0]), matrix=result.x.reshape(lp.dim, lp.dim), residual=float(residual[0])
    )


def heat_sign_oracle(system: QuantumSystem, beta_bath: float) -> HeatVerdict:
    """Cool/heat verdicts for a bath at the given inverse temperature.

    can_cool: some thermometer at beta_bath loses energy, i.e. the system
    can gain energy under a Gibbs-stochastic map; can_heat symmetrically.
    Strict inequalities are realized with a 1e-9 margin, since the simplex
    returns exact vertices up to float noise.  One LP model is solved in
    both directions, and the two optima that decide the verdicts are
    returned with them.
    """
    lp = GibbsStochasticLP(system.populations, system.energies, beta_bath)
    gain = max_energy_gain(lp, maximize=True)
    loss = max_energy_gain(lp, maximize=False)
    return HeatVerdict(
        can_cool=bool(gain.value > SIGN_MARGIN),
        can_heat=bool(loss.value < -SIGN_MARGIN),
        gain=gain,
        loss=loss,
    )


def predicted_verdicts(
    pair: temperatures.EffectiveTempPair, beta_bath: float
) -> tuple[bool, bool]:
    """Closed-form (can_cool, can_heat) at a bath of inverse temperature beta_bath.

    Cooling needs a bath strictly hotter than beta_c, heating one strictly
    colder than beta_h.  A bath within SIGN_MARGIN * max(1, |beta_bath|) of
    beta_c or beta_h is a tie and predicts no flow, as the LP verdicts'
    SIGN_MARGIN does for an optimum that vanishes up to rounding.
    """
    tie = SIGN_MARGIN * max(1.0, abs(beta_bath))
    return (
        temperatures.hotter_than(beta_bath + tie, pair.beta_c),
        temperatures.hotter_than(pair.beta_h, beta_bath - tie),
    )


def build_cooling_protocol(system: QuantumSystem, beta_bath: float) -> CoolingProtocol:
    """Swap protocol on the coldest pair against a resonant qubit thermometer.

    delta_ij = p_i g0 exp(-beta gap) (1 - exp(-(beta_max - beta) gap)) with
    beta_max the coldest virtual temperature; the transfer vanishes exactly
    at beta_bath = beta_max and cools the thermometer whenever the bath is
    strictly hotter.  No search over thermometers is needed: the resonant
    pair choice is optimal.
    """
    if not math.isfinite(beta_bath):
        raise ValidationError("bath inverse temperature must be finite")
    spectrum = temperatures.virtual_spectrum(system)
    if len(spectrum) == 0:
        raise ValidationError("no level pair with distinct energies")
    i, j, beta_max = max(spectrum.entries, key=lambda entry: entry[2])
    gap = float(system.energies[j] - system.energies[i])
    p = temperatures._clean_populations(system.populations)
    g0 = 1.0 / (1.0 + math.exp(-beta_bath * gap))
    g1 = 1.0 - g0
    if p[i] == 0.0:
        delta = 0.0
    elif math.isinf(beta_max):
        # empty upper level: the full p_i * g1 weight moves
        delta = p[i] * g0 * math.exp(-beta_bath * gap)
    else:
        delta = p[i] * g0 * math.exp(-beta_bath * gap) * (
            1.0 - math.exp(-(beta_max - beta_bath) * gap)
        )
    return CoolingProtocol(
        pair=(int(i), int(j)),
        gap=gap,
        g0=g0,
        g1=g1,
        delta_ij=float(delta),
        heat_to_thermometer=float(-gap * delta),
        beta_max=float(beta_max),
    )


def simulated_protocol_heat(
    system: QuantumSystem, beta_bath: float, pair: tuple[int, int]
) -> float:
    """Heat to the thermometer from an explicit joint-unitary simulation.

    Builds the resonant qubit thermometer, generates the swap from its
    interaction Hamiltonian at t = pi/2, evolves rho (x) gamma_B and reads
    Tr[H_B (sigma_B - gamma_B)].  Independent of the closed-form transfer
    formula; used to certify it.
    """
    i, j = pair
    d = system.dim
    gap = float(system.energies[j] - system.energies[i])
    if gap <= 0:
        raise ValidationError("pair must have a positive energy gap")
    g0 = 1.0 / (1.0 + math.exp(-beta_bath * gap))
    gamma_b = np.diag([g0, 1.0 - g0]).astype(complex)
    h_b = np.diag([0.0, gap]).astype(complex)

    h_int = np.zeros((2 * d, 2 * d), dtype=complex)
    # |e_j, 0><e_i, 1| + h.c., joint index a*2 + s
    h_int[2 * j + 0, 2 * i + 1] = 1.0
    h_int[2 * i + 1, 2 * j + 0] = 1.0
    u = linalg.unitary_evolution(h_int, math.pi / 2)

    joint = u @ linalg.tensor_product(system.rho, gamma_b) @ u.conj().T
    sigma_b = linalg.partial_trace(joint, (d, 2), keep="second")
    return float(np.real(np.trace(h_b @ (sigma_b - gamma_b))))


def random_diagonal_system(rng: np.random.Generator, dim: int) -> QuantumSystem:
    """Random full-rank diagonal system with well-separated energy levels."""
    energies = np.sort(rng.uniform(0.0, 2.0, dim)) + 0.05 * np.arange(dim)
    populations = rng.dirichlet(np.ones(dim))
    return QuantumSystem(energies=energies, rho=np.diag(populations).astype(complex))


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
    """Compare LP heat-sign verdicts with the virtual-temperature prediction.

    For each random diagonal system and bath temperature the oracle verdict
    must match `predicted_verdicts`: cooling possible iff the bath is strictly
    hotter than beta_c, heating possible iff strictly colder than beta_h.

    The verdicts are those of `heat_sign_oracle`, bit for bit, but solved in
    stacks: systems are drawn in chunks of about TRIAL_CHUNK_BYTES of
    tableaux, and each dimension of a chunk is one `simplex.solve_lps` call
    over all its baths, maximized and minimized.
    """
    rng = np.random.default_rng(seed)
    # two (m + 1) x (n + m + 1) tableaux per bath at the largest dimension
    m, n = 2 * max(dims), max(dims) ** 2
    system_bytes = 2 * baths_per_system * 8 * (m + 1) * (n + m + 1)
    chunk = max(1, TRIAL_CHUNK_BYTES // max(1, system_bytes))
    disagreements = 0
    cases = 0
    residual = 0.0
    for start in range(0, n_systems, chunk):
        drawn = []
        for k in range(start, min(start + chunk, n_systems)):
            system = random_diagonal_system(rng, dims[k % len(dims)])
            baths = [float(rng.uniform(-3.0, 3.0)) for _ in range(baths_per_system)]
            drawn.append((system, baths))
        for d in dict.fromkeys(dims):
            group = [(system, baths) for system, baths in drawn if system.dim == d and baths]
            if not group:
                continue
            if d > ORACLE_DIM_CAP:
                raise ValidationError(f"oracle dimension cap is {ORACLE_DIM_CAP}, got {d}")
            size = len(group) * baths_per_system
            e = np.repeat([system.energies for system, _ in group], baths_per_system, axis=0)
            p = np.repeat([system.populations for system, _ in group], baths_per_system, axis=0)
            beta = np.array([b for _, baths in group for b in baths])
            # rows [0, size) maximize and rows [size, 2 size) minimize the same models
            e, p, beta = (np.concatenate([a, a]) for a in (e, np.maximum(p, 0.0), beta))
            g, a_eq, b_eq, cost = _lp_rows(e, p, beta)
            lp_values, x = simplex.solve_lps(cost, a_eq, b_eq, maximize=np.arange(2 * size) < size)
            values, residuals = _checked_optima(e, p, g, x, lp_values)
            residual = max(residual, float(residuals.max()))
            can_cool = (values[:size] > SIGN_MARGIN).tolist()
            can_heat = (values[size:] < -SIGN_MARGIN).tolist()
            verdicts = iter(zip(can_cool, can_heat))
            for system, baths in group:
                pair = temperatures.single_copy_effective(system)
                for beta_bath in baths:
                    if next(verdicts) != predicted_verdicts(pair, beta_bath):
                        disagreements += 1
            cases += size
    return EquivalenceReport(
        cases=cases, disagreements=disagreements, max_polytope_residual=residual
    )
