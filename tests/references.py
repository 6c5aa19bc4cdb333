"""Reference code the tests compare the package against.

No CLI path runs any of it.  The explicit two-level swap protocol against a
resonant qubit thermometer saturates the cooling bound, and a joint-unitary
simulation certifies its closed-form transfer; the Jaynes-Cummings
excitation operator checks that the Hamiltonian conserves excitations;
`unitary_evolution` is the eigendecomposition propagator, and
`von_neumann_entropy` the entropy of one state from its own validation,
which `QuantumSystem.entropy` reads without a second eigvalsh;
`bisect_gibbs_by_energy` is the bisection that the Newton inversion
`thermal.gibbs_by_energy` replaced, and `prefix_certificate_extremes` the
heat-sign kernel as it certified each vertex at its own beta-order
prefixes, before it read every subset of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from efftemp import linalg, oracle, temperatures
from efftemp.catalysis import JCConfig
from efftemp.linalg import BracketError, SolverError, ValidationError
from efftemp.thermal import (
    BISECT_MAX_ITER,
    ENERGY_RTOL,
    GibbsSolveResult,
    QuantumSystem,
    _gibbs_populations,
    check_energy_levels,
    gibbs_by_beta,
)

# the largest argument math.exp takes without overflowing
_EXP_MAX = math.log(np.finfo(float).max)
BISECT_WIDTH_TOL = 1e-13


def unitary_evolution(op, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition; maps a (..., d, d) stack too."""
    w, v = linalg.hermitian_eig(op)
    phases = np.exp(-1j * w * t)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log rho in nats, from the spectrum its validation computes."""
    if np.ndim(rho) != 2:  # one state: a stack's spectra would be summed as one
        raise ValidationError(f"state must be square, got shape {np.shape(rho)}")
    # the cutoff also zeroes the validated spectrum's negatives down to EIG_FLOOR
    return linalg.entropy_of_probabilities(linalg.checked_state(rho)[1])


def excitation_number(config: JCConfig) -> np.ndarray:
    """Joint excitation operator a^dag a + |e><e|; commutes with the Hamiltonian."""
    n = config.fock_levels
    return np.kron(np.diag(np.arange(n, dtype=float)), np.eye(2)) + np.kron(
        np.eye(n), np.diag([0.0, 1.0])
    ).astype(complex)


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


def _logistic(x: float) -> float:
    """1 / (1 + e^-x), as e^x / (1 + e^x) for x < 0 so that no exp overflows."""
    z = math.exp(-abs(x))
    return 1.0 / (1.0 + z) if x >= 0.0 else z / (1.0 + z)


def build_cooling_protocol(system: QuantumSystem, beta_bath: float) -> CoolingProtocol:
    """Swap protocol on the coldest pair against a resonant qubit thermometer.

    The swap moves p_i g1 out of |i,1> and p_j g0 out of |j,0>, so
    delta_ij = p_i g1 - p_j g0 = p_i g0 exp(-beta gap) (1 - exp(-(beta_max -
    beta) gap)) with beta_max the coldest virtual temperature.  The factored
    form vanishes exactly at beta_bath = beta_max and cools the thermometer
    whenever the bath is strictly hotter; the flows are used where its
    exponents leave the float range.  No search over thermometers is
    needed: the resonant pair choice is optimal.
    """
    if not math.isfinite(beta_bath):
        raise ValidationError("bath inverse temperature must be finite")
    spectrum = temperatures.virtual_spectrum(system)
    if not spectrum.beta.size:
        raise ValidationError("no level pair with distinct energies")
    k = int(np.argmax(spectrum.beta))  # the first of equal maxima, as max() picks
    i, j, beta_max = int(spectrum.low[k]), int(spectrum.high[k]), float(spectrum.beta[k])
    gap = float(system.energies[j] - system.energies[i])
    p = temperatures._clean_populations(system.populations)
    g0, g1 = _logistic(beta_bath * gap), _logistic(-beta_bath * gap)
    # the exponents of the factored form: an empty upper level (beta_max =
    # +inf) makes the second -inf and its factor 1; an empty lower level
    # (beta_max = -inf) makes it +inf, so the two flows are used
    rise, fall = -beta_bath * gap, (beta_bath - beta_max) * gap
    if max(abs(rise), fall) > _EXP_MAX:
        delta = p[i] * g1 - p[j] * g0
    else:
        delta = p[i] * g0 * math.exp(rise) * (1.0 - math.exp(fall))
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
    g0 = _logistic(beta_bath * gap)
    gamma_b = np.diag([g0, 1.0 - g0]).astype(complex)
    h_b = np.diag([0.0, gap]).astype(complex)

    h_int = np.zeros((2 * d, 2 * d), dtype=complex)
    # |e_j, 0><e_i, 1| + h.c., joint index a*2 + s
    h_int[2 * j + 0, 2 * i + 1] = 1.0
    h_int[2 * i + 1, 2 * j + 0] = 1.0
    u = unitary_evolution(h_int, math.pi / 2)

    rho = np.diag(system.populations).astype(complex)  # every simulated system is diagonal
    joint = u @ linalg.tensor_product(rho, gamma_b) @ u.conj().T
    sigma_b = linalg.partial_trace(joint, (d, 2), keep="second")
    return float(np.real(np.trace(h_b @ (sigma_b - gamma_b))))


def bisect_gibbs_by_energy(energies, target_energy: float) -> GibbsSolveResult:
    """Invert beta |-> mean energy by bisection.

    The map is strictly decreasing, so a bracket is expanded geometrically
    (into negative beta when the target exceeds the infinite-temperature
    mean) and then bisected to width 1e-13, and on past it while the
    midpoint's residual exceeds 1e-12 * max(1, |target|), or to machine
    stall.  The result is accepted only if it meets that residual bound.

    Raises
    ------
    BracketError
        If `target_energy` is outside the open interval (e_min, e_max); for
        a fully degenerate ladder only its single energy is allowed.
    SolverError
        If the residual tolerance is not met within 200 bisection steps.
    """
    e = check_energy_levels(energies)
    target = float(target_energy)
    emin, emax = float(e[0]), float(e[-1])
    tol = linalg.energy_equal_tol(e)
    if emax - emin <= tol:
        if abs(target - emin) <= tol:
            return gibbs_by_beta(e, 0.0)
        raise BracketError(
            f"fully degenerate spectrum at {emin:.12g}; target {target:.12g} unreachable"
        )
    if not (emin < target < emax):
        raise BracketError(
            f"target energy {target:.12g} outside the open interval ({emin:.12g}, {emax:.12g})"
        )

    def mean(b: float) -> float:
        return float(_gibbs_populations(e, b) @ e)

    e0 = mean(0.0)
    if target == e0:
        lo = hi = 0.0
    elif target < e0:
        lo, hi = 0.0, 1.0
        while mean(hi) > target:
            hi *= 2.0
            if hi > 1e300:
                raise SolverError("bracket expansion overflow")
    else:
        lo, hi = -1.0, 0.0
        while mean(lo) < target:
            lo *= 2.0
            if lo < -1e300:
                raise SolverError("bracket expansion overflow")
    bound = ENERGY_RTOL * max(1.0, abs(target))
    # invariant: mean(lo) >= target >= mean(hi); past the width tolerance a
    # wide span bisects on while the midpoint misses the residual bound
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        m = mean(mid)
        if hi - lo <= BISECT_WIDTH_TOL and abs(m - target) <= bound:
            break
        if m > target:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    result = gibbs_by_beta(e, beta)
    residual = abs(result.mean_energy - target)
    if residual > bound:
        raise SolverError(
            f"bisection stalled with energy residual {residual:.3e} at beta={beta:.12g}"
        )
    return result


def prefix_certificate_extremes(energies, populations, beta_bath):
    """`oracle.thermomajorization_extremes` with its former certificate.

    The same (value, vertex, residual) stacks, the vertices climbed the same
    way, but each residual's curve term is read only where q's own
    curve has its corners: q is put in its own beta-order, and its
    cumulative population at every prefix is compared with p's curve at
    that prefix's Gibbs weight.  In exact arithmetic that is the largest
    excess over every subset of levels.  Never raises on the residual.
    """
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    beta = np.asarray(beta_bath, dtype=float)
    S, d = p.shape
    tables = oracle._level_tables(d)
    rows = np.arange(S)[:, None]
    with np.errstate(over="ignore"):
        rel = -(beta[:, None, None] * (e[:, None, :] - e[:, :, None]))
        weight = np.exp(rel)
    order = oracle._beta_order(p, rel, tables.lower)
    table = oracle._curve_table(p, weight, order, beta, tables, rows)
    climbed = table[:, tables.climbs]
    q = np.empty((2, S, d))
    np.subtract(climbed[:, :, 1:], climbed[:, :, :-1], out=q.transpose(1, 0, 2))
    np.negative(q[0], out=q[0])
    own = oracle._beta_order(q, rel, tables.lower)
    gain_loss = np.arange(2)[:, None, None]
    rise = q[gain_loss, rows, own].cumsum(axis=2) - table[rows, tables.bits[own].cumsum(axis=2)]
    residual = np.maximum(
        np.maximum(np.abs(q.sum(axis=2) - 1.0), -q.min(axis=2)),
        np.maximum(rise.max(axis=2), 0.0),
    )
    return ((q - p) * (e - e[:, :1])).sum(axis=2), q, residual
