"""Gibbs states by inverse temperature or by mean energy.

Temperatures are handled as inverse temperatures beta (nats per unit of
energy, k_B = 1) over the extended reals: beta = +inf is the ground-subspace
uniform state, beta = -inf the top-subspace uniform state.  Working in beta
keeps the hotness order total; the Kelvin-style T = 1/beta is left to the CLI.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import linalg
from .linalg import BracketError, SolverError, ValidationError

BISECT_MAX_ITER = 200
ENERGY_RTOL = 1e-12


def check_energy_levels(energies) -> np.ndarray:
    """Validate an ascending energy ladder with a finite span (degeneracies allowed)."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValidationError("energies must be a non-empty 1-d list")
    if not np.all(np.isfinite(e)):
        raise ValidationError("energies must be finite")
    if np.any(e[1:] < e[:-1]):  # np.diff could overflow
        raise ValidationError("energies must be sorted in ascending order")
    if not math.isfinite(float(e[-1]) - float(e[0])):  # Python floats do not warn
        raise ValidationError("the energy span must be finite")
    if e.size > linalg.MAX_DIM:
        raise ValidationError(f"spectrum size {e.size} exceeds the dense cap {linalg.MAX_DIM}")
    return e


@dataclass(frozen=True, eq=False)
class QuantumSystem:
    """A Hamiltonian spectrum paired with a state.

    `energies` are the Hamiltonian eigenvalues in ascending order, and `rho`
    is in the same energy eigenbasis: a (d, d) density matrix, or a (d,)
    real vector, the populations of the diagonal state, which never goes dense.
    `rho` is validated but not kept: the system holds its diagonal,
    `populations`, and `spectrum`, the eigenvalues of `rho` that its
    validation computed (np.sort of a vector).
    """

    energies: np.ndarray
    rho: InitVar[np.ndarray]
    populations: np.ndarray = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, rho):
        # a copy: a later write to the caller's array must not reach the validated ladder
        e = check_energy_levels(np.array(self.energies, dtype=float))
        ndim = np.ndim(rho)
        if ndim == 1 and not np.iscomplexobj(rho):
            p, spectrum = linalg.checked_populations(rho)
        elif ndim == 2:
            rho, spectrum = linalg.checked_state(rho)
            p = np.diag(rho).real.copy()  # p_i = <e_i| rho |e_i>
        else:  # one state, not a stack of them
            raise ValidationError(f"state must be square, got shape {np.shape(rho)}")
        if p.size != e.size:
            raise ValidationError(f"state dimension {p.size} != {e.size} energy levels")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "spectrum", spectrum)
        if abs(self.populations.sum() - 1.0) > 1e-10:
            raise ValidationError("populations do not sum to 1 within 1e-10")

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def mean_energy(self) -> float:
        return float(self.populations @ self.energies)

    @functools.cached_property
    def entropy(self) -> float:
        """Von Neumann entropy S(rho) in nats, from the validation's spectrum."""
        # no second eigvalsh; the reference von_neumann_entropy in
        # tests/references.py gives the same bits
        return linalg.entropy_of_probabilities(self.spectrum)


@dataclass(frozen=True, eq=False)
class GibbsSolveResult:
    """Outcome of a Gibbs construction: the state's energy-basis populations."""

    beta: float
    populations: np.ndarray
    mean_energy: float
    entropy: float
    energy_variance: float


def gibbs_populations(energies, beta: float) -> np.ndarray:
    """Populations proportional to exp(-beta * e_i), stable at any finite beta.

    The exponent is shifted by min(beta * e_i) before exponentiating so the
    largest weight is exactly 1.  beta = +inf (-inf) puts uniform weight on
    the ground (top) degenerate subspace.  Where beta * e_i overflows to
    +inf that weight is 0; where it overflows to -inf, ValidationError.
    """
    return _gibbs_populations(check_energy_levels(energies), beta)


def _gibbs_populations(e: np.ndarray, beta: float) -> np.ndarray:
    """gibbs_populations on an energy ladder the caller has already validated."""
    if math.isinf(beta):
        edge = e.min() if beta > 0 else e.max()
        mask = np.abs(e - edge) <= linalg.energy_equal_tol(e)
        return mask / mask.sum()
    # beta * e can overflow only where |beta| max|e| does (Python floats do not warn)
    if abs(float(beta)) * max(-float(e[0]), float(e[-1])) <= sys.float_info.max:
        t = beta * e
    else:
        with np.errstate(over="ignore"):
            t = beta * e
        # a level at t = +inf gets weight exp(-inf) = 0, the exact limit, but
        # one at t = -inf leaves no finite reference: inf - inf is NaN
        if t[0] == -math.inf or t[-1] == -math.inf:
            raise ValidationError(f"beta * energy overflows to -inf at beta = {beta!r}")
    w = np.exp(-(t - t.min()))
    return w / w.sum()


def _energy_moments(e: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the energy under populations p."""
    mean = float(p @ e)
    # a squared deviation may overflow to inf; where its weight is 0 it adds 0
    with np.errstate(over="ignore"):
        var = float(p @ np.where(p > 0.0, (e - mean) ** 2, 0.0))
    return mean, max(0.0, var)


def _result_from_populations(e: np.ndarray, beta: float, p: np.ndarray) -> GibbsSolveResult:
    mean, var = _energy_moments(e, p)
    return GibbsSolveResult(
        beta=beta,
        populations=p,
        mean_energy=mean,
        entropy=linalg.entropy_of_probabilities(p),
        energy_variance=var,
    )


def gibbs_by_beta(energies, beta: float) -> GibbsSolveResult:
    """Gibbs state exp(-beta H)/Z on the given energy ladder."""
    e = check_energy_levels(energies)
    return _result_from_populations(e, float(beta), _gibbs_populations(e, beta))


def gibbs_by_energy(energies, target_energy: float) -> GibbsSolveResult:
    """Invert beta |-> mean energy by safeguarded Newton iteration.

    The map is strictly decreasing with slope -Var(beta).  From beta = 0
    each step evaluates the mean m and variance v once.  Take edge to be
    the spectral edge nearer the target.  While |m - target| is below half
    the target's distance from that edge, the step is plain Newton,
    (m - target) / v.  Farther out it is Newton on log |m - edge|: in the
    exponential tail m - edge falls like exp(-gap * beta), so the log is
    near linear there, where plain Newton would advance beta by about one
    inverse level gap per step.  Every evaluated beta tightens a
    bracket (lo, hi) with mean(lo) >= target >= mean(hi).  A step that
    leaves the bracket is replaced by a doubling while one side is still
    unbounded (into negative beta when the target exceeds the
    infinite-temperature mean), and by a bisection once both are known.
    The iteration stops when the residual is within
    1e-12 * max(1, |target|) and either the step is below
    1e-14 * max(1, |beta|) or the mean is a float next to the target, or
    when the bracket stalls; the last evaluated state is accepted only if it
    meets that residual bound.

    Raises
    ------
    BracketError
        If `target_energy` is outside the open interval (e_min, e_max); for
        a fully degenerate ladder only its single energy is allowed.
    SolverError
        If the iteration has not stopped within 200 steps, or stops outside
        the residual bound.
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
    bound = ENERGY_RTOL * max(1.0, abs(target))
    side = 1.0 if target - emin <= emax - target else -1.0
    edge = emin if side > 0 else emax
    gap = side * (target - edge)
    log_gap = math.log(gap)
    # invariant: mean(lo) >= target >= mean(hi), a side not yet met at -inf/+inf
    lo, hi = -math.inf, math.inf
    nxt = 0.0
    for _ in range(BISECT_MAX_ITER):
        beta = nxt
        p = _gibbs_populations(e, beta)
        m, v = _energy_moments(e, p)
        if m == target:
            break
        if m > target:
            lo = beta
        else:
            hi = beta
        dist = side * (m - edge)
        # a zero variance gives no slope, nor does a mean on the edge; NaN
        # fails the bracket test below
        if not (v > 0.0 and dist > 0.0):
            newton = math.nan
        elif abs(m - target) < 0.5 * gap:
            newton = (m - target) / v
        else:
            newton = side * (math.log(dist) - log_gap) * dist / v
        # a mean next to the target off the edge leaves no beta to improve on
        if abs(m - target) <= bound and (
            abs(newton) <= 1e-14 * max(1.0, abs(beta))
            or (dist > 0.0 and abs(m - target) <= math.ulp(target))
        ):
            break
        nxt = beta + newton
        if not lo < nxt < hi:
            if hi == math.inf:
                nxt = max(2.0 * lo, 1.0)
            elif lo == -math.inf:
                nxt = min(2.0 * hi, -1.0)
            else:
                # lo and hi share a sign, as beta = 0 is one of them or outside
                nxt = lo + 0.5 * (hi - lo)
                if nxt == lo or nxt == hi:
                    break
            if abs(nxt) > 1e300:
                raise SolverError("bracket expansion overflow")
    else:
        raise SolverError(
            f"Newton-bisection stalled with energy residual {abs(m - target):.3e} "
            f"at beta={beta:.12g} after {BISECT_MAX_ITER} steps"
        )
    residual = abs(m - target)
    if residual > bound:
        raise SolverError(
            f"Newton-bisection stalled with energy residual {residual:.3e} at beta={beta:.12g}"
        )
    return _result_from_populations(e, beta, p)


def t_star(system: QuantumSystem) -> float:
    """Inverse temperature of the Gibbs state matching Tr[H rho].

    Returns +inf (-inf) when the mean energy sits at the bottom (top) of the
    spectrum.
    """
    e = system.energies
    mean = system.mean_energy
    if e[-1] - e[0] <= linalg.energy_equal_tol(e):
        return 0.0
    if mean <= e[0]:
        return math.inf
    if mean >= e[-1]:
        return -math.inf
    return gibbs_by_energy(e, mean).beta

