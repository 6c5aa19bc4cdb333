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
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import BracketError, SolverError, ValidationError

BISECT_WIDTH_TOL = 1e-13
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
    """A Hamiltonian spectrum paired with a density matrix.

    `energies` are the Hamiltonian eigenvalues in ascending order, and
    `rho` is expressed in the same energy eigenbasis.  `spectrum` holds the
    eigenvalues of `rho` that its validation computed.
    """

    energies: np.ndarray
    rho: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        e = check_energy_levels(self.energies)
        rho, spectrum = linalg.checked_state(self.rho)
        if rho.shape[0] != e.size:
            raise ValidationError(f"state dimension {rho.shape[0]} != {e.size} energy levels")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", spectrum)
        if abs(self.populations.sum() - 1.0) > 1e-10:
            raise ValidationError("populations do not sum to 1 within 1e-10")

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def populations(self) -> np.ndarray:
        """p_i = <e_i| rho |e_i>."""
        return np.diag(self.rho).real.copy()

    @property
    def mean_energy(self) -> float:
        return float(self.populations @ self.energies)

    @functools.cached_property
    def entropy(self) -> float:
        """Von Neumann entropy S(rho) in nats, from the validation's spectrum."""
        # as linalg.von_neumann_entropy(rho), without a second eigvalsh
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


def _result_from_populations(e: np.ndarray, beta: float, p: np.ndarray) -> GibbsSolveResult:
    mean = float(p @ e)
    # a squared deviation may overflow to inf; where its weight is 0 it adds 0
    with np.errstate(over="ignore"):
        var = float(p @ np.where(p > 0.0, (e - mean) ** 2, 0.0))
    return GibbsSolveResult(
        beta=beta,
        populations=p,
        mean_energy=mean,
        entropy=linalg.entropy_of_probabilities(p),
        energy_variance=max(0.0, var),
    )


def gibbs_by_beta(energies, beta: float) -> GibbsSolveResult:
    """Gibbs state exp(-beta H)/Z on the given energy ladder."""
    e = check_energy_levels(energies)
    return _result_from_populations(e, float(beta), _gibbs_populations(e, beta))


def gibbs_by_energy(energies, target_energy: float) -> GibbsSolveResult:
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


def beta_free_energy(system: QuantumSystem, beta: float) -> float:
    """beta * F = beta * Tr[H rho] - S(rho); finite for every real beta."""
    return float(beta) * system.mean_energy - system.entropy


def free_energy(system: QuantumSystem, beta: float) -> float:
    """Non-equilibrium free energy Tr[H rho] - S(rho)/beta at inverse temperature beta."""
    if beta == 0.0:
        raise ValidationError("free energy diverges at beta = 0; use beta_free_energy")
    return beta_free_energy(system, beta) / float(beta)
