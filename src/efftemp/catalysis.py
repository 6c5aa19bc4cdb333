"""Coherent-catalysis demonstrations.

Two settings are covered.  A two-level atom driven on resonance by a single
truncated cavity mode (Jaynes-Cummings coupling): choosing the atom state as
the fixed point of the stroboscopic channel at time tau makes the atom return
to its initial state exactly, so it acts as a catalyst while the cavity's
effective temperatures move.  And a qutrit assisted by a qubit reference
frame: a planar rotation inside the two degenerate energy subspaces of the
joint system converts the qutrit's energy coherences into population bias
while preserving the reference frame's marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, temperatures
from .linalg import SolverError, ValidationError
from .thermal import gibbs_populations

FIXED_POINT_TOL = 1e-10
EIGENVALUE_ONE_TOL = 1e-8
NEGATIVITY_TOL = 1e-9
# byte budget of the complex per-sample arrays of one time-series chunk
SERIES_CHUNK_BYTES = 1 << 19

TIME_SERIES_COLUMNS = (
    "t",
    "beta_c_A",
    "beta_h_A",
    "beta_c_R",
    "beta_h_R",
    "atom_distance",
    "cavity_coherence",
)


@dataclass(frozen=True, eq=False)
class JCConfig:
    """Resonant Jaynes-Cummings model with a truncated cavity, and its time grid.

    Atom and cavity share the one frequency `omega`, so the coupling commutes
    with the total energy and the evolution is a valid thermal-operation
    unitary.  The cavity keeps `fock_levels` Fock states; the series samples
    `steps + 1` times over [0, max(30, tau)].
    """

    omega: float = 1.0
    g: float = 0.1
    fock_levels: int = 3
    tau: float = 28.5
    steps: int = 600

    def __post_init__(self):
        if self.fock_levels < 2:
            raise ValidationError("need at least 2 Fock levels")
        if 2 * self.fock_levels > linalg.MAX_DIM:
            cap = linalg.MAX_DIM // 2  # the joint cavity-atom space has 2 * fock_levels
            raise ValidationError(f"fock_levels={self.fock_levels} exceeds the cap {cap}")
        if not math.isfinite(self.omega):
            raise ValidationError(f"omega must be finite, got {self.omega}")
        if not math.isfinite(self.omega * (self.fock_levels - 1)):
            raise ValidationError(f"omega={self.omega} overflows the top Fock level")
        # a gap at or below the degeneracy tolerance leaves no distinct levels
        tol = linalg.energy_equal_tol(self.omega * np.arange(self.fock_levels))
        if not self.omega > tol:
            raise ValidationError(
                f"omega must exceed the level-degeneracy tolerance {tol:.0e}, got {self.omega}"
            )
        if not math.isfinite(self.g):
            raise ValidationError(f"g must be finite, got {self.g}")
        if not (self.tau > 0):
            raise ValidationError("tau must be positive")
        if not math.isfinite(self.tau):
            raise ValidationError(f"tau must be finite, got {self.tau}")
        # |eigenvalues| of jc_hamiltonian are at most `top` (Gershgorin); the
        # evolution multiplies them by every time, with 2x headroom for rounding
        top = (self.omega + abs(self.g)) * (self.fock_levels - 1) + self.omega
        t_max = max(30.0, self.tau)
        if not math.isfinite(2.0 * top * t_max):
            raise ValidationError(f"the evolution phases overflow at tau={self.tau}: "
                                  f"times up to {t_max:.3g}, energies up to {top:.3g}")
        if not isinstance(self.steps, (int, np.integer)):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValidationError("need steps >= 1 and t_max > 0")
        # the series holds (steps + 1) samples of the 2 * fock_levels joint
        # levels; allow at most as many numbers as one dense matrix at the cap
        cap = linalg.MAX_DIM ** 2 // (2 * self.fock_levels) - 1
        if self.steps > cap:
            raise ValidationError(
                f"steps={self.steps} exceeds the cap {cap} for fock_levels={self.fock_levels}"
            )

    @property
    def time_grid(self) -> np.ndarray:
        """Uniform grid of steps + 1 samples over [0, max(30, tau)]."""
        return np.linspace(0.0, max(30.0, self.tau), self.steps + 1)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of the Hamiltonian, computed once."""
        return linalg.hermitian_eig(jc_hamiltonian(self))

    @property
    def cavity_energies(self) -> np.ndarray:
        return self.omega * np.arange(self.fock_levels, dtype=float)

    @property
    def atom_energies(self) -> np.ndarray:
        return np.array([0.0, self.omega])


@dataclass(frozen=True, eq=False)
class CatalysisResult:
    """Catalyst state and its return residual after one period tau."""

    catalyst_state: np.ndarray
    fixed_point_residual: float


@dataclass(frozen=True, eq=False)
class TimeSeriesResult:
    """The recorded time series and the truncation diagnostic.

    `time_series` rows follow TIME_SERIES_COLUMNS; beta values are emitted
    as inverse temperatures so population crossings stay finite (they pass
    through beta = 0 rather than a temperature pole).
    """

    time_series: np.ndarray
    boundary_occupancy: float


def destroy(n: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)


def jc_hamiltonian(config: JCConfig) -> np.ndarray:
    """omega (a^dag a + |e><e|) + g (a sigma_+ + a^dag sigma_-) on cavity (x) atom."""
    n = config.fock_levels
    a = destroy(n)
    number = np.diag(np.arange(n, dtype=float)).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|, basis (g, e)
    h = (
        config.omega * np.kron(number, np.eye(2))
        + config.omega * np.kron(np.eye(n), excited)
        + config.g * (np.kron(a, sigma_plus) + np.kron(a.conj().T, sigma_plus.conj().T))
    )
    return h


def excitation_number(config: JCConfig) -> np.ndarray:
    """Joint excitation operator a^dag a + |e><e|; commutes with the Hamiltonian."""
    n = config.fock_levels
    return np.kron(np.diag(np.arange(n, dtype=float)), np.eye(2)) + np.kron(
        np.eye(n), np.diag([0.0, 1.0])
    ).astype(complex)


# ---------------------------------------------------------------------------
# channel fixed points


def _channel_matrix(apply_channel: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(dim):
        for l in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[k, l] = 1.0
            m[:, k * dim + l] = apply_channel(unit).reshape(-1)
    return m


def channel_fixed_point(apply_channel, dim: int, tol: float = FIXED_POINT_TOL) -> CatalysisResult:
    """Density-matrix fixed point of a CPTP map, with its return residual.

    The Cesaro fixed point from I/d: the limit of the averages of Phi^k(I/d),
    which a channel's semisimple unit eigenvalue makes one spectral
    projection.  With N and W the right and left null spaces of M - I (the
    singular vectors of singular values at most EIGENVALUE_ONE_TOL), it is
    N (W^H N)^-1 W^H vec(I/d), whether the fixed space is one state or many.
    The result is validated as a state: eigenvalues below -1e-9 abort,
    smaller negativities are floored at zero before renormalizing.
    """
    u, s, vh = np.linalg.svd(_channel_matrix(apply_channel, dim) - np.eye(dim * dim))
    null = s <= EIGENVALUE_ONE_TOL
    if not null.any():
        raise SolverError("channel has no eigenvalue within 1e-8 of 1; not trace-preserving?")
    n, w_h = vh[null].conj().T, u[:, null].conj().T  # (M - I) N = 0 and W^H (M - I) = 0
    try:
        coef = np.linalg.solve(w_h @ n, w_h @ (np.eye(dim) / dim).reshape(-1))
    except np.linalg.LinAlgError:
        raise SolverError("the unit eigenvalue is not semisimple; not a channel?") from None
    x = (n @ coef).reshape(dim, dim)
    x = (x + x.conj().T) / 2
    tr = float(np.trace(x).real)
    if not abs(tr) > 1e-12:
        raise SolverError("the projected fixed point has no trace")
    x = x / tr
    w = np.linalg.eigvalsh(x)
    if w.min() < -NEGATIVITY_TOL:
        raise SolverError(f"fixed point has negative eigenvalue {w.min():.3e}")
    if w.min() < 0.0:
        vals, vecs = np.linalg.eigh(x)
        vals = np.maximum(vals, 0.0)
        x = (vecs * vals) @ vecs.conj().T
        x = x / np.trace(x).real
    residual = linalg.trace_distance(apply_channel(x), x)
    if residual > tol:
        raise SolverError(f"fixed point residual exceeds {tol:.0e}")
    return CatalysisResult(catalyst_state=x, fixed_point_residual=residual)


def _frame_channel(u: np.ndarray, state: np.ndarray, dims: tuple[int, int]):
    """X -> Tr_first[U (state (x) X) U^dag] on the second factor of `dims`."""

    def apply(x: np.ndarray) -> np.ndarray:
        joint = u @ linalg.tensor_product(state, x) @ u.conj().T
        return linalg.partial_trace(joint, dims, keep="second")

    return apply


# ---------------------------------------------------------------------------
# Jaynes-Cummings catalysis


def solve_catalyst_fixed_point(config: JCConfig, cavity_state) -> CatalysisResult:
    """Atom state X with X = Tr_A[U(tau) (rho_A (x) X) U(tau)^dag]."""
    rho_a = linalg.check_density_matrix(cavity_state, "cavity state")
    if rho_a.shape[0] != config.fock_levels:
        raise ValidationError("cavity state dimension != fock_levels")
    w, v = config.eigensystem
    u = (v * np.exp(-1j * w * config.tau)) @ v.conj().T  # linalg.unitary_evolution's arithmetic
    return channel_fixed_point(_frame_channel(u, rho_a, (config.fock_levels, 2)), 2)


def _offdiag_l1(m: np.ndarray) -> np.ndarray:
    """Off-diagonal l1 norm of each matrix in an (S, d, d) stack."""
    off = m.copy()
    off[:, np.arange(m.shape[1]), np.arange(m.shape[1])] = 0.0
    return np.abs(off).sum(axis=(1, 2))


def _signed_factor(rho_a: np.ndarray, atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L and S with rho_a (x) atom = L diag(S) L^H, from each factor's eigh.

    The joint eigenvalues are the products of the factors' eigenvalues, with
    the Kronecker products of their eigenvectors.  Columns of |eigenvalue| at
    most dim * eps * max |eigenvalue| (numpy.linalg.matrix_rank's cut) are
    dropped; a negative eigenvalue above the cut is kept with sign -1.
    """
    wa, va = np.linalg.eigh(rho_a)
    wr, vr = np.linalg.eigh(atom)
    lam = np.multiply.outer(wa, wr).reshape(-1)
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.abs(lam).max()
    lam = lam[keep]
    return np.kron(va, vr)[:, keep] * np.sqrt(np.abs(lam)), np.sign(lam)


def _evolved_marginals(config: JCConfig, rho_a: np.ndarray, atom: np.ndarray):
    """Yield (start, sigma_A, sigma_R, top) for consecutive chunks of the grid.

    The joint state is carried as a factor: with rho_A (x) X = L S L^H for r
    kept eigenvalues, the state at time t is M S M^H with
    M = V (e^{-iwt} o V^H L), and both marginals are read from M.  A sample
    costs O((2n)^2 r) rather than a dense product's O((2n)^3): r <= 2 for a
    pure cavity, while a full-rank mixed cavity carries all 2n columns.
    `top` is the population of the last joint level, (n - 1, excited).
    Each sample's M is its own matrix product, so the chunking, about
    SERIES_CHUNK_BYTES each, does not change a bit of the output.
    """
    n = config.fock_levels
    w, v = config.eigensystem
    factor, sign = _signed_factor(rho_a, atom)
    factor_v = v.conj().T @ factor
    r = sign.size
    grid = config.time_grid
    # samples per chunk: four complex (samples, 2n, r) factor stacks and two
    # (samples, n, n) cavity marginals fit the budget
    chunk = max(1, SERIES_CHUNK_BYTES // (16 * (4 * 2 * n * r + 2 * n * n)))
    for start in range(0, grid.size, chunk):
        t = grid[start:start + chunk]
        m = v @ (np.exp(-1j * w * t[:, None])[:, :, None] * factor_v)  # (samples, 2n, r)
        m_s = m.conj()
        m_s *= sign  # M S M^H = m @ m_s^T
        # the rows of M are the joint levels (cavity i, atom k): sigma_A sums
        # over (k, column) and sigma_R over (i, column)
        sigma_a = m.reshape(-1, n, 2 * r) @ m_s.reshape(-1, n, 2 * r).transpose(0, 2, 1)
        by_atom = [x.reshape(-1, n, 2, r).transpose(0, 2, 1, 3).reshape(-1, 2, n * r)
                   for x in (m, m_s)]
        sigma_r = by_atom[0] @ by_atom[1].transpose(0, 2, 1)
        yield start, sigma_a, sigma_r, (m[:, -1] * m_s[:, -1]).real.sum(axis=1)


def _trace_distances(diff: np.ndarray) -> np.ndarray:
    """||D||_1 / 2 of the Hermitian part D of each matrix in an (S, 2, 2) stack.

    D's eigenvalues are (tr D +/- h) / 2 with h = hypot(D_00 - D_11, 2 |D_01|),
    so the sum of their magnitudes is max(|tr D|, h).  A batched eigvalsh,
    one LAPACK call per matrix, would add about 15 % to the series of a
    full-rank cavity at Fock 8.
    """
    d00, d11 = diff[:, 0, 0].real, diff[:, 1, 1].real
    d01 = (diff[:, 0, 1] + diff[:, 1, 0].conj()) / 2
    return np.maximum(np.abs(d00 + d11), np.hypot(d00 - d11, 2 * np.abs(d01))) / 2


def run_time_series(config: JCConfig, cavity_state, atom_state) -> TimeSeriesResult:
    """Evolve rho_A (x) X over the grid and record both subsystems' temperatures.

    Each row holds the cavity and atom beta pairs, the atom's trace distance
    to its initial state, and the cavity's off-diagonal l1 norm as a
    coherence proxy.  `boundary_occupancy` reports the largest population of
    the top Fock level with the atom excited -- the only state whose
    dynamics the truncation alters.  The marginals come from
    `_evolved_marginals`, and the temperatures of all samples from one
    `extremal_pairs` call per subsystem.
    """
    rho_a = linalg.check_density_matrix(cavity_state, "cavity state")
    atom0 = linalg.check_density_matrix(atom_state, "atom state")
    if rho_a.shape[0] != config.fock_levels or atom0.shape[0] != 2:
        raise ValidationError("state dimensions do not match the configuration")
    grid = config.time_grid
    rows = np.empty((grid.size, len(TIME_SERIES_COLUMNS)))
    cavity_pops = np.empty((grid.size, config.fock_levels))
    atom_pops = np.empty((grid.size, 2))
    boundary = 0.0
    for start, sigma_a, sigma_r, top in _evolved_marginals(config, rho_a, atom0):
        chunk = slice(start, start + top.size)
        rows[chunk, 5] = _trace_distances(sigma_r - atom0)
        rows[chunk, 6] = _offdiag_l1(sigma_a)
        cavity_pops[chunk] = np.diagonal(sigma_a, axis1=1, axis2=2).real
        atom_pops[chunk] = np.diagonal(sigma_r, axis1=1, axis2=2).real
        boundary = max(boundary, float(top.max()))
    rows[:, 0] = grid
    rows[:, 1:3] = temperatures.extremal_pairs(config.cavity_energies, cavity_pops)
    rows[:, 3:5] = temperatures.extremal_pairs(config.atom_energies, atom_pops)
    return TimeSeriesResult(time_series=rows, boundary_occupancy=boundary)


def uniform_superposition_state(dim: int) -> np.ndarray:
    """|psi><psi| for the uniform superposition of all energy levels."""
    psi = np.ones(dim, dtype=complex) / math.sqrt(dim)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# qutrit with a qubit reference frame

QUTRIT_ENERGIES = np.array([0.0, 1.0, 2.0])
CATALYST_ENERGIES = np.array([0.0, 1.0])


def reference_catalyst() -> np.ndarray:
    """(1 - 1/sqrt(2))/2 * I + 1/sqrt(2) |+><+| on the qubit frame."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    return 0.5 * (1.0 - 1.0 / math.sqrt(2)) * np.eye(2) + plus / math.sqrt(2)


def qutrit_state(lam: float, beta: float) -> np.ndarray:
    """(1 - lam) * gibbs(beta) + lam |psi><psi| with the uniform |psi>."""
    w = gibbs_populations(QUTRIT_ENERGIES, beta)
    return (1.0 - lam) * np.diag(w).astype(complex) + lam * uniform_superposition_state(3)


@dataclass(frozen=True, eq=False)
class QutritCatalystSetup:
    """Coherence weight lam in [0, 1], bath beta, and the frame state."""

    lam: float
    beta: float
    phi_r: np.ndarray = field(default=None)

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValidationError(f"lambda must lie in [0, 1], got {self.lam}")
        if not math.isfinite(self.beta):
            raise ValidationError("beta must be finite")
        phi = self.phi_r
        phi = reference_catalyst() if phi is None else linalg.check_density_matrix(phi, "phi_r")
        if phi.shape[0] != 2:
            raise ValidationError("the reference frame must be a qubit")
        object.__setattr__(self, "phi_r", phi)

    @property
    def rho_a(self) -> np.ndarray:
        return qutrit_state(self.lam, self.beta)


def qutrit_block_unitary() -> np.ndarray:
    """Planar pi/4 rotation in each degenerate subspace of the joint energy.

    The degenerate blocks are span{|01>, |10>} and span{|20>, |11>} (joint
    index 2a + r).  The rotation is oriented so the first basis vector of
    each block gains population (cos sin)(M_12 + M_21) from the block's
    off-diagonal M.  A +/-i-phased variant of this block map is sometimes
    written down for the same protocol, but it is not unitary (its columns
    are not orthogonal) and, with the phases made unitary, transfers no
    population from real-valued product inputs; the real rotation is the
    energy-conserving choice that produces the stated marginals.
    """
    v = np.eye(6, dtype=complex)
    c = s = 1.0 / math.sqrt(2)
    for first, second in ((1, 2), (4, 3)):
        v[first, first] = c
        v[first, second] = s
        v[second, first] = -s
        v[second, second] = c
    return v


class QutritProtocolResult(NamedTuple):
    sigma_a: np.ndarray
    sigma_r: np.ndarray
    temps: temperatures.EffectiveTempPair
    correlation_norm: float


def qutrit_catalyst_protocol(setup: QutritCatalystSetup) -> QutritProtocolResult:
    """Apply the block rotation to rho_A (x) phi_R and read off the marginals.

    Returns the qutrit marginal, the frame marginal, the qutrit's effective
    temperatures after the rotation, and the trace-norm distance between the
    joint state and the product of its marginals (the correlation built up).
    """
    v = qutrit_block_unitary()
    joint = v @ linalg.tensor_product(setup.rho_a, setup.phi_r) @ v.conj().T
    sigma_a = linalg.partial_trace(joint, (3, 2), keep="first")
    sigma_r = linalg.partial_trace(joint, (3, 2), keep="second")
    temps = temperatures.extremal_pair(QUTRIT_ENERGIES, np.diag(sigma_a).real)
    correlation = linalg.trace_norm(joint - linalg.tensor_product(sigma_a, sigma_r))
    return QutritProtocolResult(sigma_a, sigma_r, temps, correlation)


def tune_catalyst(setup: QutritCatalystSetup) -> np.ndarray:
    """Frame state left invariant by the protocol at the given (lam, beta).

    Solves phi = Tr_A[V (rho_A (x) phi) V^dag] with `channel_fixed_point`,
    as the Jaynes-Cummings fixed point does.  For a diagonal rho_A the
    channel preserves diagonality, so the returned frame is diagonal.
    """
    apply = _frame_channel(qutrit_block_unitary(), setup.rho_a, (3, 2))
    return channel_fixed_point(apply, 2).catalyst_state
