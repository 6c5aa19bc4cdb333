"""Dense Hermitian/complex matrix kernels shared by the rest of the package.

Operators and states are plain numpy arrays.  A density matrix is Hermitian
with unit trace and nonnegative spectrum (within tolerance); a Hamiltonian is
Hermitian with energies in units where hbar = k_B = 1.  Everything here is a
pure function on immutable inputs, so the module is thread-safe.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12        # Hamiltonians / observables
STATE_HERMITIAN_TOL = 1e-10  # density matrices
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10           # smallest eigenvalue still counted as nonnegative
ENTROPY_CUTOFF = 1e-14       # eigenvalues below this contribute zero entropy
MAX_DIM = 4096               # dimension cap for dense storage


class ValidationError(ValueError):
    """An operator, state or input file violates its declared invariants."""


class SolverError(RuntimeError):
    """An iterative routine could not reach its target tolerance."""


class BracketError(SolverError):
    """A requested mean energy lies outside the reachable open interval."""


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square ndarray, enforcing the dense dimension cap."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise ValidationError(f"{name} dimension {arr.shape[0]} exceeds the dense cap {MAX_DIM}")
    return arr


def check_hermitian(a, tol: float = HERMITIAN_TOL, name: str = "operator") -> np.ndarray:
    """Validate finite entries and Hermiticity within `tol`; return the array."""
    arr = as_square(a, name)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite: it has a NaN or infinite entry")
    dev = np.abs(arr - arr.conj().T).max()
    if not dev <= tol:
        raise ValidationError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")
    return arr


def checked_state(rho, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """check_density_matrix that also returns the spectrum it computed."""
    # entries near the float limit overflow the Hermiticity deviation or the
    # trace to inf, which the checks reject with their usual messages
    with np.errstate(over="ignore"):
        arr = check_hermitian(rho, STATE_HERMITIAN_TOL, name)
        tr = complex(np.trace(arr))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValidationError(f"{name} trace {tr:.12g} differs from 1 beyond {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh(arr)
    if not w.min() >= EIG_FLOOR:
        raise ValidationError(f"{name} has negative eigenvalue {w.min():.3e}")
    return arr, w


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate finite entries, Hermiticity, unit trace and nonnegative spectrum."""
    return checked_state(rho, name)[0]


def hermitian_eig(op, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvector matrix of a Hermitian operator."""
    arr = check_hermitian(op, tol)
    w, v = np.linalg.eigh(arr)
    return w, v


def unitary_evolution(op, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition."""
    w, v = hermitian_eig(op)
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; entry ((i,k),(j,l)) = a_ij * b_kl."""
    aa = as_square(a, "first factor")
    bb = as_square(b, "second factor")
    if aa.shape[0] * bb.shape[0] > MAX_DIM:
        raise ValidationError(
            f"product dimension {aa.shape[0] * bb.shape[0]} exceeds the dense cap {MAX_DIM}"
        )
    return np.kron(aa, bb)


def partial_trace(joint, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    `dims` is (d_first, d_second) with the joint index ordered as
    i_first * d_second + i_second; `keep` selects the surviving factor.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    arr = as_square(joint, "joint operator")
    if arr.shape[0] != d1 * d2:
        raise ValidationError(f"joint dimension {arr.shape[0]} != {d1}*{d2}")
    blocks = arr.reshape(d1, d2, d1, d2)
    if keep == "first":
        return np.einsum("ikjk->ij", blocks)
    if keep == "second":
        return np.einsum("kikj->ij", blocks)
    raise ValidationError(f"keep must be 'first' or 'second', got {keep!r}")


def energy_equal_tol(energies: np.ndarray) -> float:
    """Tolerance under which two energy levels count as degenerate."""
    scale = max(1.0, float(np.abs(energies).max())) if len(energies) else 1.0
    return 1e-12 * scale


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy in nats, ignoring weights below the entropy cutoff."""
    q = np.asarray(p, dtype=float)
    q = np.where(q < ENTROPY_CUTOFF, 0.0, q)
    nz = q[q > 0.0]
    if nz.size == 0:
        return 0.0
    return float(max(0.0, -(nz * np.log(nz)).sum()))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log rho in nats, from the spectrum its validation computes."""
    # the cutoff also zeroes the validated spectrum's negatives down to EIG_FLOOR
    return entropy_of_probabilities(checked_state(rho)[1])


def trace_norm(a) -> float:
    """||A||_1 = sum of singular values."""
    arr = as_square(a, "operator")
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def trace_distance(a, b) -> float:
    """D(a, b) = ||a - b||_1 / 2 for Hermitian a, b of equal dimension."""
    aa = as_square(a, "first state")
    bb = as_square(b, "second state")
    if aa.shape != bb.shape:
        raise ValidationError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    diff = aa - bb
    diff = (diff + diff.conj().T) / 2
    w = np.linalg.eigvalsh(diff)
    return float(np.abs(w).sum() / 2)
