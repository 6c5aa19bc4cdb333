"""Dense Hermitian/complex matrix kernels shared by the rest of the package.

Operators and states are plain numpy arrays.  A density matrix is Hermitian
with unit trace and nonnegative spectrum (within tolerance); a Hamiltonian is
Hermitian with energies in units where hbar = k_B = 1.  Every matrix helper
also maps a (..., d, d) stack, matrix by matrix; a diagonal state is checked
as its populations vector, which never goes dense.  All are pure functions on
immutable inputs, so the module is thread-safe.
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
    """Coerce to a complex (..., d, d) ndarray, enforcing the dense dimension cap."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or 0 in arr.shape:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[-1] > MAX_DIM:
        raise ValidationError(f"{name} dimension {arr.shape[-1]} exceeds the dense cap {MAX_DIM}")
    return arr


def _first_failure(values, ok) -> np.generic:
    """The first of `values` (one per matrix) whose `ok` is False."""
    return np.ravel(values)[~np.ravel(ok)][0]


def check_hermitian(a, tol: float = HERMITIAN_TOL, name: str = "operator") -> np.ndarray:
    """Validate finite entries and Hermiticity within `tol`; return the array.

    A failure in a stack names the first failing matrix's deviation.
    """
    arr = as_square(a, name)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite: it has a NaN or infinite entry")
    dev = np.abs(arr - arr.conj().swapaxes(-1, -2))
    if not dev.max() <= tol:
        dev = dev.max(axis=(-2, -1))
        dev = _first_failure(dev, dev <= tol)
        raise ValidationError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")
    return arr


def checked_state(rho, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """check_density_matrix that also returns the spectrum it computed.

    The spectra of a (..., d, d) stack come as a (..., d) array.
    """
    # entries near the float limit overflow the Hermiticity deviation or the
    # trace to inf, which the checks reject with their usual messages
    with np.errstate(over="ignore"):
        arr = check_hermitian(rho, STATE_HERMITIAN_TOL, name)
        tr = arr.trace(axis1=-2, axis2=-1)
    ok = abs(tr - 1.0) <= TRACE_TOL
    if not ok.all():
        tr = complex(_first_failure(tr, ok))
        raise ValidationError(f"{name} trace {tr:.12g} differs from 1 beyond {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh(arr)
    if not w.min() >= EIG_FLOOR:
        low = w.min(axis=-1)
        raise ValidationError(
            f"{name} has negative eigenvalue {_first_failure(low, low >= EIG_FLOOR):.3e}")
    return arr, w


def checked_populations(p) -> tuple[np.ndarray, np.ndarray]:
    """checked_state of the diagonal state diag(p), without building it.

    Returns a float copy of the real 1-d `p` and its spectrum, np.sort(p).
    The checks and messages are the dense ones: dimension, finite entries,
    the trace, then each entry, an eigenvalue of diag(p), at least EIG_FLOOR.
    """
    p = np.array(p, dtype=float)
    d = p.size
    if p.ndim != 1:
        raise ValidationError(f"state populations must be 1-d, got shape {p.shape}")
    if d == 0:
        raise ValidationError("state must be square, got shape (0, 0)")
    if d > MAX_DIM:
        raise ValidationError(f"state dimension {d} exceeds the dense cap {MAX_DIM}")
    if not np.isfinite(p).all():
        raise ValidationError("state must be finite: it has a NaN or infinite entry")
    # summed as complex, as the dense trace is: the pairwise sum groups the
    # terms of a complex array otherwise than a real one's; entries near the
    # float limit overflow it to inf, or to NaN where +inf meets -inf, which
    # the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        tr = p.astype(complex).sum()
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValidationError(
            f"state trace {complex(tr):.12g} differs from 1 beyond {TRACE_TOL:.0e}")
    low = p.min()
    if not low >= EIG_FLOOR:
        raise ValidationError(f"state has negative eigenvalue {low:.3e}")
    return p, np.sort(p)


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate finite entries, Hermiticity, unit trace and nonnegative spectrum.

    A failure in a stack names the first failing matrix's value.
    """
    return checked_state(rho, name)[0]


def hermitian_eig(op, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvector matrix of a Hermitian operator."""
    arr = check_hermitian(op, tol)
    w, v = np.linalg.eigh(arr)
    return w, v


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product, entry ((i,k),(j,l)) = a_ij * b_kl, broadcast over stack axes."""
    aa = as_square(a, "first factor")
    bb = as_square(b, "second factor")
    d = aa.shape[-1] * bb.shape[-1]
    if d > MAX_DIM:
        raise ValidationError(f"product dimension {d} exceeds the dense cap {MAX_DIM}")
    out = aa[..., :, None, :, None] * bb[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (d, d))


def partial_trace(joint, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    `dims` is (d_first, d_second) with the joint index ordered as
    i_first * d_second + i_second; `keep` selects the surviving factor.
    """
    if len(dims) != 2 or not all(isinstance(d, (int, np.integer)) and d > 0 for d in dims):
        raise ValidationError(f"dims must be two positive integers, got {tuple(dims)}")
    d1, d2 = dims
    arr = as_square(joint, "joint operator")
    if arr.shape[-1] != d1 * d2:
        raise ValidationError(f"joint dimension {arr.shape[-1]} != {d1}*{d2}")
    blocks = arr.reshape(arr.shape[:-2] + (d1, d2, d1, d2))
    if keep == "first":
        return np.einsum("...ikjk->...ij", blocks)
    if keep == "second":
        return np.einsum("...kikj->...ij", blocks)
    raise ValidationError(f"keep must be 'first' or 'second', got {keep!r}")


def energy_equal_tol(energies) -> float | np.ndarray:
    """Tolerance under which two energy levels count as degenerate; one per ladder of a stack."""
    return 1e-12 * np.abs(energies).max(axis=-1, initial=1.0)


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy in nats, ignoring weights below the entropy cutoff."""
    q = np.asarray(p, dtype=float)
    q = np.where(q < ENTROPY_CUTOFF, 0.0, q)
    nz = q[q > 0.0]
    if nz.size == 0:
        return 0.0
    return float(max(0.0, -(nz * np.log(nz)).sum()))


def trace_norm(a) -> float | np.ndarray:
    """||A||_1 = sum of singular values; one norm per matrix of a stack."""
    arr = as_square(a, "operator")
    return np.linalg.svd(arr, compute_uv=False).sum(axis=-1)


def trace_distance(a, b) -> float | np.ndarray:
    """D(a, b) = ||a - b||_1 / 2 for Hermitian a, b of equal dimension, broadcast over stacks."""
    aa = as_square(a, "first state")
    bb = as_square(b, "second state")
    if aa.shape[-1] != bb.shape[-1]:
        raise ValidationError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    diff = aa - bb
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2
    w = np.linalg.eigvalsh(diff)
    return np.abs(w).sum(axis=-1) / 2
