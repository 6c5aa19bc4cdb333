import numpy as np
import pytest

from efftemp.thermal import QuantumSystem


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-induced random density matrix (full rank almost surely)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_energies(rng: np.random.Generator, dim: int, spread: float = 2.0) -> np.ndarray:
    """Ascending energies with a guaranteed minimum gap."""
    return np.sort(rng.uniform(0.0, spread, dim)) + 0.05 * np.arange(dim)


def diag_system(energies, populations) -> QuantumSystem:
    return QuantumSystem(
        energies=np.asarray(energies, dtype=float),
        rho=np.diag(np.asarray(populations, dtype=float)).astype(complex),
    )


def random_diagonal_system(rng: np.random.Generator, dim: int) -> QuantumSystem:
    """Random full-rank diagonal system with well-separated energy levels."""
    return diag_system(random_energies(rng, dim), rng.dirichlet(np.ones(dim)))


def inject_coherences(rng: np.random.Generator, rho_diag: np.ndarray, scale: float = 0.9):
    """Add off-diagonal Hermitian noise without touching the diagonal bits.

    The perturbation is bounded by the smallest population so the result
    stays positive semidefinite.
    """
    d = rho_diag.shape[0]
    k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    k = (k + k.conj().T) / 2
    np.fill_diagonal(k, 0.0)
    p_min = float(np.diag(rho_diag).real.min())
    eps = scale * p_min / max(np.linalg.norm(k, 2), 1e-300)
    return rho_diag + eps * k


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
