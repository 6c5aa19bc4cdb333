"""Reference computations that do not use the program.

Everything here is written from the definitions in the paper and the
README: the pairwise virtual temperatures, Gibbs states, the
Gibbs-stochastic linear program (solved with scipy's HiGHS), brute-force
tensor powers, the qutrit protocol with a qubit frame and the
Jaynes-Cummings propagator in closed form.  Nothing imports efftemp.
"""

from __future__ import annotations

import math

import numpy as np

# populations at or below this are exact zeros (README convention)
ZERO_POPULATION = 1e-15
QUTRIT_ENERGIES = np.array([0.0, 1.0, 2.0])
# beta_c = -beta_h of the qutrit protocol at lambda = 1, beta = 0
QUTRIT_BETA_C = math.log(2.5 + 3.0 / math.sqrt(2.0))


def degenerate_tol(e: np.ndarray) -> float:
    return 1e-12 * max(1.0, float(np.abs(e).max()))


def virtual_temperatures(e, p) -> list[tuple[int, int, float]]:
    """beta_ij = ln(p_i/p_j)/(e_j - e_i) over pairs with distinct energies.

    An empty upper level gives +inf, an empty lower level -inf, and a pair
    with both levels empty carries no temperature.
    """
    e = np.asarray(e, dtype=float)
    p = np.where(np.asarray(p, dtype=float) <= ZERO_POPULATION, 0.0, p)
    tol = degenerate_tol(e)
    out = []
    for i in range(e.size):
        for j in range(i + 1, e.size):
            gap = e[j] - e[i]
            if gap <= tol or (p[i] == 0.0 and p[j] == 0.0):
                continue
            if p[j] == 0.0:
                beta = math.inf
            elif p[i] == 0.0:
                beta = -math.inf
            else:
                beta = math.log(p[i] / p[j]) / gap
            out.append((i, j, beta))
    return out


def single_pair(e, p) -> tuple[float, float]:
    """(beta_c, beta_h) = (max, min) of the virtual temperatures."""
    betas = [b for _, _, b in virtual_temperatures(e, p)]
    return max(betas), min(betas)


def gibbs(e, beta: float) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    t = beta * e
    w = np.exp(-(t - t.min()))
    return w / w.sum()


def shannon(p) -> float:
    q = np.asarray(p, dtype=float)
    q = q[q > 1e-14]
    return float(-(q * np.log(q)).sum())


def von_neumann(rho) -> float:
    return shannon(np.linalg.eigvalsh(rho))


def gibbs_moments(e, beta: float) -> tuple[float, float, float]:
    """(mean energy, entropy, energy variance) of the Gibbs state at beta."""
    e = np.asarray(e, dtype=float)
    g = gibbs(e, beta)
    mean = float(g @ e)
    return mean, shannon(g), float(g @ (e - mean) ** 2)


def gibbs_stochastic_optimum(e, p, beta_bath: float, maximize: bool) -> float:
    """Optimum of e.(G p) - e.p over column-stochastic G >= 0 with G g = g.

    Solved with scipy's HiGHS, an LP solver independent of the program's
    simplex.
    """
    from scipy.optimize import linprog

    e = np.asarray(e, dtype=float)
    p = np.asarray(p, dtype=float)
    d = e.size
    g = gibbs(e, beta_bath)
    # x[i*d + j] = G[i, j]
    cost = np.outer(e, p).ravel()
    cols = np.kron(np.ones((1, d)), np.eye(d))
    fixed = np.kron(np.eye(d), g[None, :])
    a_eq = np.vstack([cols, fixed])
    b_eq = np.concatenate([np.ones(d), g])
    res = linprog(-cost if maximize else cost, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    value = -res.fun if maximize else res.fun
    return float(value - e @ p)


def tensor_power_pairs(p, e, n_max: int):
    """(beta_c, beta_h) of n = 1..n_max copies by enumerating all d**n
    product populations and energy sums; energies must be integers so sums
    group exactly."""
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    logp = np.log(p)
    lp, es = np.zeros(1), np.zeros(1)
    out = []
    for _ in range(n_max):
        lp = (lp[:, None] + logp[None, :]).ravel()
        es = (es[:, None] + e[None, :]).ravel()
        levels = np.unique(es)
        hi = np.array([lp[es == lv].max() for lv in levels])
        lo = np.array([lp[es == lv].min() for lv in levels])
        gap = levels[None, :] - levels[:, None]
        upper = np.triu(np.ones(gap.shape, dtype=bool), 1)
        cold = (hi[:, None] - lo[None, :])[upper] / gap[upper]
        hot = (lo[:, None] - hi[None, :])[upper] / gap[upper]
        out.append((float(cold.max()), float(hot.min())))
    return out


def qutrit_state(lam: float, beta: float) -> np.ndarray:
    """(1 - lam) gibbs(beta) + lam |psi><psi| with |psi> the uniform superposition."""
    psi = np.ones(3) / math.sqrt(3.0)
    return (1.0 - lam) * np.diag(gibbs(QUTRIT_ENERGIES, beta)) + lam * np.outer(psi, psi)


def qutrit_rotation() -> np.ndarray:
    """pi/4 planar rotation inside span{|01>,|10>} and span{|20>,|11>}
    (joint index 2a + r), the first vector of each pair gaining population."""
    v = np.eye(6)
    c = 1.0 / math.sqrt(2.0)
    for first, second in ((1, 2), (4, 3)):
        v[first, first] = v[second, second] = c
        v[first, second] = c
        v[second, first] = -c
    return v


def _joint(v, rho_a, phi):
    return v @ np.kron(rho_a, phi) @ v.conj().T


def trace_out_second(joint, d1: int, d2: int) -> np.ndarray:
    return np.einsum("ikjk->ij", joint.reshape(d1, d2, d1, d2))


def trace_out_first(joint, d1: int, d2: int) -> np.ndarray:
    return np.einsum("kikj->ij", joint.reshape(d1, d2, d1, d2))


def qutrit_frame_channel(lam: float, beta: float):
    v = qutrit_rotation()
    rho_a = qutrit_state(lam, beta)
    return lambda phi: trace_out_first(_joint(v, rho_a, phi), 3, 2)


def qutrit_marginal(lam: float, beta: float, phi) -> np.ndarray:
    return trace_out_second(_joint(qutrit_rotation(), qutrit_state(lam, beta), phi), 3, 2)


def averaged_fixed_point(channel, dim: int) -> np.ndarray:
    """Cesaro fixed point of a channel from I/dim: the limit of the averaged
    map (1 + Phi)/2 applied to I/dim, by repeated squaring of its matrix."""
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        m[:, k] = channel(unit.reshape(dim, dim)).ravel()
    a = (np.eye(dim * dim) + m) / 2
    for _ in range(40):
        a = a @ a
    x = (a @ (np.eye(dim, dtype=complex) / dim).ravel()).reshape(dim, dim)
    x = (x + x.conj().T) / 2
    return x / np.trace(x).real


def jc_propagator(fock: int, omega: float, g: float, t: float) -> np.ndarray:
    """exp(-i H t) of the resonant Jaynes-Cummings model, truncated cavity.

    Joint index 2k + s (cavity k, atom s = 0 ground, 1 excited).  H is block
    diagonal: |0,g> alone at energy 0; {|m,g>, |m-1,e>} at energy omega m
    coupled by g sqrt(m); and |fock-1, e> alone at energy omega fock.
    """
    u = np.zeros((2 * fock, 2 * fock), dtype=complex)
    u[0, 0] = 1.0
    for m in range(1, fock):
        a, b = 2 * m, 2 * (m - 1) + 1
        phase = np.exp(-1j * omega * m * t)
        c, s = math.cos(g * math.sqrt(m) * t), math.sin(g * math.sqrt(m) * t)
        u[a, a] = u[b, b] = phase * c
        u[a, b] = u[b, a] = -1j * phase * s
    top = 2 * (fock - 1) + 1
    u[top, top] = np.exp(-1j * omega * fock * t)
    return u


def uniform_superposition(d: int) -> np.ndarray:
    psi = np.ones(d, dtype=complex) / math.sqrt(d)
    return np.outer(psi, psi.conj())


def trace_distance(a, b) -> float:
    return float(np.abs(np.linalg.eigvalsh((a - b + (a - b).conj().T) / 2)).sum() / 2)


def jc_row(fock: int, omega: float, g: float, t: float, atom0) -> list[float]:
    """One time-series row: t, cavity (beta_c, beta_h), atom (beta_c, beta_h),
    atom trace distance to its start, cavity off-diagonal l1 norm."""
    u = jc_propagator(fock, omega, g, t)
    joint = u @ np.kron(uniform_superposition(fock), atom0) @ u.conj().T
    sigma_a = trace_out_second(joint, fock, 2)
    sigma_r = trace_out_first(joint, fock, 2)
    cav = single_pair(omega * np.arange(fock), np.diag(sigma_a).real)
    atom = single_pair([0.0, omega], np.diag(sigma_r).real)
    coherence = float(np.abs(sigma_a - np.diag(np.diag(sigma_a))).sum())
    return [t, cav[0], cav[1], atom[0], atom[1], trace_distance(sigma_r, atom0), coherence]


def jc_return_residual(fock: int, omega: float, g: float, tau: float, atom) -> float:
    """max |Tr_A[U(tau)(rho_A (x) X)U(tau)^dag] - X| for the atom state X."""
    u = jc_propagator(fock, omega, g, tau)
    joint = u @ np.kron(uniform_superposition(fock), atom) @ u.conj().T
    return float(np.abs(trace_out_first(joint, fock, 2) - atom).max())
