"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`) and fails loudly on any violated bound.
"""

import math
import time

import numpy as np

from conftest import diag_system, inject_coherences, random_energies
from efftemp import linalg, oracle
from efftemp.catalysis import (
    QUTRIT_ENERGIES,
    JCConfig,
    QutritCatalystSetup,
    qutrit_catalyst_protocol,
    qutrit_state,
    run_time_series,
    solve_catalyst_fixed_point,
    uniform_superposition_state,
)
from efftemp.temperatures import (
    AsymptoticRequest,
    asymptotic_branch,
    asymptotic_effective,
    expansion_effective,
    single_copy_effective,
    tensor_power_effective,
)
from efftemp.thermal import QuantumSystem, gibbs_by_beta, t_star


def report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_qutrit_catalyst_closed_form():
    start = time.perf_counter()
    setup = QutritCatalystSetup(lam=1.0, beta=0.0)
    result = qutrit_catalyst_protocol(setup)
    expected_diag = np.array([4 + math.sqrt(2), 4 - 2 * math.sqrt(2), 4 + math.sqrt(2)]) / 12
    expected_beta = math.log(5 / 2 + 3 / math.sqrt(2))
    diag_err = float(np.abs(np.diag(result.sigma_a).real - expected_diag).max())
    beta_err = max(
        abs(result.temps.beta_c - expected_beta), abs(result.temps.beta_h + expected_beta)
    )
    marginal = linalg.trace_distance(result.sigma_r, setup.phi_r)
    elapsed = time.perf_counter() - start
    ok = diag_err <= 1e-12 and beta_err <= 1e-9 and marginal < 1e-9 and elapsed < 1.0
    report(
        "criterion 1: qutrit-catalyst closed form",
        ok,
        f"diag {diag_err:.2e}, beta {beta_err:.2e}, marginal {marginal:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_jaynes_cummings_anchors():
    start = time.perf_counter()
    config = JCConfig(omega=1.0, g=0.1, fock_levels=3, tau=28.5)
    cavity = uniform_superposition_state(3)
    solved = solve_catalyst_fixed_point(config, cavity)
    series = run_time_series(config, cavity, solved.catalyst_state).time_series
    k_tau = int(np.argmin(np.abs(config.time_grid - config.tau)))
    elapsed = time.perf_counter() - start
    residual_ok = solved.fixed_point_residual < 1e-10
    return_ok = series[k_tau, 5] < 1e-6
    coherence_ok = series[k_tau, 6] < series[0, 6]
    beta0_ok = abs(series[0, 1]) <= 1e-12 and abs(series[0, 2]) <= 1e-12
    ok = residual_ok and return_ok and coherence_ok and beta0_ok and elapsed < 10.0
    report(
        "criterion 2: Jaynes-Cummings anchors",
        ok,
        f"residual {solved.fixed_point_residual:.1e}, return {series[k_tau, 5]:.1e}, "
        f"coherence {series[0, 6]:.3f}->{series[k_tau, 6]:.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    result = oracle.equivalence_trials(200, 5, seed=20240817)
    elapsed = time.perf_counter() - start
    ok = (
        result.cases == 1000
        and result.disagreements == 0
        and result.max_polytope_residual <= 1e-9
        and elapsed < 60.0
    )
    report(
        "criterion 3: LP oracle equivalence",
        ok,
        f"{result.cases - result.disagreements}/{result.cases} agree, "
        f"residual {result.max_polytope_residual:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_swap_protocol_formula():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        system = diag_system(random_energies(rng, dim), rng.dirichlet(np.ones(dim)))
        beta_bath = float(rng.uniform(-2.0, 2.0))
        protocol = oracle.build_cooling_protocol(system, beta_bath)
        simulated = oracle.simulated_protocol_heat(system, beta_bath, protocol.pair)
        worst = max(worst, abs(simulated - protocol.heat_to_thermometer))
    qubit = diag_system([0.0, 1.0], [0.8, 0.2])
    boundary = oracle.build_cooling_protocol(
        qubit, single_copy_effective(qubit).beta_c
    )
    ok = worst <= 1e-12 and boundary.delta_ij == 0.0
    report(
        "criterion 4: swap protocol vs joint-unitary simulation",
        ok,
        f"max |heat gap| {worst:.2e}, boundary transfer {boundary.delta_ij}",
    )


def test_criterion_5_asymptotic_consistency():
    rng = np.random.default_rng(42)
    # Gibbs inputs: both branches within 1e-2 of beta* at delta = 1e-3
    worst_gibbs = 0.0
    for beta in (-1.5, -0.4, 0.3, 1.1, 2.5):
        e = random_energies(rng, 4)
        system = diag_system(e, gibbs_by_beta(e, beta).populations)
        pair = asymptotic_effective(AsymptoticRequest(system=system, delta=1e-3))
        beta_star = t_star(system)
        worst_gibbs = max(
            worst_gibbs, abs(pair.beta_c - beta_star), abs(pair.beta_h - beta_star)
        )
    # expansion error is O(delta^2): halving delta quarters the residual
    ratios = []
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        e = random_energies(rng, dim, spread=1.0)
        p = rng.dirichlet(np.ones(dim) * 2)
        system = diag_system(e, p)
        energy = system.mean_energy
        delta = 0.01 * min(e[-1] - energy, energy - e[0])
        for branch in ("cold", "hot"):
            def residual(d):
                req = AsymptoticRequest(system=system, delta=d)
                exact = asymptotic_branch(req, branch)
                pair = expansion_effective(req)
                approx = pair.beta_c if branch == "cold" else pair.beta_h
                return abs(approx - exact)

            ratios.append(residual(delta) / residual(delta / 2))
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)
    ok = worst_gibbs < 1e-2 and ratios_ok
    report(
        "criterion 5: asymptotic consistency",
        ok,
        f"Gibbs gap {worst_gibbs:.2e}, ratio range "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] over {len(ratios)} checks",
    )


def test_criterion_6_ordering_and_broadening():
    rng = np.random.default_rng(11)
    ordering_ok = True
    for _ in range(200):
        dim = int(rng.integers(3, 5))
        e = random_energies(rng, dim)
        p = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
        system = diag_system(e, p)
        pair = single_copy_effective(system)
        beta_star = t_star(system)
        ordering_ok &= pair.beta_h <= beta_star + 1e-10 <= pair.beta_c + 2e-10

    system = QuantumSystem(energies=QUTRIT_ENERGIES, rho=qutrit_state(0.5, 1.0))
    pairs = [tensor_power_effective(system, n) for n in range(1, 6)]
    broadening_ok = all(
        b.beta_c >= a.beta_c - 1e-9 and b.beta_h <= a.beta_h + 1e-9
        for a, b in zip(pairs, pairs[1:])
    )

    coherence_ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        e = random_energies(rng, dim)
        rho = np.diag(rng.dirichlet(np.ones(dim) + 1)).astype(complex)
        base = single_copy_effective(QuantumSystem(energies=e, rho=rho))
        noisy = single_copy_effective(
            QuantumSystem(energies=e, rho=inject_coherences(rng, rho))
        )
        coherence_ok &= (noisy.beta_c == base.beta_c) and (noisy.beta_h == base.beta_h)

    ok = ordering_ok and broadening_ok and coherence_ok
    report(
        "criterion 6: ordering, broadening, coherence invariance",
        ok,
        f"ordering {ordering_ok}, broadening {broadening_ok}, coherence {coherence_ok}",
    )


def test_criterion_7_full_scale_reproducibility():
    # every quantitative claim is desk-scale; nothing requires substitution,
    # so there is nothing to degrade gracefully here
    report("criterion 7: no out-of-reach full-scale results", True, "nothing to substitute")
