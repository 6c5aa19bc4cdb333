"""Checks of the program's outputs against `reference`, which does not use
the program.  Each check raises CheckFailed with a reason."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref

JC_HEADER = "t,beta_c_A,beta_h_A,beta_c_R,beta_h_R,atom_distance,cavity_coherence"
SWEEP_POINTS = 41


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    """What one operation produced."""

    rc: int | None
    stdout: str
    csv: str | None = None
    error: str | None = None  # exception raised out of cli.main


def _fail(msg: str):
    raise CheckFailed(msg)


def _f(x) -> float:
    # the program writes non-finite floats as "inf", "-inf", "nan"
    return float(x)


def _close(got, want, rtol: float, atol: float, what: str) -> None:
    got, want = _f(got), _f(want)
    if math.isinf(want) or math.isinf(got):
        if got != want:
            _fail(f"{what}: got {got!r}, want {want!r}")
        return
    if not abs(got - want) <= atol + rtol * abs(want):
        _fail(f"{what}: got {got!r}, want {want!r}")


def _matrix(field: dict) -> np.ndarray:
    return np.asarray(field["re"], dtype=float) + 1j * np.asarray(field["im"], dtype=float)


def _report(op, out: Outcome, status: int = 0) -> dict:
    if out.error is not None:
        _fail(f"raised out of cli.main: {out.error}")
    if out.rc != status:
        _fail(f"exit code {out.rc}, want {status}")
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        _fail(f"stdout is not one JSON report: {exc}")
    if report.get("status") != status or report.get("command") != op.argv[0]:
        _fail(f"report status {report.get('status')} / command {report.get('command')}")
    if status == 0:
        return report["results"]
    if not report.get("error"):
        _fail("error report without a message")
    return report


def _csv_rows(text: str | None, header: str) -> np.ndarray:
    if text is None:
        _fail("no CSV written")
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        _fail(f"CSV header {lines[0]!r}, want {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _state(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(doc["energies"], dtype=float)
    if "populations" in doc:
        return e, np.diag(np.asarray(doc["populations"], dtype=float)).astype(complex)
    return e, np.asarray(doc["rho_re"], dtype=float) + 1j * np.asarray(doc["rho_im"], dtype=float)


def _gibbs_mean_matches(e, beta, target, what: str) -> None:
    mean, _, _ = ref.gibbs_moments(e, _f(beta))
    _close(mean, target, 0.0, 1e-9 * max(1.0, abs(target)), what)


def check_single(op, out: Outcome) -> None:
    res = _report(op, out)
    e, rho = _state(op.expect["doc"])
    p = np.diag(rho).real
    want = ref.virtual_temperatures(e, p)
    got = res["vts"]
    if [(i, j) for i, j, _ in got] != [(i, j) for i, j, _ in want]:
        _fail("virtual temperature pairs differ from the pairwise closed form")
    for (i, j, b), (_, _, w) in zip(got, want):
        _close(b, w, 1e-10, 1e-12, f"beta_{i}{j}")
    betas = [w for _, _, w in want]
    _close(res["beta_c"], max(betas), 1e-10, 1e-12, "beta_c")
    _close(res["beta_h"], min(betas), 1e-10, 1e-12, "beta_h")
    _gibbs_mean_matches(e, res["beta_star"], float(p @ e), "Gibbs mean energy at beta_star")
    if op.csv is not None:
        rows = _csv_rows(out.csv, "i,j,beta_ij")
        if rows.shape != (len(want), 3):
            _fail(f"CSV shape {rows.shape}, want {(len(want), 3)}")
        for row, (i, j, w) in zip(rows, want):
            if (row[0], row[1]) != (i, j):
                _fail(f"CSV pair {row[:2]} out of order")
            _close(row[2], w, 1e-10, 1e-12, f"CSV beta_{i}{j}")


def check_oracle(op, out: Outcome) -> None:
    res = _report(op, out)
    x = op.expect
    e, rho = _state(x["doc"])
    p = np.diag(rho).real
    bath = x["beta_bath"]
    if x["tie"]:
        # a Gibbs input at the bath's own temperature neither cools nor heats
        want_cool = want_heat = False
    else:
        beta_c, beta_h = ref.single_pair(e, p)
        want_cool, want_heat = bath < beta_c, beta_h < bath
        if (res["predicted_cool"], res["predicted_heat"], res["agreement"]) != (
            want_cool, want_heat, True
        ):
            _fail("closed-form prediction fields disagree with beta_c/beta_h")
    if (res["can_cool"], res["can_heat"]) != (want_cool, want_heat):
        _fail(f"verdict {(res['can_cool'], res['can_heat'])}, want {(want_cool, want_heat)}")
    gain = ref.gibbs_stochastic_optimum(e, p, bath, maximize=True)
    loss = -ref.gibbs_stochastic_optimum(e, p, bath, maximize=False)
    _close(res["max_energy_gain"], gain, 0.0, 1e-9, "max_energy_gain vs HiGHS")
    _close(res["max_energy_loss"], loss, 0.0, 1e-9, "max_energy_loss vs HiGHS")
    if "random" in x:
        trials = res.get("random_trials")
        if trials is None:
            _fail("no random_trials block")
        n = x["random"]
        if (trials["systems"], trials["baths_per_system"], trials["seed"]) != (n, 5, x["seed"]):
            _fail("random_trials echoes the wrong parameters")
        if trials["cases"] != 5 * n:
            _fail(f"random_trials cases {trials['cases']}, want {5 * n}")
        if trials["disagreements"] != 0:
            _fail(f"{trials['disagreements']} oracle/closed-form disagreements")
        if not _f(trials["max_polytope_residual"]) <= 1e-9:
            _fail(f"polytope residual {trials['max_polytope_residual']} above 1e-9")


def check_asymptotic(op, out: Outcome) -> None:
    res = _report(op, out)
    e, rho = _state(op.expect["doc"])
    delta = op.expect["delta"]
    mean = float(np.diag(rho).real @ e)
    s_rho = ref.von_neumann(rho)
    _close(res["mean_energy"], mean, 1e-12, 1e-12, "mean_energy")
    _close(res["state_entropy"], s_rho, 1e-9, 1e-10, "state_entropy")
    tol_beta = 1e-9 / delta
    for name, target, sign in (("gibbs_cold", mean + delta, 1.0), ("gibbs_hot", mean - delta, -1.0)):
        block = res[name]
        _gibbs_mean_matches(e, block["beta"], target, f"{name} mean energy at its beta")
        g_mean, g_entropy, _ = ref.gibbs_moments(e, _f(block["beta"]))
        _close(block["mean_energy"], g_mean, 1e-12, 1e-12, f"{name}.mean_energy")
        _close(block["entropy"], g_entropy, 1e-10, 1e-10, f"{name}.entropy")
        key = "beta_c" if sign > 0 else "beta_h"
        want = sign * (g_entropy - s_rho) / delta
        _close(res[key], want, 1e-9, tol_beta, f"asymptotic {key}")
    exp = res["expansion"]
    _gibbs_mean_matches(e, exp["beta_star"], mean, "Gibbs mean energy at beta_star")
    _, s_star, var = ref.gibbs_moments(e, _f(exp["beta_star"]))
    _close(exp["energy_variance"], var, 1e-9, 1e-12, "energy_variance at beta_star")
    ds = max(0.0, s_star - s_rho)
    beta_star = _f(exp["beta_star"])
    _close(exp["beta_c"], ds / delta + beta_star - delta / (2 * var), 1e-9, tol_beta,
           "expansion beta_c")
    _close(exp["beta_h"], -ds / delta + beta_star + delta / (2 * var), 1e-9, tol_beta,
           "expansion beta_h")


def _check_qutrit_frame(lam: float, beta: float, phi: np.ndarray) -> None:
    if np.abs(phi - phi.conj().T).max() > 1e-10 or abs(np.trace(phi) - 1.0) > 1e-10:
        _fail("catalyst is not a unit-trace Hermitian matrix")
    if np.linalg.eigvalsh(phi).min() < -1e-10:
        _fail("catalyst has a negative eigenvalue")
    if np.abs(ref.qutrit_frame_channel(lam, beta)(phi) - phi).max() > 1e-9:
        _fail("catalyst does not return under the protocol")


def check_qutrit(op, out: Outcome) -> None:
    res = _report(op, out)
    lam, beta = op.expect["lam"], op.expect["beta"]
    phi = _matrix(res["catalyst"])
    _check_qutrit_frame(lam, beta, phi)
    want_phi = ref.averaged_fixed_point(ref.qutrit_frame_channel(lam, beta), 2)
    if np.abs(phi - want_phi).max() > 1e-8:
        _fail("catalyst differs from the Cesaro fixed point of the frame channel")
    sigma = ref.qutrit_marginal(lam, beta, phi)
    if np.abs(_matrix(res["sigma_a"]) - sigma).max() > 1e-10:
        _fail("sigma_a differs from the rotated marginal")
    beta_c, beta_h = ref.single_pair(ref.QUTRIT_ENERGIES, np.diag(sigma).real)
    _close(res["beta_c"], beta_c, 1e-9, 1e-12, "qutrit beta_c")
    _close(res["beta_h"], beta_h, 1e-9, 1e-12, "qutrit beta_h")
    if not _f(res["catalyst_residual"]) <= 1e-9:
        _fail(f"catalyst_residual {res['catalyst_residual']}")
    if lam == 1.0 and beta == 0.0:
        _close(res["beta_c"], ref.QUTRIT_BETA_C, 1e-9, 0.0, "beta_c = ln(5/2 + 3/sqrt 2)")
        _close(res["beta_h"], -ref.QUTRIT_BETA_C, 1e-9, 0.0, "beta_h = -ln(5/2 + 3/sqrt 2)")


def check_qutrit_sweep(op, out: Outcome) -> None:
    res = _report(op, out)
    beta = op.expect["beta"]
    rows = res["sweep"]
    if len(rows) != SWEEP_POINTS or res["grid_points"] != SWEEP_POINTS:
        _fail(f"sweep has {len(rows)} rows, want {SWEEP_POINTS}")
    for lam_want, (lam, beta_c, beta_h, residual) in zip(np.linspace(0, 1, SWEEP_POINTS), rows):
        _close(lam, lam_want, 0.0, 1e-15, "sweep lambda")
        phi = ref.averaged_fixed_point(ref.qutrit_frame_channel(lam, beta), 2)
        sigma = ref.qutrit_marginal(lam, beta, phi)
        want_c, want_h = ref.single_pair(ref.QUTRIT_ENERGIES, np.diag(sigma).real)
        _close(beta_c, want_c, 1e-7, 1e-9, f"sweep beta_c at lambda {lam}")
        _close(beta_h, want_h, 1e-7, 1e-9, f"sweep beta_h at lambda {lam}")
        if not _f(residual) <= 1e-9:
            _fail(f"sweep catalyst residual {residual} at lambda {lam}")
    if beta == 0.0:
        _close(rows[-1][1], ref.QUTRIT_BETA_C, 1e-9, 0.0, "sweep beta_c at lambda 1")
        _close(rows[-1][2], -ref.QUTRIT_BETA_C, 1e-9, 0.0, "sweep beta_h at lambda 1")


def check_qutrit_copies(op, out: Outcome) -> None:
    res = _report(op, out)
    x = op.expect
    rows = res["copies"]
    if len(rows) != x["copies"]:
        _fail(f"copies table has {len(rows)} rows, want {x['copies']}")
    p = np.diag(ref.qutrit_state(x["lam"], x["beta"])).real
    for n, ((m, beta_c, beta_h), (want_c, want_h)) in enumerate(
        zip(rows, ref.tensor_power_pairs(p, ref.QUTRIT_ENERGIES, x["copies"])), start=1
    ):
        if m != n:
            _fail(f"copies row {m}, want {n}")
        _close(beta_c, want_c, 1e-9, 1e-12, f"beta_c of {n} copies")
        _close(beta_h, want_h, 1e-9, 1e-12, f"beta_h of {n} copies")


def check_jc(op, out: Outcome) -> None:
    res = _report(op, out)
    x = op.expect
    fock, steps, g, tau = x["fock"], x["steps"], x["g"], x["tau"]
    atom = _matrix(res["catalyst_state"])
    if np.abs(atom - atom.conj().T).max() > 1e-10 or abs(np.trace(atom) - 1.0) > 1e-10:
        _fail("catalyst state is not a unit-trace Hermitian matrix")
    if np.linalg.eigvalsh(atom).min() < -1e-10:
        _fail("catalyst state has a negative eigenvalue")
    if ref.jc_return_residual(fock, 1.0, g, tau, atom) > 1e-9:
        _fail("X != Tr_A[U(tau)(rho_A (x) X)U(tau)^dag] under the reference propagator")
    if res["samples"] != steps + 1:
        _fail(f"samples {res['samples']}, want {steps + 1}")
    rows = _csv_rows(out.csv, JC_HEADER)
    if rows.shape != (steps + 1, 7):
        _fail(f"CSV shape {rows.shape}, want {(steps + 1, 7)}")
    grid = np.linspace(0.0, max(30.0, tau), steps + 1)
    if np.abs(rows[:, 0] - grid).max() > 1e-9:
        _fail("CSV time column is not the uniform grid")
    for k in x["rows"]:
        want = ref.jc_row(fock, 1.0, g, grid[k], atom)
        for col, (got_v, want_v) in enumerate(zip(rows[k], want)):
            rtol, atol = (1e-7, 1e-8) if col in (1, 2, 3, 4) else (1e-8, 1e-9)
            _close(got_v, want_v, rtol, atol, f"CSV row {k} column {col}")
    k_tau = x["k_tau"]
    _close(res["atom_distance_at_tau"], rows[k_tau, 5], 1e-9, 1e-12, "atom_distance_at_tau")
    if not _f(res["atom_distance_at_tau"]) <= 1e-9:
        _fail(f"atom does not return at tau: distance {res['atom_distance_at_tau']}")
    _close(res["cavity_coherence_initial"], fock - 1.0, 1e-12, 1e-12, "initial cavity coherence")


def check_malformed(op, out: Outcome) -> None:
    # a malformed input file is an input error: one status-1 JSON report
    _report(op, out, status=1)


CHECKS = {
    "single": check_single,
    "oracle": check_oracle,
    "asymptotic": check_asymptotic,
    "qutrit": check_qutrit,
    "qutrit_sweep": check_qutrit_sweep,
    "qutrit_copies": check_qutrit_copies,
    "jc": check_jc,
    "malformed": check_malformed,
}


def check(op, out: Outcome) -> str | None:
    """None when the output is right, else the reason it is not."""
    try:
        CHECKS[op.kind](op, out)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None
