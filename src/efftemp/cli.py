"""Command-line interface: file ingestion, subcommands, CSV/JSON emission.

Input files are JSON with either of two state forms:

    {"energies": [...], "populations": [...]}
    {"energies": [...], "rho_re": [[...]], "rho_im": [[...]]}

(`rho_im` may be omitted for real states).  All reports are printed as JSON
with deterministic key order; non-finite floats are emitted as the strings
"inf"/"-inf"/"nan" so the output stays strict JSON.  Exit codes: 0 success,
1 input/usage error, 2 numerical/solver failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import catalysis, oracle, temperatures, thermal
from .linalg import SolverError, ValidationError
from .temperatures import AsymptoticRequest
from .thermal import QuantumSystem

CSV_FLOAT_FORMAT = "%.12g"
SWEEP_GRID_POINTS = 41


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _params_digest(params: dict) -> str:
    return _digest(json.dumps(params, sort_keys=True).encode())


def _has_bool(value) -> bool:
    """True if a parsed JSON value is, or holds at any depth, a boolean."""
    kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
    return bool in kinds or (list in kinds and any(map(_has_bool, value)))


def _floats(path: str, field: str, value) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {field} must be numeric: {exc}")
    # numpy reads true/false as 1/0, which would let a boolean pass as a
    # number; a converted value nests at most 64 deep, so this check is shallow
    if _has_bool(value):
        raise ValidationError(f"{path}: {field} must be numeric, not boolean")
    return array


def load_system_file(path: str) -> tuple[QuantumSystem, str]:
    """Parse a SystemFile and return (system, content digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax, encoding or nesting
        raise ValidationError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "energies" not in doc:
        raise ValidationError(f"{path}: expected an object with an 'energies' field")
    energies = _floats(path, "energies", doc["energies"])
    if "populations" in doc:
        p = _floats(path, "populations", doc["populations"])
        if p.ndim != 1:
            raise ValidationError(f"{path}: populations must be a flat list")
        rho = np.diag(p).astype(complex)
    elif "rho_re" in doc:
        re = _floats(path, "rho_re", doc["rho_re"])
        im = _floats(path, "rho_im", doc.get("rho_im", np.zeros_like(re)))
        if re.shape != im.shape:
            raise ValidationError(f"{path}: rho_re and rho_im shapes differ")
        # assigned, not re + 1j * im: 1j * inf would warn and make a NaN real part
        rho = re.astype(complex)
        rho.imag = im
    else:
        raise ValidationError(f"{path}: need either 'populations' or 'rho_re'")
    try:
        system = QuantumSystem(energies=energies, rho=rho)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}")
    return system, _digest(raw)


def _jsonable(value):
    """Make a value JSON-serializable with non-finite floats as strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    sys.stdout.flush()  # a closed pipe must fail here, inside main's handler


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    row_format = ",".join([CSV_FLOAT_FORMAT] * len(header))
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in np.asarray(rows, dtype=float).tolist()]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _matrix_fields(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _kelvin(beta: float) -> float:
    if beta == 0.0:
        return math.inf
    if math.isinf(beta):
        return 0.0
    return 1.0 / beta


KELVIN_NOTE = (
    "Kelvin-style values are T = 1/beta with k_B = 1: beta = 0 maps to T = inf, "
    "beta = +/-inf to T = 0, and negative beta to negative T; T is not monotone "
    "in hotness across sign changes, unlike beta."
)


def _add_kelvin(results: dict, warnings: list, keys: tuple[str, ...]) -> None:
    results["kelvin"] = {k: _kelvin(results[k]) for k in keys if k in results}
    warnings.append(KELVIN_NOTE)


# ---------------------------------------------------------------------------
# subcommands


def cmd_single(args) -> tuple[dict, list, str]:
    system, digest = load_system_file(args.path)
    pair = temperatures.single_copy_effective(system)
    spectrum = temperatures.virtual_spectrum(system)
    results = {
        "beta_c": pair.beta_c,
        "beta_h": pair.beta_h,
        "beta_star": thermal.t_star(system),
        "vts": [[i, j, b] for i, j, b in spectrum.entries],
    }
    warnings: list[str] = []
    if args.kelvin:
        _add_kelvin(results, warnings, ("beta_c", "beta_h", "beta_star"))
    if args.out:
        _write_csv(args.out, ("i", "j", "beta_ij"), results["vts"])
        results["csv"] = args.out
    return results, warnings, digest


def cmd_asymptotic(args) -> tuple[dict, list, str]:
    system, digest = load_system_file(args.path)
    request = AsymptoticRequest(system=system, delta=args.delta)
    pair = temperatures.asymptotic_effective(request)
    cold, hot = pair.cold, pair.hot
    results = {
        "delta": args.delta,
        "mean_energy": system.mean_energy,
        "state_entropy": system.entropy,
        "beta_c": pair.beta_c,
        "beta_h": pair.beta_h,
        "gibbs_cold": {"beta": cold.beta, "mean_energy": cold.mean_energy, "entropy": cold.entropy},
        "gibbs_hot": {"beta": hot.beta, "mean_energy": hot.mean_energy, "entropy": hot.entropy},
    }
    warnings: list[str] = []
    if args.expansion:
        expansion = temperatures.expansion_effective(request)
        results["expansion"] = {
            "beta_c": expansion.beta_c,
            "beta_h": expansion.beta_h,
            "beta_star": expansion.matched.beta,
            "energy_variance": expansion.matched.energy_variance,
        }
    if args.kelvin:
        _add_kelvin(results, warnings, ("beta_c", "beta_h"))
    return results, warnings, digest


def cmd_oracle(args) -> tuple[dict, list, str]:
    system, digest = load_system_file(args.path)
    if args.random is not None and args.seed is None:
        raise ValidationError("--random requires an explicit --seed")
    for flag, value in (("--random", args.random), ("--seed", args.seed)):
        if value is not None and value < 0:
            raise ValidationError(f"{flag} must be a non-negative integer, got {value}")
    verdict = oracle.heat_sign_oracle(system, args.beta_bath)
    pair = temperatures.single_copy_effective(system)
    predicted_cool, predicted_heat = oracle.predicted_verdicts(pair, args.beta_bath)
    results = {
        "beta_bath": args.beta_bath,
        "max_energy_gain": verdict.gain.value,
        "max_energy_loss": -verdict.loss.value,
        "can_cool": verdict.can_cool,
        "can_heat": verdict.can_heat,
        "predicted_cool": predicted_cool,
        "predicted_heat": predicted_heat,
        "agreement": (verdict.can_cool == predicted_cool) and (verdict.can_heat == predicted_heat),
    }
    warnings: list[str] = []
    if args.random is not None:
        report = oracle.equivalence_trials(args.random, 5, args.seed)
        results["random_trials"] = {
            "systems": args.random,
            "baths_per_system": 5,
            "seed": args.seed,
            "cases": report.cases,
            "disagreements": report.disagreements,
            "max_polytope_residual": report.max_polytope_residual,
        }
        if report.disagreements:
            warnings.append(f"{report.disagreements} oracle/formula disagreements")
    return results, warnings, digest


def cmd_jc(args) -> tuple[dict, list, str]:
    params = {
        "omega": args.omega,
        "g": args.g,
        "tau": args.tau,
        "fock": args.fock,
        "steps": args.steps,
    }
    config = catalysis.JCConfig(
        omega=args.omega, g=args.g, fock_levels=args.fock, tau=args.tau, steps=args.steps
    )
    cavity = catalysis.uniform_superposition_state(args.fock)
    solved = catalysis.solve_catalyst_fixed_point(config, cavity)
    series = catalysis.run_time_series(config, cavity, solved.catalyst_state)
    rows = series.time_series
    k_tau = int(np.argmin(np.abs(rows[:, 0] - args.tau)))  # column 0 is the time grid
    results = {
        "fixed_point_residual": solved.fixed_point_residual,
        "catalyst_state": _matrix_fields(solved.catalyst_state),
        "boundary_occupancy": series.boundary_occupancy,
        "atom_distance_at_tau": rows[k_tau, 5],
        "cavity_coherence_initial": rows[0, 6],
        "cavity_coherence_at_tau": rows[k_tau, 6],
        "cavity_beta_c_initial": rows[0, 1],
        "cavity_beta_h_initial": rows[0, 2],
        "samples": int(rows.shape[0]),
    }
    warnings = [
        "truncated cavity: population of the top Fock level with the atom excited "
        f"peaks at {series.boundary_occupancy:.6g}; raise --fock to test convergence"
    ]
    if args.out:
        _write_csv(args.out, catalysis.TIME_SERIES_COLUMNS, rows)
        results["csv"] = args.out
    return results, warnings, _params_digest(params)


def _tuned_run(lam: float, beta: float):
    """Tune the frame at (lam, beta), run the protocol: (run, frame, frame return error)."""
    tuned = catalysis.tune_catalyst(catalysis.QutritCatalystSetup(lam=lam, beta=beta))
    run = catalysis.qutrit_catalyst_protocol(
        catalysis.QutritCatalystSetup(lam=lam, beta=beta, phi_r=tuned)
    )
    return run, tuned, float(np.abs(run.sigma_r - tuned).max())


def cmd_qutrit_catalyst(args) -> tuple[dict, list, str]:
    if args.sweep and args.copies is not None:
        raise ValidationError("--sweep and --copies are mutually exclusive")
    if args.copies is not None and args.copies < 1:
        raise ValidationError(f"--copies must be at least 1, got {args.copies}")
    params = {"lambda": args.lam, "beta": args.beta}
    warnings: list[str] = []

    if args.sweep:
        rows = []
        for lam in np.linspace(0.0, 1.0, SWEEP_GRID_POINTS):
            run, _, residual = _tuned_run(float(lam), args.beta)
            rows.append((float(lam), run.temps.beta_c, run.temps.beta_h, residual))
        results = {"sweep": [list(r) for r in rows], "grid_points": SWEEP_GRID_POINTS}
        if args.out:
            _write_csv(args.out, ("lambda", "beta_c", "beta_h", "catalyst_residual"), rows)
            results["csv"] = args.out
        return results, warnings, _params_digest({**params, "sweep": True})

    if args.copies is not None:
        system = QuantumSystem(
            energies=catalysis.QUTRIT_ENERGIES, rho=catalysis.qutrit_state(args.lam, args.beta)
        )
        pairs = temperatures.tensor_power_pairs(system, args.copies).tolist()
        rows = [(float(n), beta_c, beta_h) for n, (beta_c, beta_h) in enumerate(pairs, 1)]
        results = {"copies": [list(r) for r in rows]}
        if args.out:
            _write_csv(args.out, ("n", "beta_c", "beta_h"), rows)
            results["csv"] = args.out
        return results, warnings, _params_digest({**params, "copies": args.copies})

    run, tuned, residual = _tuned_run(args.lam, args.beta)
    results = {
        "beta_c": run.temps.beta_c,
        "beta_h": run.temps.beta_h,
        "sigma_a": _matrix_fields(run.sigma_a),
        "catalyst": _matrix_fields(tuned),
        "catalyst_residual": residual,
        "reference_frame_distance": float(
            np.abs(tuned - catalysis.reference_catalyst()).max()
        ),
        "correlation_norm": run.correlation_norm,
    }
    if args.kelvin:
        _add_kelvin(results, warnings, ("beta_c", "beta_h"))
    return results, warnings, _params_digest(params)


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), reported like any other
    def error(self, message):
        raise ValidationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="efftemp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="effective temperatures of a state file")
    p.add_argument("path")
    p.add_argument("--out", help="write the virtual temperature spectrum as CSV")
    p.add_argument("--kelvin", action="store_true")

    p = sub.add_parser("asymptotic", help="heat-constrained asymptotic temperatures")
    p.add_argument("path")
    p.add_argument("--delta", type=float, required=True, help="heat per copy (> 0)")
    p.add_argument("--expansion", action="store_true", help="also report the small-delta expansion")
    p.add_argument("--kelvin", action="store_true")

    p = sub.add_parser("oracle", help="thermo-majorization heat-flow verdicts vs the closed form")
    p.add_argument("path")
    p.add_argument("--beta-bath", type=float, required=True, dest="beta_bath")
    p.add_argument("--random", type=int, help="run N random equivalence trials")
    p.add_argument("--seed", type=int, help="seed for --random (required with it)")

    p = sub.add_parser("jc", help="Jaynes-Cummings catalyst run and time series")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=28.5)
    p.add_argument("--fock", type=int, default=3)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--out", help="write the time-series CSV here")

    p = sub.add_parser("qutrit-catalyst", help="qubit-frame protocol on the qutrit family")
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--sweep", action="store_true", help="emit a lambda-grid CSV")
    p.add_argument("--copies", type=int, help="emit the n-copies broadening table")
    p.add_argument("--out")
    p.add_argument("--kelvin", action="store_true")

    return parser


_COMMANDS = {
    "single": cmd_single,
    "asymptotic": cmd_asymptotic,
    "oracle": cmd_oracle,
    "jc": cmd_jc,
    "qutrit-catalyst": cmd_qutrit_catalyst,
}


def _echo_params(args: argparse.Namespace) -> dict:
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    # parsing names the subcommand in args before it can fail on its options
    args = argparse.Namespace(command=None)
    params = {}
    try:
        build_parser().parse_args(argv, args)
        params = _echo_params(args)
        results, warnings, digest = _COMMANDS[args.command](args)
    except SystemExit as exc:  # -h printed its help
        return int(exc.code or 0)
    except ValidationError as exc:
        report = {"error": str(exc), "status": 1}
    except SolverError as exc:
        report = {"error": str(exc), "status": 2}
    else:
        report = {"input_digest": digest, "results": results, "warnings": warnings, "status": 0}
    report.update(command=args.command, params=params)
    try:
        _emit(report)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report["status"]


if __name__ == "__main__":
    sys.exit(main())
