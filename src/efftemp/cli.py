"""Command-line interface: file ingestion, subcommands, CSV/JSON emission.

Input files are JSON with either of two state forms:

    {"energies": [...], "populations": [...]}
    {"energies": [...], "rho_re": [[...]], "rho_im": [[...]]}

(`rho_im` may be omitted for real states); a file that gives both forms is
rejected.  Every report is printed as JSON in
the layout of json.dumps(..., sort_keys=True, indent=2): sorted keys, a 2-space
indent, floats as their repr, strings with ASCII escapes, and non-finite floats
as the strings "inf"/"-inf"/"nan" so the output stays strict JSON.  Exit codes:
0 success, 1 input/usage error, 2 numerical/solver failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import catalysis, oracle, temperatures, thermal
from .linalg import SolverError, ValidationError
from .temperatures import AsymptoticRequest
from .thermal import QuantumSystem

CSV_FLOAT_FORMAT = "%.12g"
SWEEP_GRID_POINTS = 41
# the most --random systems one oracle run takes, 5 baths each
_MAX_RANDOM_SYSTEMS = 100_000


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
    except (TypeError, ValueError, OverflowError) as exc:  # an int past the float range overflows
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
    if "populations" in doc and ("rho_re" in doc or "rho_im" in doc):
        raise ValidationError(f"{path}: give either 'populations' or 'rho_re', not both")
    energies = _floats(path, "energies", doc["energies"])
    if "populations" in doc:
        rho = _floats(path, "populations", doc["populations"])
        if rho.ndim != 1:
            raise ValidationError(f"{path}: populations must be a flat list")
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


_quote = json.encoder.encode_basestring_ascii


def _columns(table: np.ndarray) -> list[np.ndarray] | None:
    """The 1-D int and float columns of a table, or None if `table` is not one.

    A table is a 2-D int or float array, or a 1-D structured array whose
    fields are int and float scalars, such as the vts of `single`.
    """
    if table.dtype.names:
        columns = [table[name] for name in table.dtype.names] if table.ndim == 1 else []
    else:
        columns = list(table.T) if table.ndim == 2 else []
    if columns and all(c.ndim == 1 and c.dtype.kind in "iuf" for c in columns):
        return columns
    return None


def _cells(columns: list[np.ndarray], float_format: str, sep: str) -> tuple[str, list]:
    """(a row's %-format, the cells as Python numbers in row-major order).

    The row format joins by `sep` one %d per int column and one
    `float_format` per float column.
    """
    k = len(columns)
    cells = [None] * (k * columns[0].size)
    for c, column in enumerate(columns):
        cells[c::k] = column.tolist()
    return sep.join([float_format if c.dtype.kind == "f" else "%d" for c in columns]), cells


def _encode_table(columns: list[np.ndarray], nl: str) -> str:
    """A table as _encode writes the list of its rows, in one % over the whole text."""
    rows = columns[0].size
    if not rows:
        return "[]"
    inner = nl + "  "
    deeper = inner + "  "
    # %s, not %r: a non-finite cell becomes its JSON string, which must go
    # out as it is, and str(float) is repr(float)
    row, cells = _cells(columns, "%s", "," + deeper)
    k = len(columns)
    for c, column in enumerate(columns):
        if column.dtype.kind == "f":
            for r in np.flatnonzero(~np.isfinite(column)).tolist():
                cells[r * k + c] = _encode(cells[r * k + c], nl)
    row = "[" + deeper + row + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * rows) + nl + "]") % tuple(cells)


def _encode(value, nl: str) -> str:
    """`value` as json.dumps(..., sort_keys=True, indent=2) writes it on a line
    that starts at `nl`, with numpy values as Python ones, dict keys as str(key),
    non-finite floats as the strings "inf", "-inf" and "nan", and a table
    (see `_columns`) as the list of its rows."""
    inner = nl + "  "
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        parts, brackets = [_quote(k) + ": " + _encode(v, inner) for k, v in items], "{}"
    elif isinstance(value, (list, tuple)):
        parts, brackets = [_encode(v, inner) for v in value], "[]"
    elif isinstance(value, str):
        return _quote(value)
    elif isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return float.__repr__(v)
        return '"nan"' if math.isnan(v) else '"inf"' if v > 0 else '"-inf"'
    elif isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    elif isinstance(value, np.ndarray):
        columns = _columns(value)
        return _encode(value.tolist(), nl) if columns is None else _encode_table(columns, nl)
    elif value is None:
        return "null"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1] if parts else brackets


def _emit(report: dict) -> None:
    sys.stdout.write(_encode(report, "\n") + "\n")
    sys.stdout.flush()  # a closed pipe must fail here, inside main's handler


def _write_csv(path: str, header: tuple[str, ...], table: np.ndarray) -> None:
    """Write a table (see `_columns`) under `header`: %d for int cells, %.12g for float ones."""
    row, cells = _cells(_columns(table), CSV_FLOAT_FORMAT, ",")
    rows = "".join([row + "\n"] * len(table))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n" + rows % tuple(cells))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _matrix_fields(m: np.ndarray) -> dict:
    return {"re": m.real, "im": m.imag}


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
    vts = np.rec.fromarrays((spectrum.low, spectrum.high, spectrum.beta), names="i,j,beta_ij")
    results = {
        "beta_c": pair.beta_c,
        "beta_h": pair.beta_h,
        "beta_star": thermal.t_star(system),
        "vts": vts,
    }
    warnings: list[str] = []
    if args.kelvin:
        _add_kelvin(results, warnings, ("beta_c", "beta_h", "beta_star"))
    if args.out:
        _write_csv(args.out, vts.dtype.names, vts)
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
    if args.random is not None and args.random > _MAX_RANDOM_SYSTEMS:
        raise ValidationError(f"--random must be at most {_MAX_RANDOM_SYSTEMS}, got {args.random}")
    verdict = oracle.heat_sign_oracle(system, args.beta_bath)
    pair = temperatures.single_copy_effective(system)
    predicted_cool, predicted_heat = oracle.predicted_verdicts(pair, args.beta_bath)
    results = {
        "beta_bath": args.beta_bath,
        "max_energy_gain": verdict.gain.value,
        "max_energy_loss": 0.0 - verdict.loss.value,  # a loss of exactly 0 is 0.0, not -0.0
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


def cmd_qutrit_catalyst(args) -> tuple[dict, list, str]:
    if args.sweep and args.copies is not None:
        raise ValidationError("--sweep and --copies are mutually exclusive")
    if args.copies is not None and args.copies < 1:
        raise ValidationError(f"--copies must be at least 1, got {args.copies}")
    params = {"lambda": args.lam, "beta": args.beta}
    warnings: list[str] = []
    # every mode checks --lambda and --beta as one setup
    setup = catalysis.QutritCatalystSetup(lam=args.lam, beta=args.beta)

    if args.copies is not None:
        system = QuantumSystem(energies=catalysis.QUTRIT_ENERGIES, rho=setup.rho_a)
        pairs = temperatures.tensor_power_pairs(system, args.copies)
        rows = np.column_stack([np.arange(1.0, args.copies + 1), pairs])
        results = {"copies": rows}
        if args.out:
            _write_csv(args.out, ("n", "beta_c", "beta_h"), rows)
            results["csv"] = args.out
        return results, warnings, _params_digest({**params, "copies": args.copies})

    if args.sweep:
        setup = catalysis.QutritCatalystSetup(
            lam=np.linspace(0.0, 1.0, SWEEP_GRID_POINTS), beta=args.beta)
    # the frame tuned at each lambda, the protocol run with it, and the
    # frame's return error: one stacked solve for the sweep's whole grid
    tuned = catalysis.tune_catalyst(setup)
    run = catalysis.qutrit_catalyst_protocol(
        catalysis.QutritCatalystSetup(lam=setup.lam, beta=setup.beta, phi_r=tuned))
    residual = np.abs(run.sigma_r - tuned).max(axis=(-2, -1))

    if args.sweep:
        rows = np.column_stack([setup.lam, run.temps.beta_c, run.temps.beta_h, residual])
        results = {"sweep": rows, "grid_points": SWEEP_GRID_POINTS}
        if args.out:
            _write_csv(args.out, ("lambda", "beta_c", "beta_h", "catalyst_residual"), rows)
            results["csv"] = args.out
        return results, warnings, _params_digest({**params, "sweep": True})

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in any form float() reads is a value, not an
        # option: argparse's own pattern has no exponent, inf or nan, so
        # -1e-05 and -inf would be flags
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

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
