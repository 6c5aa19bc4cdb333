"""Seeded input fuzz of every subcommand through `cli.main`, in process.

Valid state files and flag values are mutated: type swaps; NaN, +/-inf,
+/-1e308 and subnormal values; integers past the float range; ragged and
mismatched arrays; wrong field sets.  Every case must print exactly one
strict-JSON report (no NaN or Infinity token), exit with the report's
`status`, which is 0, 1 or 2, and write nothing to stderr.  pyproject.toml
turns a numpy RuntimeWarning into an error, so a case that warns fails too.

Every size drawn (array lengths, --fock, --steps, --copies, --random) is
well below its cap, or past it where a check must reject it before anything
is built: far past the float range, or one past the --random cap.
"""

import json
import math

import numpy as np
import pytest

from efftemp import cli

CASES = 400
# the share of state files and flag values that are mutated
ODD = 0.25
# an integer literal past the float range, as JSON and as a flag
HUGE = 10**400
SPECIAL_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, HUGE, -HUGE]
TYPE_SWAPS = ["0.5", "", None, True, False, {}, [], [[]], {"re": 1.0}, [None]]
ODD_FLOATS = [
    "nan", "inf", "-inf", "Infinity", "-nan", "1e308", "-1e308", "5e-324", "-5e-324",
    str(HUGE), f"-{HUGE}", "x", "", "0", "-0.0", "1e-5", "-1e-05", "0x10", "true",
]
# (valid, odd) values of each size flag
SIZES = {
    "--fock": (["2", "3", "5"], ["1", "0", "-1", "2.5", "x", "1e3", str(HUGE)]),
    "--steps": (["1", "7", "40"], ["0", "-3", "x", "1.0", str(HUGE)]),
    "--copies": (["1", "3", "9"], ["0", "-2", "x", str(HUGE)]),
    "--random": (["0", "1", "3"], ["-1", "x", "2.5", str(cli._MAX_RANDOM_SYSTEMS + 1)]),
    "--seed": (["0", "1", "7"], ["-1", "x", str(HUGE)]),
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def pick(rng, values):
    return values[rng.integers(len(values))]


def number(rng, low: float, high: float) -> str:
    """A float flag's value: in [low, high), or one of ODD_FLOATS."""
    return pick(rng, ODD_FLOATS) if rng.random() < ODD else repr(float(rng.uniform(low, high)))


def odd_value(rng):
    return pick(rng, SPECIAL_NUMBERS if rng.random() < 0.6 else TYPE_SWAPS)


def state_doc(rng) -> dict:
    """A valid state file: populations, or rho_re with or without rho_im."""
    d = int(rng.integers(1, 7))
    e = np.sort(rng.uniform(-2.0, 2.0, d))
    p = rng.dirichlet(np.ones(d))
    form = rng.integers(3)
    if form == 0:
        return {"energies": e.tolist(), "populations": p.tolist()}
    # a rank-2 mix of the dephased state and a pure state with its diagonal
    v = np.sqrt(p) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, d)) if form == 2 else np.sqrt(p)
    rho = 0.5 * np.diag(p) + 0.5 * np.outer(v, v.conj())
    doc = {"energies": e.tolist(), "rho_re": rho.real.tolist()}
    if form == 2:
        doc["rho_im"] = rho.imag.tolist()
    return doc


def mutate(rng, doc: dict):
    """One mutation of a state document, or none."""
    if rng.random() >= 2 * ODD:
        return doc
    name = pick(rng, list(doc))
    kind = rng.integers(1, 8)
    if kind == 1:  # one entry becomes a special number or another type
        value = doc[name]
        row = value[rng.integers(len(value))] if isinstance(value[0], list) else None
        target = row if row is not None else value
        target[rng.integers(len(target))] = odd_value(rng)
    elif kind == 2:  # the whole field becomes a scalar or another type
        doc[name] = odd_value(rng)
    elif kind == 3:  # ragged or mismatched: one list or one row grows or shrinks
        value = doc[name]
        target = value[rng.integers(len(value))] if isinstance(value[0], list) else value
        if rng.random() < 0.5 or len(target) == 1:
            target.append(0.0)
        else:
            target.pop()
    elif kind == 4:  # a required field goes missing
        del doc[name]
    elif kind == 5:  # a second form or an unknown field joins
        extra = "rho_re" if "populations" in doc else "populations"
        doc[extra if rng.random() < 0.5 else "temperature"] = doc["energies"][:]
    elif kind == 6:  # no object at the top
        return pick(rng, [[doc], 1.0, "state", None])
    else:  # one level nested one deeper
        doc[name] = [doc[name]]
    return doc


def state_file(rng, tmp_path) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(mutate(rng, state_doc(rng))), encoding="utf-8")
    return str(path)


def out_flag(rng, tmp_path) -> list[str]:
    if rng.random() < 0.7:
        return []
    where = tmp_path / "table.csv" if rng.random() >= ODD else pick(
        rng, [tmp_path / "missing" / "x.csv", tmp_path])
    return ["--out", str(where)]


def maybe(rng, flag: str, value, share: float = 0.6) -> list[str]:
    return [flag, value] if rng.random() < share else []


def switch(rng, flag: str) -> list[str]:
    return [flag] if rng.random() < 0.3 else []


def size(rng, flag: str, share: float = 0.6) -> list[str]:
    valid, odd = SIZES[flag]
    return maybe(rng, flag, pick(rng, odd if rng.random() < ODD else valid), share)


def argv_single(rng, tmp_path):
    return ["single", state_file(rng, tmp_path), *switch(rng, "--kelvin"),
            *out_flag(rng, tmp_path)]


def argv_asymptotic(rng, tmp_path):
    return ["asymptotic", state_file(rng, tmp_path),
            *maybe(rng, "--delta", number(rng, 0.0, 0.3), 0.95),
            *switch(rng, "--expansion"), *switch(rng, "--kelvin")]


def argv_oracle(rng, tmp_path):
    return ["oracle", state_file(rng, tmp_path),
            *maybe(rng, "--beta-bath", number(rng, -3.0, 3.0), 0.95),
            *size(rng, "--random", 0.4), *size(rng, "--seed", 0.4)]


def argv_jc(rng, tmp_path):
    return ["jc", *maybe(rng, "--omega", number(rng, 0.2, 2.0)),
            *maybe(rng, "--g", number(rng, -0.3, 0.3)), *maybe(rng, "--tau", number(rng, 0.0, 40.0)),
            *size(rng, "--fock"),
            # without a drawn --steps the default 600 would run every time
            *(size(rng, "--steps") or ["--steps", "20"]), *out_flag(rng, tmp_path)]


def argv_qutrit(rng, tmp_path):
    return ["qutrit-catalyst", *maybe(rng, "--lambda", number(rng, 0.0, 1.0)),
            *maybe(rng, "--beta", number(rng, -3.0, 3.0)), *switch(rng, "--sweep"),
            *size(rng, "--copies", 0.3), *switch(rng, "--kelvin"), *out_flag(rng, tmp_path)]


COMMANDS = {
    "single": argv_single,
    "asymptotic": argv_asymptotic,
    "oracle": argv_oracle,
    "jc": argv_jc,
    "qutrit-catalyst": argv_qutrit,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_case_prints_one_strict_report(command, tmp_path, capsys):
    rng = np.random.default_rng(sum(map(ord, command)))
    statuses = set()
    for case in range(CASES):
        argv = COMMANDS[command](rng, tmp_path)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        where = f"case {case}: {argv}"
        report = json.loads(out, parse_constant=_reject_constant)
        assert isinstance(report, dict) and out.endswith("}\n"), where
        assert code in (0, 1, 2) and code == report["status"], where
        assert err == "", where
        statuses.add(code)
    # the mutations reach the computation as well as the checks
    assert {0, 1} <= statuses
