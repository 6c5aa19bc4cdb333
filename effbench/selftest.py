"""Self-test of the benchmark's checks.

    python3 effbench/selftest.py

Runs one operation of each kind through the program, confirms that its
check accepts the genuine output, then feeds the check corrupted copies (a
flipped verdict, a shifted beta, a perturbed CSV row, ...) and confirms that
it rejects every one.  Exits 1 if any check accepts a corrupted output or
rejects a genuine one.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import run

SEED = 7


def _edit(out, fn):
    """A copy of the outcome with fn applied to its parsed JSON report."""
    report = json.loads(out.stdout)
    fn(report)
    bad = copy.copy(out)
    bad.stdout = json.dumps(report)
    return bad


def _res(path, value):
    """Setter for results[path...] = value(old)."""
    def fn(report):
        node = report["results"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return fn


def _shift(x, by=1e-6):
    x = float(x)
    return x * (1 + by) + by if math.isfinite(x) else 1.0


def _csv_edit(out, row: int, col: int, by: float = 1e-6):
    lines = out.csv.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(_shift(float(cells[col]), by))
    lines[row + 1] = ",".join(cells)
    bad = copy.copy(out)
    bad.csv = "\n".join(lines)
    return bad


def corruptions(op, out):
    """(label, corrupted outcome) pairs for one genuine outcome."""
    k = op.kind
    yield "raised", run_error(out)
    if k == "malformed":
        return
    yield "wrong exit code", _with(out, rc=2)
    if k == "single":
        yield "shifted beta_c", _edit(out, _res(["beta_c"], _shift))
        yield "shifted vts entry", _edit(out, _res(["vts"], lambda v: v[:-1] + [v[-1][:2] + [_shift(v[-1][2])]]))
        yield "dropped vts entry", _edit(out, _res(["vts"], lambda v: v[:-1]))
        yield "shifted beta_star", _edit(out, _res(["beta_star"], lambda b: _shift(b, 1e-3)))
        if op.csv is not None:
            yield "perturbed CSV row", _csv_edit(out, 0, 2)
    elif k == "oracle":
        yield "flipped can_cool", _edit(out, _res(["can_cool"], lambda v: not v))
        yield "flipped can_heat", _edit(out, _res(["can_heat"], lambda v: not v))
        yield "shifted LP optimum", _edit(out, _res(["max_energy_gain"], _shift))
        yield "shifted LP loss", _edit(out, _res(["max_energy_loss"], _shift))
        if not op.expect["tie"]:
            yield "flipped agreement", _edit(out, _res(["agreement"], lambda v: not v))
        if "random" in op.expect:
            yield "disagreement", _edit(out, _res(["random_trials", "disagreements"], lambda v: 1))
            yield "missing case", _edit(out, _res(["random_trials", "cases"], lambda v: v - 1))
            yield "polytope residual", _edit(
                out, _res(["random_trials", "max_polytope_residual"], lambda v: 1e-8))
    elif k == "asymptotic":
        yield "shifted beta_c", _edit(out, _res(["beta_c"], _shift))
        yield "shifted beta_h", _edit(out, _res(["beta_h"], _shift))
        yield "shifted cold beta", _edit(out, _res(["gibbs_cold", "beta"], _shift))
        yield "shifted hot entropy", _edit(out, _res(["gibbs_hot", "entropy"], _shift))
        yield "shifted beta_star", _edit(out, _res(["expansion", "beta_star"], _shift))
        yield "shifted expansion beta_c", _edit(out, _res(["expansion", "beta_c"], _shift))
    elif k == "qutrit":
        yield "shifted beta_c", _edit(out, _res(["beta_c"], _shift))
        yield "shifted beta_h", _edit(out, _res(["beta_h"], _shift))
        yield "perturbed catalyst", _edit(
            out, _res(["catalyst", "re"], lambda m: [[m[0][0] + 1e-6, m[0][1]], [m[1][0], m[1][1] - 1e-6]]))
        yield "perturbed sigma_a", _edit(
            out, _res(["sigma_a", "re"], lambda m: [m[0][:1] + [m[0][1] + 1e-6] + m[0][2:]] + m[1:]))
    elif k == "qutrit_sweep":
        yield "shifted sweep beta_h", _edit(out, _res(["sweep"], lambda rows: rows[:20] + [
            rows[20][:2] + [_shift(rows[20][2])] + rows[20][3:]] + rows[21:]))
        yield "dropped sweep row", _edit(out, _res(["sweep"], lambda rows: rows[:-1]))
    elif k == "qutrit_copies":
        yield "shifted copies beta_c", _edit(out, _res(["copies"], lambda rows: rows[:6] + [
            rows[6][:1] + [_shift(rows[6][1])] + rows[6][2:]] + rows[7:]))
        yield "dropped copies row", _edit(out, _res(["copies"], lambda rows: rows[:-1]))
    elif k == "jc":
        sampled = op.expect["rows"][1]
        yield "perturbed CSV beta", _csv_edit(out, sampled, 1)
        yield "perturbed CSV distance", _csv_edit(out, op.expect["k_tau"], 5, 1e-6)
        yield "perturbed CSV coherence", _csv_edit(out, sampled, 6)
        yield "dropped CSV row", _with(out, csv=out.csv.rstrip("\n").rsplit("\n", 1)[0] + "\n")
        yield "perturbed catalyst", _edit(
            out, _res(["catalyst_state", "re"], lambda m: [[m[0][0] + 1e-6, m[0][1]], [m[1][0], m[1][1] - 1e-6]]))


def _with(out, **fields):
    bad = copy.copy(out)
    for key, value in fields.items():
        setattr(bad, key, value)
    return bad


def run_error(out):
    return _with(out, rc=None, stdout="", error="ValueError: corrupted")


def main() -> int:
    cli, _ = run.import_program()
    import checks
    import workloads

    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    bad_accepts = good_rejects = cases = 0
    try:
        samples = {}
        for workload in run.WORKLOADS:
            ops, _ = workloads.build(workload, SEED, str(workdir / workload))
            for op in ops:
                # beta = 0 selects the qutrit cases with the paper's closed form
                key = (op.kind, op.csv is not None, "random" in op.expect,
                       op.expect.get("tie", False), op.expect.get("beta") == 0.0,
                       op.known_fault is not None)
                samples.setdefault(key, op)
        for op in samples.values():
            out, _ = run.run_op(cli, op, checks)
            reason = checks.check(op, out)
            label = f"{op.kind} {' '.join(a for a in op.argv[1:] if not a.startswith('/'))}"
            if op.known_fault is not None:
                # today's output is the fault; a correct report must pass
                print(f"rejects known fault  {label}: {reason}")
                if reason is None:
                    print(f"  (fault mended) {op.known_fault}")
                if op.kind == "malformed":
                    good = checks.Outcome(1, json.dumps(
                        {"command": "single", "status": 1, "error": "bad input"}))
                    if checks.check(op, good) is not None:
                        good_rejects += 1
                        print("  FAIL: rejects a status-1 report")
                    out = good
                else:
                    continue
            elif reason is not None:
                good_rejects += 1
                print(f"FAIL: rejects genuine output of {label}: {reason}")
                continue
            for what, bad in corruptions(op, out):
                cases += 1
                if checks.check(op, bad) is None:
                    bad_accepts += 1
                    print(f"FAIL: accepts {what}: {label}")
            print(f"ok  {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{cases} corrupted outputs, {bad_accepts} accepted; "
          f"{good_rejects} genuine outputs rejected")
    return 1 if bad_accepts or good_rejects else 0


if __name__ == "__main__":
    sys.exit(main())
