"""efftemp benchmark: one workload, one process, one closed-loop client.

    python3 effbench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports efftemp from its
`src/`.  The workload's operations are generated from --seed and run in
process through `efftemp.cli.main(argv)` with stdout captured, in whole
passes until --seconds have elapsed.  The first pass's outputs are checked
against computations that do not use the program; every later pass must
reproduce them byte for byte.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (see README.md).
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is measured this many times per run, in fresh processes
SETUP_REPEATS = 7
READY = "effbench-setup-ready"
WORKLOADS = ("oracle_sweep", "jc_series", "state_queries")
# the operation kinds whose units each workload's units_per_s counts
# (None: every operation, one unit each)
UNIT_KINDS = {
    "oracle_sweep": {"oracle"},
    "jc_series": {"jc"},
    "state_queries": None,
}
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "units_per_s": "1/s",
    "query_p50_ms": "ms", "query_p99_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import efftemp from the checkout's src/; returns (cli module, seconds)."""
    if not (SRC / "efftemp" / "__init__.py").is_file():
        sys.exit(f"effbench: no efftemp source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import efftemp
    import efftemp.cli as cli
    elapsed = time.perf_counter() - start
    if SRC.resolve() not in Path(efftemp.__file__).resolve().parents:
        sys.exit(f"effbench: imported efftemp from {efftemp.__file__}, not from {SRC}")
    return cli, elapsed


def run_op(cli, op, checks):
    """Run one operation in process; returns (Outcome, seconds in cli.main)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        error = None
    except Exception as exc:  # a fault of the program: record it and go on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    csv = None
    if op.csv is not None and os.path.exists(op.csv):
        with open(op.csv, encoding="utf-8") as fh:
            csv = fh.read()
        os.remove(op.csv)
    return checks.Outcome(rc, buf.getvalue(), csv, error), elapsed


def digest(out) -> str:
    h = hashlib.sha256()
    for part in (repr(out.rc), out.stdout, repr(out.csv), repr(out.error)):
        h.update(part.encode())
    return h.hexdigest()


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and warm up."""
    cli, import_s = import_program()
    import checks
    import workloads

    ops, warm = workloads.build(workload, seed, str(workdir))
    for op in warm:
        run_op(cli, op, checks)
    return cli, import_s, ops


def measure_setup(args) -> float:
    """Median wall time from launching a fresh interpreter to the end of its
    set-up (import, input generation, warm-up), over SETUP_REPEATS runs."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        launched = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(READY)]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(lines[-1].split()[1]) - launched)
    return statistics.median(samples)


def timed_loop(cli, ops, checks, seconds: float, tracer=None):
    """Whole passes until `seconds` have elapsed; returns the first pass's
    outcomes, per-op latencies and per-op counts of passes that differ."""
    first, digests = [], []
    latencies = [[] for _ in ops]
    differ = [0] * len(ops)
    passes = 0
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.enabled = True
    while passes == 0 or time.perf_counter() < deadline:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(passes * len(ops) + i, op.kind)
            out, elapsed = run_op(cli, op, checks)
            latencies[i].append(elapsed)
            if passes == 0:
                first.append(out)
                digests.append(digest(out))
            elif digest(out) != digests[i]:
                differ[i] += 1
        passes += 1
    if tracer is not None:
        tracer.enabled = False
    return first, latencies, differ, passes


def throughput(workload, ops, latencies, fails) -> float:
    """Completed units of a typical pass over its time, where each
    operation's time is its median over the run's passes, so a burst of
    outside load that slows a few passes moves the figure little."""
    kinds = UNIT_KINDS[workload]
    done = sum(op.units for op, f in zip(ops, fails)
               if f == 0 and (kinds is None or op.kind in kinds))
    return done / sum(statistics.median(lat) for lat in latencies)


def end_to_end(workload, ops, latencies, fails, setup_s, peak_rss_mb) -> dict:
    # a query's latency is its median over the run's passes, so the
    # percentiles rest on every pass even where a pass has few queries
    typical = sorted(statistics.median(lat) for lat, f in zip(latencies, fails) if f == 0)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "units_per_s": throughput(workload, ops, latencies, fails),
        "query_p50_ms": statistics.median(typical) * 1e3,
        "query_p99_ms": statistics.quantiles(typical, n=100)[98] * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print(READY, repr(time.time()), flush=True)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    cli, import_s, ops = setup(args.workload, args.seed, workdir)
    import checks

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        present = set(tracer.install())
    first, latencies, differ, passes = timed_loop(cli, ops, checks, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails, correct = [], True
    for op, out, n_differ in zip(ops, first, differ):
        reason = checks.check(op, out)
        fails.append(passes if reason is not None else n_differ)
        if reason is None and n_differ:
            reason = f"output differs from the first pass in {n_differ} passes"
        if reason is not None:
            label = f"known fault: {op.known_fault}" if op.known_fault else "FAILED"
            print(f"effbench: {label}: {' '.join(op.argv)}: {reason}", file=sys.stderr)
            correct = correct and op.known_fault is not None

    if tracer is not None:
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        values = tracing.layer_metrics(tracer, ops, passes, import_s, present)
        value = throughput(args.workload, ops, latencies, fails)
        print(f"effbench: traced units_per_s {value:.6g}", file=sys.stderr)
        metrics = {}
        for name, value in values.items():
            if value is None:
                print(f"effbench: {name} is absent: its traced name is gone", file=sys.stderr)
            else:
                metrics[name] = {"value": value, "unit": tracing.unit(name)}
    else:
        setup_s = measure_setup(args)
        values = end_to_end(args.workload, ops, latencies, fails, setup_s, peak_rss_mb)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * passes,
        "failed": sum(fails),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
