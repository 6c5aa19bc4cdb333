"""Outside-in tracing of the program's layers.

The tracer wraps, from outside the program, every public function of each
layer module and the validation (`__post_init__`) of each public dataclass,
and rebinds the wrapper under every name the package binds the original to:
`gibbs_by_energy` lives in both `thermal` and `temperatures`, and `cli`
dispatches through its `_COMMANDS` table.  Each wrapped call is one span:
name, start, end, parent span and operation id.  Self time is a span's
duration minus the durations of its direct children.

Spans are kept in memory up to SPAN_CAP and written out when the run ends;
per-name totals (calls, inclusive and self time) are kept for every span.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("cli", "oracle", "simplex", "_kernels", "thermal", "temperatures", "linalg", "catalysis")
SPAN_CAP = 50_000


def unit(metric: str) -> str:
    if "_us" in metric:
        return "us"
    return "ms" if metric.endswith("_ms") else "count"


def metric_layer(layer: str) -> str:
    # a metric name starts with a letter or digit
    return layer.lstrip("_")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.stack: list[list] = []  # [child seconds, span id]
        self.n_spans = 0
        self.spans: list[tuple] = []  # (name id, start, end, parent id, op id)
        self.op_id = -1
        self.stats: dict[str, dict[int, list]] = {}  # op kind -> name id -> [calls, total, self]
        self.current: dict[int, list] = {}

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.current = self.stats.setdefault(kind, {})

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = tracer.n_spans
            tracer.n_spans += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                entry = tracer.current.get(nid)
                if entry is None:
                    entry = tracer.current[nid] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if span < SPAN_CAP:
                    tracer.spans.append((nid, start, end, parent, tracer.op_id))

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "efftemp") -> list[str]:
        """Wrap every layer's public functions and dataclass validation.

        Returns the span names installed.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == package or k.startswith(package + ".")) and m is not None]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            bound: dict[int, list[str]] = {}
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    post = obj.__dict__.get("__post_init__")
                    if post is not None:
                        obj.__post_init__ = self.wrap(f"{layer}.{attr}", post)
                elif callable(obj):
                    bound.setdefault(id(obj), []).append(attr)
            for key, attrs in bound.items():
                obj = getattr(mod, attrs[0])
                replace[key] = self.wrap(f"{layer}.{min(attrs, key=len)}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in obj.items():
                        if id(v) in replace:
                            obj[k] = replace[id(v)]
        return list(self.names)

    def totals(self, kinds=None) -> dict[str, list]:
        """name -> [calls, inclusive s, self s] over the given op kinds."""
        out: dict[str, list] = {}
        for kind, per in self.stats.items():
            if kinds is not None and kind not in kinds:
                continue
            for nid, (calls, total, self_s) in per.items():
                acc = out.setdefault(self.names[nid], [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            if self.n_spans > SPAN_CAP:
                fh.write(json.dumps({"truncated": self.n_spans - SPAN_CAP}) + "\n")


def layer_metrics(tracer: Tracer, ops, passes: int, import_s: float, present: set[str]) -> dict:
    """Per-layer metrics of one traced run; a metric whose wrapped name the
    program no longer has is left out (None)."""
    tot = tracer.totals()
    m: dict[str, float | None] = {}
    n_ops = len(ops) * passes
    for layer in LAYERS:
        calls = sum(v[0] for k, v in tot.items() if k.startswith(layer + "."))
        self_s = sum(v[2] for k, v in tot.items() if k.startswith(layer + "."))
        m[f"{metric_layer(layer)}.calls"] = calls / passes
        m[f"{metric_layer(layer)}.self_ms"] = self_s * 1e3 / passes

    def mean_us(name: str, which: int = 1):
        if name not in present:
            return None
        entry = tot.get(name)
        return entry[which] / entry[0] * 1e6 if entry else 0.0

    def count(name: str, kinds) -> float | None:
        if name not in present:
            return None
        return tracer.totals(kinds).get(name, [0])[0]

    def ratio(num, den):
        if num is None:
            return None
        return num / den if den else 0.0

    verdicts = sum(op.units for op in ops if op.kind == "oracle") * passes
    asym = sum(1 for op in ops if op.kind == "asymptotic") * passes
    samples = sum(op.units for op in ops if op.kind == "jc") * passes
    m["kernels.solve_us"] = mean_us("_kernels.simplex_kernel")
    m["oracle.lp_solves_per_verdict"] = ratio(count("_kernels.simplex_kernel", {"oracle"}), verdicts)
    m["simplex.solve_lp_self_us"] = mean_us("simplex.solve_lp", 2)
    m["oracle.max_energy_gain_self_us"] = mean_us("oracle.max_energy_gain", 2)
    m["thermal.gibbs_solves_per_asymptotic_query"] = ratio(
        count("thermal.gibbs_by_energy", {"asymptotic"}), asym)
    m["thermal.gibbs_by_energy_us"] = mean_us("thermal.gibbs_by_energy")
    m["thermal.quantum_systems_per_sample"] = ratio(count("thermal.QuantumSystem", {"jc"}), samples)
    m["linalg.check_density_matrix_per_sample"] = ratio(
        count("linalg.check_density_matrix", {"jc"}), samples)
    m["linalg.check_density_matrix_us"] = mean_us("linalg.check_density_matrix")
    m["temperatures.virtual_spectrum_us"] = mean_us("temperatures.virtual_spectrum")
    m["temperatures.tensor_power_effective_us"] = mean_us("temperatures.tensor_power_effective")
    series = tracer.totals({"jc"}).get("catalysis.run_time_series")
    m["catalysis.series_us_per_sample"] = (
        None if "catalysis.run_time_series" not in present
        else (series[1] * 1e6 / samples if series and samples else 0.0))
    fixed = mean_us("catalysis.channel_fixed_point")
    m["catalysis.fixed_point_ms"] = None if fixed is None else fixed / 1e3
    m["cli.load_system_file_us"] = mean_us("cli.load_system_file")
    m["cli.self_us_per_op"] = m["cli.self_ms"] * passes * 1e3 / n_ops
    m["efftemp.import_ms"] = import_s * 1e3
    return m
