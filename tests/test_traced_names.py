"""The benchmark's per-layer metrics still find every name they trace.

`effbench/tracing.py` looks each traced function and dataclass up by name,
and leaves a per-layer metric out (None) when its name is gone, which only
a traced benchmark run would otherwise show.  The tracer rebinds the
package's functions, so it is installed in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, types
import efftemp.cli
from effbench import tracing

tracer = tracing.Tracer()
present = set(tracer.install())
ops = [types.SimpleNamespace(kind=kind, units=1) for kind in ("oracle", "asymptotic", "jc")]
metrics = tracing.layer_metrics(tracer, ops, 1, 0.0, present)
with open("BENCHMARK.json", encoding="utf-8") as fh:
    names = [metric["name"] for metric in json.load(fh)["per_layer"]]
print(json.dumps({"names": len(names), "missing": [n for n in names if metrics.get(n) is None]}))
"""


def test_every_per_layer_metric_finds_its_traced_name():
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["names"] > 0
    assert report["missing"] == []
