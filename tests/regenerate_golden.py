"""Regenerate the golden reports under tests/golden/ from the current code.

Each case in tests/golden/cases.json is one `efftemp` invocation.  It runs
through `cli.main` in process, in a scratch directory that holds a copy of
tests/golden/states/, so a report names the relative paths of its argv and
nothing of the machine.  The report is written to reports/<name>.json, and
the CSV the case wrote, if any, to reports/<name>.csv.  environment.json
records what the floats' last bits depend on: numpy, its BLAS and LAPACK,
the OpenBLAS kernel picked at load time, the C library and the CPU features
numpy dispatches on.

Regenerate only for a stated report change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = GOLDEN / "reports"
# the --out path of every case that writes a CSV
CSV_NAME = "table.csv"


def load_cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def environment() -> dict:
    """The numpy, BLAS, LAPACK, OpenBLAS kernel, C library and CPU features
    of this process.

    OpenBLAS picks its kernel from the CPU, or from OPENBLAS_CORETYPE, when
    it loads, and two kernels can differ in the last bits of the same call.
    The kernel is read from numpy's bundled OpenBLAS; it is None where numpy
    bundles none or the library lacks the symbol.
    """
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = {k: f"{deps[k]['name']} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        libs = {}
    kernel = None
    bundled = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(bundled.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
        break
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        **libs,
        "openblas_kernel": kernel,
        "libc": " ".join(platform.libc_ver()),
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def prepare(workdir: Path) -> None:
    """Copy the golden input states into `workdir`."""
    shutil.copytree(GOLDEN / "states", Path(workdir) / "states")


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str | None]:
    """Run one invocation in `workdir`; returns (exit code, stdout, CSV text or None)."""
    from efftemp import cli

    csv_path = Path(workdir) / CSV_NAME
    csv_path.unlink(missing_ok=True)
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
    finally:
        os.chdir(previous)
    csv = None
    if csv_path.exists():
        csv = csv_path.read_text(encoding="utf-8")
        csv_path.unlink()
    return status, out.getvalue(), csv


def main() -> int:
    if REPORTS.exists():
        shutil.rmtree(REPORTS)
    REPORTS.mkdir()
    cases = load_cases()
    with tempfile.TemporaryDirectory() as workdir:
        prepare(Path(workdir))
        for case in cases:
            status, out, csv = run_case(case["argv"], Path(workdir))
            (REPORTS / f"{case['name']}.json").write_text(out, encoding="utf-8")
            if csv is not None:
                (REPORTS / f"{case['name']}.csv").write_text(csv, encoding="utf-8")
            print(f"{case['name']}: status {status}")
    (GOLDEN / "environment.json").write_text(
        json.dumps(environment(), indent=2) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases written to {REPORTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
