"""Golden reports: each case in tests/golden/cases.json, run through
`cli.main`, must exit with its recorded status and print its recorded report
and CSV (regenerate them with tests/regenerate_golden.py).

Statuses, keys, strings, integers and booleans must match exactly.  Floats
and the bytes of the report and CSV must match exactly when this process
has the numpy, BLAS, LAPACK, OpenBLAS kernel, C library and CPU features
recorded in golden/environment.json.  Elsewhere floats may differ by a few
ulps, or by ABS_TOL where a value is rounding left over from a cancellation,
because another LAPACK build or BLAS kernel can differ in the last bits of
`eigh`-based values.  Two kinds of field amplify those bits, and are compared
by their own conditioning instead: the asymptotic betas (`conditioned_bounds`)
and the Kelvin-style values, which must be `cli._kelvin` of the compared beta.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from efftemp import cli, thermal
from regenerate_golden import REPORTS, environment, load_cases, prepare, run_case

EXACT = environment() == json.loads((REPORTS.parent / "environment.json").read_text())
REL_TOL = 4 * 2.0**-52
ABS_TOL = 1e-14
# a CSV cell is printed with %.12g, so a few ulps can move its last digit
CSV_REL_TOL = 1e-11


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    prepare(path)
    return path


def admitted(x: float) -> float:
    """The widest difference from x that the float comparison admits by default."""
    return max(REL_TOL * abs(x), ABS_TOL)


def conditioned_bounds(expected: dict) -> dict[str, float]:
    """Absolute tolerances of the asymptotic beta fields, by report path.

    An asymptotic beta is a difference of entropies over delta:
    beta_c = [S(gibbs(E + delta)) - S(rho)] / delta and
    beta_h = [S(rho) - S(gibbs(E - delta))] / delta.  Each entropy S may move
    by admitted(S), so beta may move by their sum over delta, which at a
    small delta is many ulps of beta.  The Gibbs solve meets its target mean
    energy E_g only within ENERGY_RTOL max(1, |E_g|), and dS/dE = beta_g along
    the Gibbs family, so S_g is fixed only within |beta_g| times that; it too
    is divided by delta.  With the Gibbs state's beta_g, E_g and S_g from the
    report:

        bound = [admitted(S_g) + admitted(S(rho))
                 + |beta_g| ENERGY_RTOL max(1, |E_g|)] / delta

    The expansion's betas, +-dS / delta + beta* -+ delta / (2 Var), where
    dS = S_m - S(rho) and S_m is the entropy of gibbs(E), take the same
    bound with beta_g = beta*, E_g = E and
    S_m = S(rho) + delta (beta_c - beta* + delta / (2 Var)), plus the
    admitted moves of the two added terms, beta* and delta / (2 Var).
    REL_TOL still covers the rounding of the last subtraction and division.
    """
    r = expected.get("results", {})
    if "gibbs_cold" not in r:
        return {}
    delta, s_rho = r["delta"], r["state_entropy"]

    def quotient(s_gibbs: float, beta: float, energy: float) -> float:
        solve = abs(beta) * thermal.ENERGY_RTOL * max(1.0, abs(energy))
        return (admitted(s_gibbs) + admitted(s_rho) + solve) / delta

    bounds = {f"report.results.{key}": quotient(g["entropy"], g["beta"], g["mean_energy"])
              for key, g in (("beta_c", r["gibbs_cold"]), ("beta_h", r["gibbs_hot"]))}
    if "expansion" in r:
        x = r["expansion"]
        curvature = delta / (2.0 * x["energy_variance"])
        s_matched = s_rho + delta * (x["beta_c"] - x["beta_star"] + curvature)
        bound = (quotient(s_matched, x["beta_star"], r["mean_energy"])
                 + admitted(x["beta_star"]) + admitted(curvature))
        bounds.update({f"report.results.expansion.{key}": bound for key in ("beta_c", "beta_h")})
    return bounds


def assert_same(expected, actual, where: str, bounds: dict[str, float]) -> None:
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key, value in expected.items():
            assert_same(value, actual[key], f"{where}.{key}", bounds)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for k, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{k}]", bounds)
    elif isinstance(expected, float) and not EXACT:
        abs_tol = max(ABS_TOL, bounds.get(where, 0.0))
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=abs_tol), (
            f"{where}: {actual!r} != {expected!r}")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def assert_same_csv(expected: str, actual: str) -> None:
    expected_rows = list(csv.reader(io.StringIO(expected)))
    actual_rows = list(csv.reader(io.StringIO(actual)))
    assert actual_rows[0] == expected_rows[0], "CSV headers differ"
    assert len(actual_rows) == len(expected_rows), "CSV row counts differ"
    for k, (e, a) in enumerate(zip(expected_rows[1:], actual_rows[1:]), 1):
        assert len(a) == len(e), f"CSV row {k}: lengths differ"
        for x, y in zip(map(float, e), map(float, a)):
            assert math.isclose(y, x, rel_tol=CSV_REL_TOL, abs_tol=ABS_TOL), f"CSV row {k}: {a} != {e}"


@pytest.mark.parametrize("case", load_cases(), ids=lambda case: case["name"])
def test_golden_report(case, workdir):
    status, out, csv_text = run_case(case["argv"], workdir)
    expected = (REPORTS / f"{case['name']}.json").read_text(encoding="utf-8")
    report = json.loads(out)
    assert status == report["status"]
    # the layout of json.dumps(..., sort_keys=True, indent=2), which cli._encode writes
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    expected_report = json.loads(expected)
    bounds = {}
    if not EXACT:
        bounds = conditioned_bounds(expected_report)
        # T = 1/beta of the compared beta, which its own bound has checked
        results = report.get("results", {})
        kelvin = expected_report.get("results", {}).get("kelvin", {})
        for key in kelvin:
            kelvin[key] = json.loads(cli._encode(cli._kelvin(float(results[key])), ""))
    assert_same(expected_report, report, "report", bounds)

    csv_file = REPORTS / f"{case['name']}.csv"
    assert (csv_text is not None) == csv_file.exists()
    expected_csv = csv_file.read_text(encoding="utf-8") if csv_file.exists() else None
    if csv_text is not None:
        assert_same_csv(expected_csv, csv_text)
    if EXACT:
        assert out == expected
        assert csv_text == expected_csv


def test_golden_set_covers_every_status_and_subcommand():
    reports = [json.loads((REPORTS / f"{c['name']}.json").read_text()) for c in load_cases()]
    assert {r["status"] for r in reports} == {0, 1, 2}
    assert {r["command"] for r in reports} == {"single", "asymptotic", "oracle", "jc", "qutrit-catalyst"}
    # the two heat-sign states whose verdicts disagree with the closed form
    assert sum(r.get("results", {}).get("agreement") is False for r in reports) == 2


def test_golden_reports_hold_under_another_blas_kernel():
    """The golden comparison in a child whose OpenBLAS runs its Haswell kernels.

    The kernel is part of the recorded fingerprint, so the child compares in
    tolerant mode unless Haswell is the recorded kernel.  The child selects
    test_golden_report alone, so this test does not run itself again.
    """
    env = environment()
    if env["openblas_kernel"] is None:
        pytest.skip("the OpenBLAS kernel cannot be read")
    if "AVX2" not in env["cpu_features"]:
        pytest.skip("the Haswell kernels need AVX2")
    here = Path(__file__).resolve()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_golden_report"],
        cwd=here.parents[1], env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert f"{len(load_cases())} passed" in proc.stdout
