"""Golden reports: each case in tests/golden/cases.json, run through
`cli.main`, must exit with its recorded status and print its recorded report
and CSV (regenerate them with tests/regenerate_golden.py).

Statuses, keys, strings, integers and booleans must match exactly.  Floats
and the bytes of the report and CSV must match exactly when this process
has the numpy, BLAS, LAPACK, C library and CPU features recorded in
golden/environment.json.  Elsewhere floats may differ by a few ulps, or by
ABS_TOL where a value is rounding left over from a cancellation, because
another LAPACK build can differ in the last bits of `eigh`-based values.
"""

import csv
import io
import json
import math

import pytest

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


def assert_same(expected, actual, where: str) -> None:
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key, value in expected.items():
            assert_same(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for k, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{k}]")
    elif isinstance(expected, float) and not EXACT:
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
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
    assert_same(json.loads(expected), report, "report")

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
