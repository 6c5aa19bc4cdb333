"""Every Python file of the repository parses under its oldest supported grammar.

pyproject.toml declares Python 3.10 as the floor, and a CI job runs the
tests there.  This test parses each `.py` file under `src/`, `tests/` and
`effbench/` with `ast.parse(..., feature_version=(3, 10))`, so syntax newer
than 3.10, such as `except*`, fails on any interpreter.  It checks the
grammar only, not whether a standard-library or numpy API the code calls
exists on 3.10.  It reads the files and writes nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_the_floor_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert declared and tuple(map(int, declared.groups())) == FLOOR


def test_every_source_parses_under_the_floor_grammar():
    paths = sorted(path for top in ("src", "tests", "effbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "tests" / "test_grammar.py" in paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
        except SyntaxError as error:
            failures.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert failures == []
