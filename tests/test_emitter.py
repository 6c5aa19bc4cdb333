"""The report emitter against the two-pass code it replaced.

`reference_emit` is the former `cli._jsonable` followed by
`json.dumps(..., sort_keys=True, indent=2)` and print's newline.
`cli._emit` must write the same bytes for every value, and raise the same
TypeError for a value JSON cannot hold.  A table, a 2-D array or a 1-D
structured array such as the vts of `single`, reaches the reference as the
list of its rows.
"""

import json
import math

import numpy as np
import pytest

from conftest import diag_system
from efftemp import cli, temperatures


def _jsonable(value):
    """Make a value JSON-serializable with non-finite floats as strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):  # a structured array's rows are tuples
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def reference_emit(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"


def emit(value, capsys) -> str:
    cli._emit(value)
    return capsys.readouterr().out


INF, NAN = math.inf, math.nan
FLOATS = (0.0, -0.0, 1.5, -2.25e-7, 1e16, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
          0.1, 1 / 3, INF, -INF, NAN)
INTS = (0, -1, 7, 2**53 + 1, -(2**70), 10**40)
STRINGS = ("", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "é温度",
           "\U0001f321 thermometer", "lone \ud800 surrogate", "\udfff", "/slash/")
NUMPY_SCALARS = (np.float64(0.5), np.float64(-INF), np.float32(0.1), np.float32(NAN),
                 np.int64(-3), np.int32(2**31 - 1), np.bool_(True), np.bool_(False))
KEYS = ("b", "a", "", 'q"uote', "é", 3, -1, 2.5, True, None, (1, 2), np.int64(4))


def random_leaf(rng):
    kind = rng.integers(7)
    if kind == 0:
        return FLOATS[rng.integers(len(FLOATS))]
    if kind == 1:
        return INTS[rng.integers(len(INTS))]
    if kind == 2:
        return STRINGS[rng.integers(len(STRINGS))]
    if kind == 3:
        return NUMPY_SCALARS[rng.integers(len(NUMPY_SCALARS))]
    if kind == 4:
        return bool(rng.integers(2))
    if kind == 5:
        return None
    return float(rng.normal() * 10.0 ** rng.integers(-300, 300))


def random_row(rng):
    """A row of numbers: finite Python floats and ints, now and then a
    non-finite float, a bool or a numpy scalar among them."""
    row = [float(x) for x in rng.normal(size=rng.integers(0, 6))]
    for _ in range(rng.integers(0, 3)):
        extra = (INF, -INF, NAN, True, False, np.float64(1.25), np.float32(2.5), np.int64(9),
                 np.bool_(False), -0.0, 12, 2**64)[rng.integers(12)]
        row.insert(int(rng.integers(len(row) + 1)), extra)
    return tuple(row) if rng.integers(4) == 0 else row


def random_array(rng):
    shape = ((0, 3), (0,), (), (3,), (2, 3), (2, 2, 2))[rng.integers(6)]
    kind = rng.integers(4)
    if kind == 0:
        a = rng.normal(size=shape)
        if a.size:
            a.flat[rng.integers(a.size)] = (INF, -INF, NAN, -0.0)[rng.integers(4)]
        return a
    if kind == 1:
        return rng.integers(-5, 5, size=shape)
    if kind == 2:
        return rng.integers(0, 2, size=shape).astype(bool)
    return rng.normal(size=shape).astype(np.float32)


def random_column(rng, rows):
    """An int64, uint64 or float64 column; a float one mixes FLOATS into random values."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(-(2**63), 2**63, size=rows, dtype=np.int64) // 10 ** rng.integers(19)
    if kind == 1:
        column = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
        return column // np.uint64(10 ** rng.integers(20))
    column = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    special = rng.integers(2, size=rows).astype(bool)
    column[special] = rng.choice(FLOATS, size=special.sum())
    return column


def random_table(rng):
    """0, 1 or a few rows of int and float columns: a structured array, or a
    2-D array where every column has one dtype."""
    rows = (0, 1, rng.integers(2, 7))[rng.integers(3)]
    columns = [random_column(rng, rows) for _ in range(rng.integers(1, 5))]
    if len({c.dtype for c in columns}) == 1 and rng.integers(2):
        return np.column_stack(columns)
    table = np.rec.fromarrays(columns, names=[f"c{k}" for k in range(len(columns))])
    return table if rng.integers(2) else table.view(np.ndarray)


def random_value(rng, depth=0):
    kind = rng.integers(7) if depth < 4 else 0
    if kind == 0:
        return random_leaf(rng)
    if kind == 1:
        return random_row(rng)
    if kind == 2:
        return [random_row(rng) for _ in range(rng.integers(0, 5))]
    if kind == 3:
        return random_array(rng)
    if kind == 4:
        items = [random_value(rng, depth + 1) for _ in range(rng.integers(0, 4))]
        return tuple(items) if rng.integers(3) == 0 else items
    if kind == 6:
        return random_table(rng)
    keys = [KEYS[k] for k in rng.choice(len(KEYS), size=rng.integers(0, 5), replace=False)]
    return {k: random_value(rng, depth + 1) for k in keys}


@pytest.mark.parametrize("seed", range(40))
def test_seeded_values_match_the_reference(seed, capsys):
    rng = np.random.default_rng(seed)
    report = {"results": {f"field{k}": random_value(rng) for k in range(8)}, "status": 0}
    assert emit(report, capsys) == reference_emit(report)
    for value in report["results"].values():  # each value at the top level too
        assert emit(value, capsys) == reference_emit(value)


def single_report(d):
    """The results of `single` on d levels whose middle level is empty, so
    that +inf and -inf entries appear, and whose two lowest levels are
    degenerate, with its vts built as `cli.cmd_single` does."""
    energies = np.concatenate([[0.0], np.linspace(0.0, 2.0, d - 1)])
    populations = np.random.default_rng(d).uniform(0.5, 1.5, size=d) * np.exp(-energies)
    populations[d // 2] = 0.0
    populations /= populations.sum()
    spectrum = temperatures.virtual_spectrum(diag_system(energies, populations))
    vts = np.rec.fromarrays((spectrum.low, spectrum.high, spectrum.beta), names="i,j,beta_ij")
    return {"beta_c": math.inf, "beta_h": -0.0, "beta_star": 0.25, "vts": vts}


@pytest.mark.parametrize("value", [
    single_report(256),
    {}, [], (), np.zeros((0, 3)), [[], []], {"rows": [[], [1, 2]]},
    [[1, 2.5], [3, INF], [NAN, -0.0], [True, 1], [np.float64(1.0), 2.0], [None, 1]],
    [[[1.0, -INF], [2.0, 3.0]]], [1, 2.0, -INF], [1, True, np.bool_(True), np.int64(5)],
    {1: "int key", "1": "str key wins"}, {2.5: -0.0, None: NAN, True: -INF, (1, 2): INF},
    {"vts": [[0, 1, 0.5], [0, 2, INF], [1, 2, -INF], [1, 3, NAN]]},
    {"nested": {"deeper": {"deepest": [FLOATS, INTS, STRINGS]}}},
    list(NUMPY_SCALARS), np.array(2.5), np.array([[INF, 1.0], [NAN, -0.0]]),
    None, "text", 5e-324, -INF, 10**40, np.bool_(False),
])
def test_edge_values_match_the_reference(value, capsys):
    assert emit(value, capsys) == reference_emit(value)


@pytest.mark.parametrize("value", [
    1 + 2j, np.complex128(1j), object(), {"set": {1, 2}}, [[1.0, 2.0], [b"bytes"]],
    np.array([1j]),
])
def test_unknown_types_raise_as_json_does(value, capsys):
    with pytest.raises(TypeError) as expected:
        reference_emit(value)
    with pytest.raises(TypeError) as actual:
        cli._emit(value)
    assert str(actual.value) == str(expected.value)
