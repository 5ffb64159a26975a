"""CSV/JSON emission against an independent per-cell reference.

The reference below turns a table's numpy columns into rows, formats
every cell on its own and lets the standard ``json`` encoder lay out the
whole document; ``mqisim.digits`` formats tables one column at a time and
writes the JSON rows block itself.  The two must agree byte for byte.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim import digits
from mqisim.digits import _BLOCK_ROWS, emit_csv, emit_json


def _ref_csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def _ref_json_cell(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(float(v)):
            return f"{float(v):.9g}"
        return float(f"{float(v):.9g}")
    return v


def _ref_meta_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(_ref_meta_value(x) for x in v)
    return str(v)


def _rows(table):
    return list(zip(*(col.tolist() for col in table.values())))


def ref_emit_csv(table, meta) -> str:
    lines = [",".join(table)]
    lines.extend(",".join(_ref_csv_cell(v) for v in row) for row in _rows(table))
    lines.extend(f"# {k} = {_ref_meta_value(meta[k])}" for k in sorted(meta))
    return "\n".join(lines) + "\n"


def _ref_meta_json(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (tuple, list)):
        return [_ref_meta_json(x) for x in v]
    return v


def ref_emit_json(table, meta) -> str:
    doc = {
        "metadata": {k: _ref_meta_json(meta[k]) for k in sorted(meta)},
        "columns": list(table),
        "rows": [[_ref_json_cell(v) for v in row] for row in _rows(table)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Cells on every formatting boundary: signed zero, %g's switch to exponent
# notation (1e-5, 1e9), repr's (1e16), 9-digit rounding that carries into
# the exponent, subnormals (fewer than 9 significant digits round-trip),
# and the non-finite values JSON has no token for.
FLOATS = [
    0.0, -0.0, 2.0, -2.0, 1e-5, 1e-4, 1.23456789e-5, 123456789.0, 999999999.5, 1e9,
    1.5e9, 1e15, 1e16, 1.25e16, 9.999999995e15, 1e300, 1e-300, 2.2250738585072014e-308,
    3.68003956e-317, 1.55772969e-318, 5e-324, np.float64(0.1), np.float64(-3.5e-7),
    math.inf, -math.inf, math.nan,
]

TABLES = {
    "mixed_kinds": (
        {
            "flag": np.array([i % 3 == 0 for i in range(len(FLOATS))]),
            "n": np.array([(i - 7) * 1000003 if i % 2 else i for i in range(len(FLOATS))]),
            "u": np.arange(len(FLOATS), dtype=np.uint8) * 10,
            "x": np.array(FLOATS),
        },
        {"tool": "mqisim", "param_range": (-4.0, 4.0), "quiet": False, "n": 3,
         "x": np.float64(0.25), "layout": "row-major"},
    ),
    "one_row": ({"eta": np.array([0.1]), "valid": np.array([True])}, {"tool": "mqisim"}),
    # rows are formatted in blocks; cross two block boundaries
    "multi_block": (
        {
            "x": np.arange(2 * _BLOCK_ROWS + 3) * 0.125 - 3.0,
            "w": np.array([math.exp(-0.01 * i) * 1e-300 ** (i % 2)
                           for i in range(2 * _BLOCK_ROWS + 3)]),
            "ok": np.arange(2 * _BLOCK_ROWS + 3) % 5 == 0,
        },
        {"tool": "mqisim"},
    ),
    "empty": ({"eta": np.array([]), "n_s": np.array([]), "n_b": np.array([])},
              {"tool": "mqisim", "count": 0}),
}

# Columns that repeat values, which the emitters format once per distinct
# bit pattern.  Rows of the long tables cross two block boundaries.
_LONG = 2 * _BLOCK_ROWS + 3
_NAN_INF_BITS = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                 0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000]
_EDGE = np.arange(_LONG) * 0.375 - 7.0
_EDGE[2 * _BLOCK_ROWS + 2] = _EDGE[0]   # the one repeat, in the first and the last block
_RUNS = np.repeat(np.arange(-4, 5) * 0.25, -(-_LONG // 9))[:_LONG]
_RUNS[np.flatnonzero(_RUNS == 0.0)[::3]] = -0.0

TABLES.update({
    "stride_zero": (
        {"c": np.broadcast_to(np.float64(0.1), (_LONG,)), "x": np.arange(_LONG) * 1e-3},
        {"tool": "mqisim"},
    ),
    "signed_zero": ({"z": np.resize([0.0, -0.0], _LONG)}, {"tool": "mqisim"}),
    # NaNs of different payloads and signs, and repeated infinities
    "nan_inf": (
        {"s": np.resize(np.array(_NAN_INF_BITS, dtype=np.uint64).view(np.float64), 60)},
        {"tool": "mqisim"},
    ),
    "subnormal": (
        {"s": np.resize([5e-324, 1.55772969e-318, 2.2250738585072014e-308, 5e-324], 40)},
        {"tool": "mqisim"},
    ),
    "block_edge_repeat": (
        {"edge": _EDGE, "distinct": np.arange(_LONG) * 1.1e-3, "rep": np.resize([0.5, 9e9], _LONG)},
        {"tool": "mqisim"},
    ),
    # monotone columns hold each value in one run, a run of zeros of both signs among them
    "monotone_runs": (
        {
            "up": _RUNS,
            "down": _RUNS[::-1],
            "n": np.arange(_LONG) // 1000,
        },
        {"tool": "mqisim"},
    ),
    "repeated_bool_int": (
        {
            "flag": np.arange(_LONG) % 3 == 0,
            "n": (np.arange(_LONG) % 7 - 3) * 1000003,
            "u": (np.arange(_LONG) % 5).astype(np.uint8),
            "c": np.broadcast_to(np.int64(-2), (_LONG,)),
        },
        {"tool": "mqisim"},
    ),
    # no unsigned integer is as wide as a long double, so it is formatted cell by cell
    "long_double": (
        {"x": np.array([0.1, 1 / 3, 1e300, 0.1, 5e-324, 1 / 3], dtype=np.longdouble)},
        {"tool": "mqisim"},
    ),
})


# Fixed cases of the float kernel: every power of ten it formats, three
# ulps either side; exact ties of the tenth digit, which only Python's
# rounding decides, and their neighbours; float32 and float16 columns.
_TENS = np.array([float(f"1e{k}") for k in range(-300, 301)])
_NEAR_TENS = [_TENS]
for _direction in (math.inf, -math.inf):
    _step = _TENS
    for _ in range(3):
        _step = np.nextafter(_step, _direction)
        _NEAR_TENS.append(_step)
_TIES = np.array([100000000.5, 100000001.5, 1000000005.0, 1000000015.0, 12345678.25,
                  12345678.75, 1234567.125, 999999999.5]
                 + [float(f"999999999.5e{k}") for k in range(-300, 291, 7)])

# JSON's integer cells, which repr writes in fixed notation from 1e9 to
# below 1e16: random values of each decade, 9-digit ties, both ends of the
# band, and each value's neighbours and negation.
_BAND = np.concatenate([
    10.0 ** np.random.default_rng(15).uniform(9, 16, 2000),
    [float(f"{d}5e{k}") for d in ("100000000", "123456789", "999999999") for k in range(7)],
    [999999999.5, 1e9, 9.99999999e15, 9.999999995e15, 1e16],
])
_BAND = np.concatenate([_BAND, np.nextafter(_BAND, math.inf), np.nextafter(_BAND, -math.inf)])

TABLES.update({
    "json_integers": ({"x": _BAND, "neg": -_BAND}, {"tool": "mqisim"}),
    "powers_of_ten": ({"x": np.concatenate(_NEAR_TENS), "neg": -np.concatenate(_NEAR_TENS)},
                      {"tool": "mqisim"}),
    "ties": ({"x": np.concatenate([_TIES, np.nextafter(_TIES, math.inf),
                                   np.nextafter(_TIES, -math.inf), -_TIES])},
             {"tool": "mqisim"}),
    "float32": ({"x": np.array([0.1, 1 / 3, -2.5, 3.4028235e38, 1.17549435e-38, 1e-45, 0.0,
                                -0.0, 1e9, 16777217.0, math.inf, math.nan], dtype=np.float32)},
                {"tool": "mqisim"}),
    "float16": ({"x": np.array([0.1, 1 / 3, -2.5, 65504.0, 6.1e-5, 6e-8, 0.0, -0.0, 2049.0,
                                math.inf, -math.inf, math.nan], dtype=np.float16)},
                {"tool": "mqisim"}),
})


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _assert_same_text(got: str, want: str):
    # compared as lists of lines with their ends kept, which are equal exactly when the
    # strings are: a failure reports its first wrong line at once, where a diff of two
    # whole strings of many lines can run for minutes
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_csv_matches_reference(name):
    table, meta = TABLES[name]
    _assert_same_text(emit_csv(table, meta), ref_emit_csv(table, meta))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_json_matches_reference(name):
    table, meta = TABLES[name]
    text = emit_json(table, meta)
    _assert_same_text(text, ref_emit_json(table, meta))
    doc = json.loads(text, parse_constant=_reject_constant)
    assert len(doc["rows"]) == len(_rows(table))


def test_non_finite_cells_are_strings():
    doc = json.loads(emit_json({"x": np.array([math.inf, -math.inf, math.nan])}, {}),
                     parse_constant=_reject_constant)
    assert doc["rows"] == [["inf"], ["-inf"], ["nan"]]


@pytest.mark.parametrize("emit", [emit_csv, emit_json], ids=["csv", "json"])
@pytest.mark.parametrize(
    "cells",
    [[1, 2.0], [True, 1], [0.5, False], [1.0, "1"], [1] * (2 * _BLOCK_ROWS) + [2.0]],
    ids=["int_float", "bool_int", "float_bool", "float_str", "int_float_last_block"],
)
def test_column_of_mixed_kinds_raises(emit, cells):
    # a numpy column of mixed kinds has the object dtype, which has no cell format
    with pytest.raises(TypeError):
        emit({"a": np.zeros(len(cells)), "b": np.array(cells, dtype=object)}, {})


@pytest.mark.parametrize("emit", [emit_csv, emit_json], ids=["csv", "json"])
@pytest.mark.parametrize(
    "table",
    [
        {"a": np.array([1.0, 2.0]), "b": np.array([1 + 2j, 3j])},
        {"a": np.array(["1", "2"])},
        {"a": np.array(["2024-01-01"], dtype="datetime64[D]")},
        {"a": [1.0, 2.0]},
        {"a": np.array(1.0)},
        {"a": np.zeros((2, 1))},
        {"a": np.zeros(3), "b": np.zeros(2)},
        {"a": np.zeros(2 * _BLOCK_ROWS + 1, dtype=bool), "b": np.zeros(2 * _BLOCK_ROWS)},
    ],
    ids=["complex", "str", "datetime", "list", "0d", "2d", "ragged", "ragged_last_block"],
)
def test_malformed_table_raises(emit, table):
    with pytest.raises(TypeError):
        emit(table, {})


@pytest.mark.parametrize("emit", [emit_csv, emit_json], ids=["csv", "json"])
def test_each_distinct_value_is_formatted_once(monkeypatch, emit):
    rows = 10_000
    table = {
        "x": np.resize([2.5, -0.0, 0.0], rows),
        "n": np.resize([7, -1, 7, 0], rows),
        "flag": np.resize([True, False, False], rows),
        "c": np.broadcast_to(np.float64(1e-300), (rows,)),
    }
    kernel, python = [], []
    format_floats, byte_rows = digits.format_floats, digits.byte_rows

    def counting_kernel(values, json_floats, out):
        kernel.append(values.size)
        format_floats(values, json_floats, out)

    def counting_python(cells):
        python.append(len(cells))
        return byte_rows(cells)

    monkeypatch.setattr(digits, "format_floats", counting_kernel)
    monkeypatch.setattr(digits, "byte_rows", counting_python)
    text = emit(table, {"tool": "mqisim"})
    # the distinct floats of x and c in one kernel call; Python formats the
    # distinct ints of n and 1e-300, whose exponent is beyond the kernel's
    assert kernel == [4]
    assert sorted(python) == [1, 3]
    reference = ref_emit_csv if emit is emit_csv else ref_emit_json
    _assert_same_text(text, reference(table, {"tool": "mqisim"}))


def _assert_float_cells_match(x):
    table = {"x": x}
    _assert_same_text(emit_csv(table, {}), ref_emit_csv(table, {}))
    _assert_same_text(emit_json(table, {}), ref_emit_json(table, {}))


def test_every_binade_matches_python_format():
    # four mantissas in each of the 2098 binary exponents, subnormals included
    mantissas = (1.0, 1.2345678901234567, 1.75, 1.9999999999999998)
    x = np.concatenate([np.ldexp(m, np.arange(-1074, 1024)) for m in mantissas])
    _assert_float_cells_match(np.concatenate([x, -x]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns_match_python_format(bits):
    # uniform bit patterns draw every binade alike, and NaN payloads and infinities
    _assert_float_cells_match(np.array(bits, dtype=np.uint64).view(np.float64))


def test_chunks_of_the_kernel_join_in_order():
    x = np.arange(2 * digits.CHUNK + 5) * 0.1 + 1e-3
    x[digits.CHUNK - 1:digits.CHUNK + 1] = [5e-324, 100000000.5]   # Python cells at a chunk edge
    _assert_float_cells_match(x)


# Values of the property test below: signed zeros, NaNs of other payloads and
# signs, infinities, subnormals, JSON's integer cells from 1e9 to below 1e16
# and a 9-digit tie that only Python's rounding decides.
_POOL = np.concatenate([
    [0.0, -0.0, 5e-324, -1.55772969e-318, 2.2250738585072014e-308, 1e9, 1.5e9,
     -123456789012.0, 9.999999995e15, 1e16, 100000000.5, 0.1, -2.5, 1e-300],
    np.array(_NAN_INF_BITS, dtype=np.uint64).view(np.float64),
])
_LENGTHS = [0, 1, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


@st.composite
def _tables(draw):
    """A table whose columns lay a few distinct values out as a generated axis
    does: repeated, tiled, one value broadcast, or drawn at random."""
    rows = draw(st.sampled_from(_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for name in "abcd"[:draw(st.integers(1, 4))]:
        kind = draw(st.sampled_from(["float64", "float32", "int64", "bool"]))
        k = draw(st.integers(1, 2 * _POOL.size))   # distinct values, or fewer
        if kind == "bool":
            values = rng.integers(0, 2, k).astype(bool)
        elif kind == "int64":
            values = rng.integers(-2**63, 2**31, k)
        else:
            with np.errstate(invalid="ignore"):   # a signalling NaN becomes a quiet float32 one
                values = rng.choice(_POOL, k).astype(kind)
        shape = draw(st.sampled_from(["draws", "repeat", "tile", "scalar"]))
        if shape == "repeat":   # an axis: sorted, with any -0.0 and 0.0 side by side
            col = np.repeat(np.sort(values), -(-rows // k))[:rows]
        elif shape == "tile":
            col = np.tile(np.sort(values), -(-rows // k))[:rows]
        elif shape == "scalar":
            col = np.broadcast_to(values[0], (rows,))
        else:
            col = values[rng.integers(0, k, rows)]
        table[name] = col
    return table


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_tables())
def test_tables_of_repeated_values_match_reference(table):
    meta = {"tool": "mqisim"}
    _assert_same_text(emit_csv(table, meta), ref_emit_csv(table, meta))
    _assert_same_text(emit_json(table, meta), ref_emit_json(table, meta))
