"""CSV/JSON emission against an independent per-cell reference.

The reference below formats every cell on its own and lets the standard
``json`` encoder lay out the whole document; ``mqisim.cli`` formats
tables one column at a time and writes the JSON rows block itself.  The
two must agree byte for byte.
"""

import json
import math

import numpy as np
import pytest

from mqisim.cli import _BLOCK_ROWS, emit_csv, emit_json


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


def ref_emit_csv(columns, rows, meta) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_ref_csv_cell(v) for v in row) for row in rows)
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


def ref_emit_json(columns, rows, meta) -> str:
    doc = {
        "metadata": {k: _ref_meta_json(meta[k]) for k in sorted(meta)},
        "columns": list(columns),
        "rows": [[_ref_json_cell(v) for v in row] for row in rows],
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
        ["flag", "n", "x"],
        [[i % 3 == 0, (i - 7) * 1000003 if i % 2 else np.int64(i), v]
         for i, v in enumerate(FLOATS)],
        {"tool": "mqisim", "param_range": (-4.0, 4.0), "quiet": False, "n": 3,
         "x": np.float64(0.25), "layout": "row-major"},
    ),
    "one_row": (["eta", "valid"], [(0.1, True)], {"tool": "mqisim"}),
    # rows are formatted in blocks; cross two block boundaries
    "multi_block": (
        ["x", "w", "ok"],
        [(i * 0.125 - 3.0, math.exp(-0.01 * i) * 1e-300 ** (i % 2), i % 5 == 0)
         for i in range(2 * _BLOCK_ROWS + 3)],
        {"tool": "mqisim"},
    ),
    "empty": (["eta", "n_s", "n_b"], [], {"tool": "mqisim", "count": 0}),
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_csv_matches_reference(name):
    columns, rows, meta = TABLES[name]
    assert emit_csv(columns, rows, meta) == ref_emit_csv(columns, rows, meta)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_json_matches_reference(name):
    columns, rows, meta = TABLES[name]
    text = emit_json(columns, rows, meta)
    assert text == ref_emit_json(columns, rows, meta)
    doc = json.loads(text, parse_constant=_reject_constant)
    assert len(doc["rows"]) == len(rows)


def test_non_finite_cells_are_strings():
    doc = json.loads(emit_json(["x"], [[math.inf], [-math.inf], [math.nan]], {}),
                     parse_constant=_reject_constant)
    assert doc["rows"] == [["inf"], ["-inf"], ["nan"]]


@pytest.mark.parametrize("emit", [emit_csv, emit_json], ids=["csv", "json"])
@pytest.mark.parametrize(
    "cells",
    [[1, 2.0], [True, 1], [0.5, False], [1.0, "1"], [1] * (2 * _BLOCK_ROWS) + [2.0]],
    ids=["int_float", "bool_int", "float_bool", "float_str", "int_float_last_block"],
)
def test_column_of_mixed_kinds_raises(emit, cells):
    with pytest.raises(TypeError):
        emit(["a", "b"], [[0.0, v] for v in cells], {})
