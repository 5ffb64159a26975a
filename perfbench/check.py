"""Output check: parse an invocation's table and compare it with refs.json.

A reference holds, per data column, the row count, the non-finite cells,
three sums (plain, absolute and cosine-weighted) and the values at up to
``SAMPLES`` evenly spaced rows.  Columns are matched by name, so columns a
later version adds are ignored and a missing one is a failure.  Numbers
agree when they differ by at most ``RTOL`` of their scale: the reference
value, floored at ``FLOOR`` times the column's largest magnitude, and for
the sums the absolute sum.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-5
FLOOR = 1e-6
SAMPLES = 32
_BOOLS = {"true": 1.0, "false": 0.0}


def read_table(path: Path, fmt: str) -> dict[str, np.ndarray]:
    """Columns of a CSV or JSON output as float arrays; raises ValueError if malformed."""
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text)
        if not isinstance(doc.get("metadata"), dict):
            raise ValueError("json output has no metadata object")
        columns, rows = doc["columns"], doc["rows"]
    else:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("csv output has no header")
        columns, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate column names {columns}")
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"a row does not have {len(columns)} cells")
    cells = np.array(rows, dtype=object).reshape(len(rows), len(columns))
    return {name: _floats(cells[:, j]) for j, name in enumerate(columns)}


def _floats(col: np.ndarray) -> np.ndarray:
    try:
        return col.astype(float)
    except ValueError:
        return np.array([_BOOLS[v] if isinstance(v, str) and v in _BOOLS else float(v)
                         for v in col])


def _sample_rows(n: int) -> list[int]:
    return sorted({int(k) for k in np.linspace(0, n - 1, min(n, SAMPLES)).round()}) if n else []


def fingerprint(col: np.ndarray) -> dict:
    finite = np.isfinite(col)
    x = np.where(finite, col, 0.0)
    weights = np.cos(0.7 * np.arange(len(col)))
    return {
        "nonfinite": [[int(k), repr(float(col[k]))] for k in np.flatnonzero(~finite)],
        "sum": float(x.sum()),
        "abs_sum": float(np.abs(x).sum()),
        "cos_sum": float(weights @ x),
        "abs_max": float(np.abs(x).max(initial=0.0)),
        "samples": [[k, float(col[k])] for k in _sample_rows(len(col))],
    }


def reference(columns: dict[str, np.ndarray]) -> dict:
    n_rows = len(next(iter(columns.values()))) if columns else 0
    return {"rows": n_rows, "columns": {name: fingerprint(c) for name, c in columns.items()}}


def _close(value: float, ref: float, scale: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return value == ref or (math.isnan(ref) and math.isnan(value))
    return abs(value - ref) <= RTOL * scale


def compare(columns: dict[str, np.ndarray], ref: dict) -> list[str]:
    """Problems found comparing parsed columns with one reference; empty if it agrees."""
    n_rows = len(next(iter(columns.values()))) if columns else 0
    if n_rows != ref["rows"]:
        return [f"{n_rows} rows, expected {ref['rows']}"]
    problems = []
    for name, want in ref["columns"].items():
        if name not in columns:
            problems.append(f"column {name} missing")
            continue
        got = fingerprint(columns[name])
        if got["nonfinite"] != want["nonfinite"]:
            problems.append(f"{name}: non-finite cells {got['nonfinite']} != {want['nonfinite']}")
        for key in ("sum", "abs_sum", "cos_sum"):
            if not _close(got[key], want[key], want["abs_sum"]):
                problems.append(f"{name}: {key} {got[key]!r} != {want[key]!r}")
        floor = FLOOR * want["abs_max"]
        for k, ref_value in want["samples"]:
            value = float(columns[name][k])
            if not _close(value, ref_value, max(abs(ref_value), floor)):
                problems.append(f"{name}[{k}] = {value!r}, expected {ref_value!r}")
    return problems


def ratio_problems(columns: dict[str, np.ndarray]) -> list[str]:
    """Criterion 9: a QI/classical exponent ratio column increases inside (1, 4)."""
    ratios = columns.get("exponent_ratio")
    if ratios is None:
        return []
    if np.all(np.diff(ratios) > 0) and np.all((ratios > 1.0) & (ratios < 4.0)):
        return []
    return [f"exponent_ratio not increasing in (1, 4): {ratios.tolist()}"]


def check_output(path: Path, fmt: str, ref: dict) -> list[str]:
    """All problems with one invocation's output file; empty if it is correct."""
    try:
        columns = read_table(path, fmt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc}"]
    return compare(columns, ref) + ratio_problems(columns)
