"""The command line's CSV and JSON tables, nine significant digits a cell.

A cell is a row of ``CELL`` bytes in which an absent character is NUL, so
the cells of a column form one uint8 array and a row of the table is the
cells laid side by side with the NULs dropped.  ``format_floats`` writes
Python's ``format(v, ".9g")`` (or its JSON token) of float64 values with a
numpy kernel, byte for byte, and leaves to Python only the values the
kernel cannot decide.  ``emit_csv`` and ``emit_json`` write a table (a
dict of 1-D numpy columns) and its metadata; ``same_cells`` tells which
adjacent values of a generated axis print the same cell.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

# float values the kernel formats at a time: bounds its temporaries
CHUNK = 16384
# bytes of a cell row, an absent character being NUL; Python's widest
# float cell (repr's 24 characters) fits
CELL = 32


def byte_rows(cells: list[str], width: int = CELL) -> np.ndarray:
    """ASCII strings as NUL-padded rows of ``width`` bytes."""
    return np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width)


def _digit_groups() -> np.ndarray:
    """Three ASCII digits of ``g`` with only the first ``k`` kept and a '.'
    after digit ``p - 1`` (none for ``p = 0``), as 4-byte words; entry
    ``(4 k + p) * 1000 + g``."""
    digits = np.frombuffer("".join(f"{g:03d}" for g in range(1000)).encode(), np.uint8)
    out = np.zeros((4, 4, 1000, 4), np.uint8)
    for k in range(4):
        kept = digits.reshape(1000, 3).copy()
        kept[:, k:] = 0
        out[k, :, :, :3] = kept
        for p in range(1, 4):
            out[k, p, :, p] = ord(".")
            out[k, p, :, p + 1:] = kept[:, p:]
    return out.view(np.uint32).ravel()


def _group_shape(j: int, kept: int, dot: int) -> int:
    """Offset into ``_GROUPS`` of digit group ``j`` (digits 3j to 3j + 2) of a
    cell that writes digits 0 to ``kept`` and a '.' after digit ``dot``
    (-1: none)."""
    k = min(max(kept - 3 * j + 1, 0), 3)
    p = dot - 3 * j + 1 if 0 <= dot - 3 * j <= 2 else 0
    return (4 * k + p) * 1000


# Tables of the float kernel.  A cell row holds the sign and the "0.000"
# of a fixed cell below 1 in bytes 0-7, the nine digits and the point in
# three 4-byte groups (8-19), JSON's "0" of a ".0" in byte 20 and the
# exponent in bytes 24-31.
# Built from Python values, with few numpy calls: numpy's first use of an
# operation costs memory that every run of the program would carry.
_GROUPS = _digit_groups()
# entry [j, 10 kept + dot + 1]
_SHAPES = np.array([[_group_shape(j, kept, dot) for kept in range(9) for dot in range(-1, 9)]
                    for j in range(3)])
# last nonzero digit of a three-digit group, -10 for 000
_LAST_NONZERO = np.array([2 if g % 10 else 1 if g % 100 else 0 if g else -10 for g in range(1000)])
# sign and leading "0.000", entry 5 * negative + zeros after the point
_PREFIX = byte_rows([s + z for s in ("", "-") for z in ("", "0.", "0.0", "0.00", "0.000")],
                    8).view(np.uint64).ravel()
_EXPONENT = byte_rows(["" if -4 <= x <= 8 else f"e{x:+03d}" for x in range(-290, 291)],
                      8).view(np.uint64).ravel()
# JSON's tail of an integer cell of 1e9 to 1e16 (exponent x = 9 to 15) after
# its nine digits: x - 8 zeros and ".0", in bytes 20-31
_JSON_INTEGER_TAIL = byte_rows(["0" * (x - 8) + ".0" for x in range(9, 16)], 12)
# 10**(x - 8) for x >= -299, correctly rounded
_POW10 = np.array([float(f"1e{k}") for k in range(-307, 301)])


def decompose(values: np.ndarray):
    """Sign, decimal exponent ``x``, 9-digit mantissa and unsure mask of float64 values.

    ``x = floor(log10|v|)``, moved one step where ``q = |v| / 10**(x - 8)``
    leaves [1e8, 1e9).  ``q`` carries two roundings (the power of ten and
    the quotient), at most about 2.2e-7, so ``rint(q)`` is the correctly
    rounded mantissa unless ``q`` lies within 1e-6 of a tie.  Those values, non-finite ones and ``|x| > 290`` (which takes in
    the subnormals) are unsure: only Python's format decides them, and they
    read 0 here, as zero does.
    """
    a = np.abs(values)
    unsure = ~np.isfinite(a)
    a[unsure] = 0.0
    x = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0)).astype(np.int64)
    q = a / _POW10[np.maximum(x, -299) + 299]
    x += (q >= 1e9).astype(np.int64) - (q < 1e8)
    x[a == 0] = 0
    q = a / _POW10[np.maximum(x, -299) + 299]
    unsure |= np.abs(q - np.floor(q) - 0.5) <= 1e-6
    m = np.rint(q)
    carry = m == 1e9   # rounding reached the next power of ten
    x += carry
    m[carry] = 1e8
    unsure |= np.abs(x) > 290
    x[unsure] = 0
    m[unsure] = 0.0
    return np.signbit(values), x, m.astype(np.int64), unsure


def format_floats(values: np.ndarray, json_floats: bool, out: np.ndarray) -> None:
    """Write the cells of float64 values into ``out``, a zeroed row per value.

    The kernel writes ``%.9g`` (CSV), or for JSON the shortest repr of
    the double the ``%.9g`` cell names: the same digits with ``.0`` after
    an integer, since a fixed cell and a normal ``e-`` cell already are
    that repr.  From 1e9 to below 1e16 the cell names an integer that is
    an exact double (``m 10**k = m 5**k 2**k`` with ``m 5**k < 2**53``
    for ``k = x - 8 <= 7``), and repr writes it in fixed notation: the
    nine digits, ``k`` zeros and ``.0``.  From 1e16 on repr is the ``e+``
    cell itself.  Python writes the unsure values: the ``%.9g`` cell, and
    for JSON the repr of the double it names, or the quoted cell of inf,
    -inf and nan, which JSON has no token for.
    """
    neg, x, m, unsure = decompose(values)
    fixed = (x >= -4) & (x <= 8)
    integer = json_floats & (x >= 9) & (x <= 15)
    groups = (m // 1_000_000, m // 1000 % 1000, m % 1000)
    last = np.maximum(np.maximum(_LAST_NONZERO[groups[0]], _LAST_NONZERO[groups[1]] + 3),
                      _LAST_NONZERO[groups[2]] + 6)   # -4 for zero
    point = np.where(fixed, x, 0)          # the digit a '.' may follow
    below1 = fixed & (x < 0)
    dot = np.where(~below1 & ((last > point) | (json_floats & fixed)), point, -1)
    shape = np.where(integer, 80, 10 * np.maximum(last, point) + dot + 1)   # 80: nine digits, no '.'
    words = out.view(np.uint32)
    for j, g in enumerate(groups):
        words[:, 2 + j] = _GROUPS[_SHAPES[j][shape] + g]
    out.view(np.uint64)[:, 0] = _PREFIX[5 * neg + np.where(below1, -x, 0)]
    out.view(np.uint64)[:, 3] = _EXPONENT[x + 290]
    if json_floats:
        out[:, 20] = (fixed & ~below1 & (last <= point)) * np.uint8(ord("0"))
        out[integer, 20:] = _JSON_INTEGER_TAIL[x[integer] - 9]
    if unsure.any():
        cells = list(map(format, values[unsure].tolist(), repeat(".9g")))
        if json_floats:
            cells = [f'"{c}"' if c[-1] in "fn" else repr(float(c)) for c in cells]
        out[unsure] = byte_rows(cells)


def same_cells(values: np.ndarray) -> np.ndarray:
    """Whether each value prints the same ``%.9g`` cell as the value after it."""
    neg, x, m, unsure = decompose(values)
    same = (neg[1:] == neg[:-1]) & (x[1:] == x[:-1]) & (m[1:] == m[:-1])
    for i in np.flatnonzero(unsure[1:] | unsure[:-1]):
        same[i] = format(values[i], ".9g") == format(values[i + 1], ".9g")
    return same


# rows gathered and joined at a time: bounds the row bytes alive at once
_BLOCK_ROWS = 4096


def row_count(table: dict) -> int:
    """Rows of a table of 1-D bool, integer or float numpy columns of one length."""
    lengths = set()
    for name, col in table.items():
        if not isinstance(col, np.ndarray) or col.ndim != 1 or col.dtype.kind not in "biuf":
            raise TypeError(f"column {name!r} is not a 1-D bool, integer or float array")
        lengths.add(col.size)
    if len(lengths) > 1:
        raise TypeError(f"columns of unequal lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


_BOOL_CELLS = byte_rows(["false", "true"])


def _distinct(col: np.ndarray):
    """The column's distinct values and each row's index into them, or
    ``(col, None)`` when no value repeats.

    Keyed on bit patterns, so -0.0 stays apart from 0.0 and NaNs of
    different payloads apart from each other.  A strictly monotone column,
    such as every linspace axis, has no repeats and skips the sort; a
    monotone one, such as a repeated axis, holds each value in one run and
    is split where its bits change (a run of zeros that mixes -0.0 and
    0.0 gives a key per change).  NaN, which is unordered, takes the sort.
    """
    rises, falls = col[1:] > col[:-1], col[1:] < col[:-1]
    if rises.all() or falls.all():
        return col, None
    bits = col.view(f"u{col.itemsize}")
    if not (rises.any() and falls.any()) and (rises | falls | (col[1:] == col[:-1])).all():
        change = bits[1:] != bits[:-1]
        keys, index = col[np.r_[True, change]], np.cumsum(np.r_[0, change])
    else:
        keys, index = np.unique(bits, return_inverse=True)
        keys = keys.view(col.dtype)
    return (col, None) if keys.size == col.size else (keys, index)


def _column_cells(table: dict, json_floats: bool) -> list:
    """Per column, its cell rows and each table row's index into them
    (``None``: one cell row per table row).

    Each distinct value is formatted once, and all floats of the table in
    one pass of the kernel, ``CHUNK`` values at a time.  Byte columns that are NUL in every cell are dropped.
    """
    columns, floats = [], []
    for col in table.values():
        if col.dtype.kind == "b":
            columns.append([_BOOL_CELLS, col.view(np.uint8)])
        elif col.dtype.kind in "iu":
            keys, index = _distinct(col)
            columns.append([byte_rows(list(map(str, keys.tolist()))), index])
        else:
            # Python formats a long double as the double nearest it, inf beyond their range
            with np.errstate(over="ignore"):
                columns.append(list(_distinct(col.astype(np.float64, copy=False))))
            floats.append(columns[-1])
    if floats:
        values = np.concatenate([c[0] for c in floats])
        cells = np.zeros((values.size, CELL), np.uint8)
        for s in range(0, values.size, CHUNK):
            format_floats(values[s:s + CHUNK], json_floats, cells[s:s + CHUNK])
        ends = np.cumsum([c[0].size for c in floats])
        for c, end in zip(floats, ends):
            c[0] = cells[end - c[0].size:end]
    for c in columns:
        # OR each 8-byte lane down the column: numpy reduces one strided lane
        # several times faster than axis 0 of the whole array
        lanes = c[0].view(np.uint64)
        used = np.array([np.bitwise_or.reduce(lane) for lane in lanes.T], np.uint64)
        c[0] = c[0].take(np.flatnonzero(used.view(np.uint8)), axis=1)
    return columns


def _row_blocks(table: dict, sep: str, end: str, json_floats: bool):
    """The text of the rows, one block of rows at a time: cells joined by
    ``sep``, every row (the last too) followed by ``end``.

    A block's cell rows and separators are laid side by side as bytes, and
    the NULs dropped.
    """
    rows = row_count(table)
    columns = _column_cells(table, json_floats)
    seps = [np.frombuffer(text.encode(), np.uint8) for text in [sep] * (len(columns) - 1) + [end]]
    for s in range(0, rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, rows - s)
        parts = []
        for (cells, index), sep_bytes in zip(columns, seps):
            parts.append(cells[s:s + n] if index is None else cells.take(index[s:s + n], axis=0))
            parts.append(np.broadcast_to(sep_bytes, (n, sep_bytes.size)))
        yield np.hstack(parts).tobytes().translate(None, b"\0").decode("ascii")


def _meta_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(_meta_value(x) for x in v)
    return str(v)


def emit_csv(table: dict, meta: dict) -> str:
    footer = "".join(f"# {k} = {_meta_value(meta[k])}\n" for k in sorted(meta))
    rows = _row_blocks(table, ",", "\n", json_floats=False)
    return "".join([",".join(table), "\n", *rows, footer])


def emit_json(table: dict, meta: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` of the table, rows written directly.

    Rows come last in key order, so the document is dumped without them and
    the rows block is appended in the same layout.
    """
    import json   # here, so that a CSV run does not pay for importing it

    rows = row_count(table)
    # tuples dump as lists; numpy scalars, which json does not know, as their Python value
    head = json.dumps({"metadata": meta, "columns": list(table)},
                      indent=2, sort_keys=True, default=lambda v: v.item())
    if not rows:
        return head[:-2] + ',\n  "rows": []\n}\n'
    row_end = "\n    ],\n    [\n      "
    blocks = list(_row_blocks(table, ",\n      ", row_end, json_floats=True))
    blocks[-1] = blocks[-1][:-len(row_end)]   # the last row closes the list instead
    return "".join([head[:-2], ',\n  "rows": [\n    [\n      ', *blocks, "\n    ]\n  ]\n}\n"])
