"""Cells of the command line's tables, nine significant digits, as byte rows.

A cell is a row of ``CELL`` bytes in which an absent character is NUL, so
the cells of a column form one uint8 array and a row of the table is the
cells laid side by side with the NULs dropped.  ``float_cells`` writes
Python's ``format(v, ".9g")`` (or its JSON token) of float64 values with a
numpy kernel, byte for byte, and leaves to Python only the values the
kernel cannot decide.
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


def json_float(cell: str) -> str:
    """JSON token of a ``%.9g`` cell: the shortest repr of the double it names.

    A fixed-notation cell already is that repr, given a ``.0`` when it has
    no fraction, and so is an ``e-`` cell of a normal double.  repr
    switches to exponent notation at 1e16 rather than 1e9, and subnormals
    (below 1e-307) can round-trip with fewer than 9 digits, so ``e+`` and
    subnormal cells are re-formatted; the ``e-3`` test also takes in the
    ``e-30`` to ``e-39`` and ``e-300`` to ``e-307`` cells, whose repr is
    the cell itself.  JSON has no inf/nan token; those become strings.
    """
    if "." in cell and "e" not in cell:
        return cell
    if cell[-1] in "fn":
        return f'"{cell}"'
    if "e+" in cell or "e-3" in cell:
        return repr(float(cell))
    return cell if "e" in cell else cell + ".0"


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

    The kernel writes ``%.9g`` (CSV), or for JSON the same digits with
    ``.0`` after an integer, since a fixed cell and a normal ``e-`` cell
    already are the shortest repr of the double they name.  Unsure values
    and JSON cells of 1e9 and above, which repr writes in fixed notation
    up to 1e16, go through Python's format and ``json_float``.
    """
    neg, x, m, unsure = decompose(values)
    fixed = (x >= -4) & (x <= 8)
    if json_floats:
        unsure |= x >= 9
    groups = (m // 1_000_000, m // 1000 % 1000, m % 1000)
    last = np.maximum(np.maximum(_LAST_NONZERO[groups[0]], _LAST_NONZERO[groups[1]] + 3),
                      _LAST_NONZERO[groups[2]] + 6)   # -4 for zero
    point = np.where(fixed, x, 0)          # the digit a '.' may follow
    below1 = fixed & (x < 0)
    dot = np.where(~below1 & ((last > point) | (json_floats & fixed)), point, -1)
    shape = 10 * np.maximum(last, point) + dot + 1
    words = out.view(np.uint32)
    for j, g in enumerate(groups):
        words[:, 2 + j] = _GROUPS[_SHAPES[j][shape] + g]
    out.view(np.uint64)[:, 0] = _PREFIX[5 * neg + np.where(below1, -x, 0)]
    out.view(np.uint64)[:, 3] = _EXPONENT[x + 290]
    if json_floats:
        out[:, 20] = (fixed & ~below1 & (last <= point)) * np.uint8(ord("0"))
    if unsure.any():
        cells = list(map(format, values[unsure].tolist(), repeat(".9g")))
        out[unsure] = byte_rows(list(map(json_float, cells)) if json_floats else cells)


def float_cells(values: np.ndarray, json_floats: bool) -> np.ndarray:
    """Cell rows of float64 values, formatted ``CHUNK`` values at a time."""
    out = np.zeros((values.size, CELL), np.uint8)
    for s in range(0, values.size, CHUNK):
        format_floats(values[s:s + CHUNK], json_floats, out[s:s + CHUNK])
    return out
