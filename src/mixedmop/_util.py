"""Shared plumbing: deterministic serialization and JSON input checks."""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from typing import Any, Sequence

import numpy as np


# A block holds CSV_BLOCK_CELLS // width rows (at least one), so about this
# many cells; each is formatted and written before the next, so the whole
# text is never held.  A block of C cells with D distinct values holds at
# its peak about 8 C + 86 D bytes while the distinct values are printed, or
# 50 C while the NULs are dropped from its lines: under 1 MB at this budget.
CSV_BLOCK_CELLS = 10240
CSV_ARRAY_MIN_CELLS = 512  # smaller blocks are printed by the `%` line


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write a header line, then one line per row of ``rows``: anything
    ``np.asarray(rows, dtype=float)`` makes a (rows, len(header)) array, or
    an empty sequence for no rows; any other shape raises ValueError before
    the file is made.  Every value is printed as ``'%.17g' % value`` prints
    it, which round-trips any double and prints an integer-valued column
    (an index) as a plain integer.  The rows are formatted and written in
    blocks of about ``CSV_BLOCK_CELLS`` cells, one block at a time.  The
    lines go to a new file at path (``new_file``)."""
    table = np.asarray(rows, dtype=float)
    width = len(header)
    if table.ndim == 1 and table.size == 0:
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"CSV rows must form a table of {width} columns, "
                         f"got shape {table.shape}")
    step = max(1, CSV_BLOCK_CELLS // max(1, width))
    with new_file(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), step):
            fh.write(_format_block(table[start:start + step]))


def _format_block(block: np.ndarray) -> bytes | bytearray:
    """The CSV lines of a 2-D block.  A block of fewer than
    ``CSV_ARRAY_MIN_CELLS`` cells is printed by ``_percent_lines``.  In a
    larger one each distinct value (told apart by bit pattern, so -0.0
    stays apart from 0.0) is printed once by ``_cell_text`` into a row of
    fixed width padded with NUL bytes.  ``np.take`` gathers those rows, one
    per cell, straight into a ``bytearray`` of ``_CELL_BYTES`` a cell; the
    last comma of each line becomes a newline, and once the ranks and the
    distinct rows are freed, ``translate`` copies the lines without the
    NULs."""
    if block.size < CSV_ARRAY_MIN_CELLS:
        return _percent_lines(block).encode()
    bits = np.ascontiguousarray(block).view(np.int64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = _cell_text(distinct.view(np.float64))
    lines = bytearray(block.size * _CELL_BYTES)
    cells = np.frombuffer(lines, np.uint8).reshape(block.size, _CELL_BYTES)
    np.take(text, inverse, axis=0, mode="clip", out=cells)
    cells[block.shape[1] - 1::block.shape[1], -1] = ord("\n")
    del distinct, inverse, text, cells  # freed before the copy without NULs
    return lines.translate(None, b"\0")


def _percent_lines(block: np.ndarray) -> str:
    """The CSV lines of a 2-D block by one ``%`` operation with a ``%.17g``
    field per cell."""
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (line * len(block)) % tuple(block.ravel().tolist())


# ``'%.17g' % x`` by array arithmetic.  For |x| in [1e-280, 1e280) let
# k = floor(log10|x|); the 17 digits are N = round(v), v = |x| 10^(16 - k)
# in [1e16, 1e17).  With 10^e = h + l as a double-double, p = fl(|x| h) is
# an integer (p >= 2^53) and r = v - p is the product's exact error (Dekker)
# plus |x| l, so N = p + round(r).  For 0 <= e <= 22 the power is a double,
# l = 0 and r is exact: round-half-even on r is that of %.17g, as p is even.
# Otherwise r is off by about 1e-14 at most, and a cell whose r lies within
# _CERTAIN of a half-integer, or whose v lies within it of a decade end, is
# printed by `%` itself, as is every nonzero cell outside the range (nan,
# inf, subnormals).  The stages below write into arrays they made (`out=`)
# wherever an operation's result replaces one that is no longer read; each
# value is the same IEEE operation on the same operands as written out.
_CERTAIN = 1e-6
_E_MIN, _E_MAX = -264, 297  # 16 - k over |x| in [1e-280, 1e280)
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into 26-bit halves
_CELL_BYTES = 25  # sign, 17 digits, point, e+XXX; then the separator


def _powers_of_ten():
    """The rows h, hh, hl, l: 10^e = h + l for e in [_E_MIN, _E_MAX], each
    part rounded to the nearest double from the exact rational, and h's
    Dekker split h = hh + hl."""
    hs, ls = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            h = float(10 ** e)
            low = float(10 ** e - int(h))
        else:
            h = 1 / 10 ** -e
            m, q = h.as_integer_ratio()
            low = (q - m * 10 ** -e) / (q * 10 ** -e)
        hs.append(h)
        ls.append(low)
    h = np.array(hs)
    t = h * _SPLIT
    hh = t - (t - h)
    return np.array([h, hh, h - hh, ls])


def _digit_groups():
    """The four ASCII digits of 0..9999 as uint32 words, then the same with
    trailing zeros as NUL bytes (0 becomes four NULs)."""
    i = np.arange(10000, dtype=np.uint16)
    text = np.zeros((2, 10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        text[0, :, j] = i // place % 10 + ord("0")
        text[1, :, j] = np.where(i % (10 * place) != 0, text[0, :, j], 0)
    return text.view(np.uint32).ravel()


_K_MAX = 300  # certified cells have |k| <= 281 (280 plus a carry)


@functools.cache
def _tables():
    """The printer's lookup tables, built on first use so that a run that
    prints no large block does not hold them: ``_powers_of_ten()``,
    ``_digit_groups()`` and the texts e-300 .. e+300, NUL-padded to 5 bytes."""
    exponents = np.array([b"e%+03d" % k for k in range(-_K_MAX, _K_MAX + 1)], "S5")
    return _powers_of_ten(), _digit_groups(), exponents.view(np.uint8).reshape(-1, 5)


def _scaled(a: np.ndarray, k: np.ndarray):
    """p and r with p + r = |x| 10^(16 - k), and whether r is exact.  The
    four parts of the power come from one gather; each then holds a
    product of Dekker's sum once it is no longer read."""
    h, hh, hl, low = _tables()[0].take((16 - _E_MIN) - k, axis=1)
    p = a * h
    t = np.multiply(a, _SPLIT, out=h)  # a = ah + al, Dekker's split
    al = t - a
    ah = np.subtract(t, al, out=t)
    np.subtract(a, ah, out=al)
    r = ah * hh
    r -= p
    r += np.multiply(ah, hl, out=ah)
    r += np.multiply(al, hh, out=hh)
    r += np.multiply(al, hl, out=hl)
    exact = low == 0
    r += np.multiply(a, low, out=low)
    return p, r, exact


def _decimal_digits(x: np.ndarray):
    """N (17 digits as an int64, or 0 for a zero), k and whether the cell is
    certified; an uncertified cell has N = 10^16 and k = 0."""
    a = np.abs(x)
    zero = a == 0
    inside = a >= 1e-280
    inside &= a < 1e280
    np.copyto(a, 1.0, where=~inside)
    k = np.log10(a)
    k = np.floor(k, out=k).astype(np.int64)
    p, r, exact = _scaled(a, k)
    low, high = 1e16 - p, 1e17 - p
    for _ in range(2):  # log10 can miss the decade by one near its ends
        up = r >= high
        moved = np.flatnonzero(up | (r < low))
        if len(moved) == 0:
            break
        k[moved] += np.where(up[moved], 1, -1)
        p[moved], r[moved], exact[moved] = _scaled(a[moved], k[moved])
        low[moved] = 1e16 - p[moved]
        high[moved] = 1e17 - p[moved]
    certified = r >= low
    certified &= r < high
    certified &= inside
    # unsure: r is inexact and within _CERTAIN of a decade end or a tie
    t = np.subtract(r, low, out=low)
    unsure = np.abs(t, out=t) < _CERTAIN
    np.subtract(r, high, out=t)
    unsure |= np.abs(t, out=t) < _CERTAIN
    rounded = np.rint(r, out=high)
    np.subtract(r, rounded, out=t)
    unsure |= np.subtract(0.5, np.abs(t, out=t), out=t) < _CERTAIN
    unsure &= ~exact
    certified &= ~unsure
    n = p.astype(np.int64)
    n += rounded.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    n[~certified] = 10 ** 16
    k[~certified] = 0
    n[zero] = 0
    return n, k, certified | zero


def _digit_rows(n: np.ndarray) -> np.ndarray:
    """Row i: the 17 digits of n[i] in ASCII, with every digit after the
    last nonzero one as NUL.  N's four-digit groups are peeled off into one
    index array beside its lead digit; all five are looked up by one
    gather and laid into rows of aligned words."""
    group_text = _tables()[1]
    groups = np.empty((5, len(n)), np.int64)  # the lead digit, then 4 groups
    groups[4] = n
    # a group with no nonzero group after it takes the stripped text
    last = np.ones(len(n), bool)
    for j in (4, 3, 2, 1):
        g, rest = groups[j], groups[j - 1]
        np.floor_divide(g, 10 ** 4, out=rest)
        g -= rest * 10 ** 4
        np.add(g, 10000, out=g, where=last)
        last &= g == 10000
    words = np.take(group_text, groups, mode="clip")
    del groups, g, rest  # freed before the rows are made
    digits = np.empty((len(n), 20), np.uint8)  # the 17 digits at 3:
    digits.view(np.uint32)[...] = words.T
    return digits[:, 3:]


def _cell_text(x: np.ndarray) -> np.ndarray:
    """Row i: ``'%.17g' % x[i]`` followed by a comma, NUL-padded to
    ``_CELL_BYTES``.  Fixed notation (-4 <= k <= 16) has one layout per k
    and e-notation one for all k, so each run of cells with one layout (x
    sorted by bit pattern has at most two per layout) is laid out by slice
    copies of the digit rows."""
    n, k, certified = _decimal_digits(x)
    digits = _digit_rows(n)
    exponents = _tables()[2]
    out = np.zeros((len(x), _CELL_BYTES), np.uint8)
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    out[:, -1] = ord(",")
    layout = np.clip(k, -5, 17)  # -5 and 17: the e-notation cells
    bounds = (np.flatnonzero(layout[1:] != layout[:-1]) + 1).tolist()
    for s, e in zip([0] + bounds, bounds + [len(x)]):
        kv = int(layout[s])
        rows, d = out[s:e], digits[s:e]
        if 0 <= kv <= 16:  # the integer digits get their zeros back
            np.maximum(d[:, :kv + 1], ord("0"), out=rows[:, 1:kv + 2])
            if kv < 16:
                rows[:, kv + 2] = (d[:, kv + 1] != 0) * ord(".")
                rows[:, kv + 3:19] = d[:, kv + 1:]
        elif -4 <= kv < 0:
            lead_text = np.frombuffer(b"0." + b"0" * (-kv - 1), np.uint8)
            rows[:, 1:1 + len(lead_text)] = lead_text
            rows[:, 1 + len(lead_text):18 + len(lead_text)] = d
        else:
            rows[:, 1] = d[:, 0]
            rows[:, 2] = (d[:, 1] != 0) * ord(".")
            rows[:, 3:19] = d[:, 1:]
            rows[:, 19:24] = exponents[k[s:e] + _K_MAX]
    fallback = np.flatnonzero(~certified)
    if len(fallback):
        texts = _percent_lines(x[fallback, None]).encode().split(b"\n")
        for i, text in zip(fallback.tolist(), texts):
            out[i, :-1] = 0
            out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def exact_int(value, what: str) -> int:
    """A Python or numpy integer as an int; bools, floats and the rest are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def real_number(value, what: str) -> float:
    """A real number (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def json_number(value, what: str) -> float:
    """A finite JSON number as a float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite JSON number, got {value!r}")
    return float(value)


def json_count(value, what: str, minimum: int = 1, maximum=math.inf) -> int:
    """A JSON integer in [minimum, maximum]; booleans and floats like 1.0 are
    refused."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not minimum <= value <= maximum:
        bound = f"in [{minimum}, {maximum}]" if maximum < math.inf else f">= {minimum}"
        raise ValueError(f"{what} must be a JSON integer {bound}, got {value!r}")
    return value


def known_keys(obj: dict, allowed: Sequence[str], what: str) -> None:
    """Refuse a key of a JSON object that allowed does not list, so that a
    misspelled setting cannot silently fall back to its default."""
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what} (allowed: "
                         + ", ".join(allowed) + ")")


def dump_json(path: str, obj: Any) -> None:
    """Write obj, as built of JSON types (str-keyed dicts, lists, str, int,
    float, bool, None), as indented JSON with sorted keys and a final
    newline, in one write (``json.dump`` writes once per encoder chunk), to
    a new file at path (``new_file``); the text is ASCII (non-ASCII escaped),
    so its bytes do not depend on the locale."""
    with new_file(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def remove_file(path: str) -> None:
    """Remove the file or symbolic link at path, if there is one."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def new_file(path: str):
    """path opened for binary writing as a file created here.  Whatever was
    at path is removed first, so a symbolic link at path is replaced, not
    followed; where a file was there, creating anew also costs less than
    truncating it.  The directory must be writable, and the old file's
    mode, ACL and other hard links are not carried over.
    ``write_csv`` and ``dump_json`` open their files here; no other library
    code opens a file for writing (tests/test_imports.py)."""
    remove_file(path)
    return open(path, "xb")
