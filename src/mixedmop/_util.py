"""Shared plumbing: deterministic serialization and JSON input checks."""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, Sequence

import numpy as np


CSV_BLOCK_ROWS = 4096  # rows formatted per write; the whole text is never held


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write a header line, then one line per row of ``rows``: anything
    ``np.asarray(rows, dtype=float)`` makes a (rows, len(header)) array.
    Every value is ``%.17g``, which round-trips any double and prints an
    integer-valued column (an index) as a plain integer."""
    table = np.asarray(rows, dtype=float)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            fh.write(_format_block(table[start:start + CSV_BLOCK_ROWS]))


def _format_block(block: np.ndarray) -> str:
    """The CSV lines of a 2-D block.  A column whose distinct values (told
    apart by bit pattern, so -0.0 stays apart from 0.0) number at most half
    its rows has each distinct value formatted once and fed to a ``%s``
    slot; the other columns keep ``%.17g`` slots.  The bytes are the same
    either way: only the number of values formatted changes."""
    slots, columns = [], []
    for column in block.T:
        bits = column.view(np.int64)
        ordered = np.sort(bits)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        if 2 * len(distinct) <= len(bits):
            text = np.array(["%.17g" % v for v in distinct.view(float).tolist()],
                            dtype=object)
            columns.append(text[np.searchsorted(distinct, bits)])
            slots.append("%s")
        else:
            columns.append(column)
            slots.append("%.17g")
    cells = np.column_stack(columns) if "%s" in slots else block
    line = ",".join(slots) + "\n"
    return (line * len(block)) % tuple(cells.ravel().tolist())


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


def json_ready(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json.dump can take them."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def dump_json(path: str, obj: Any) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
