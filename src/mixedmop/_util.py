"""Shared plumbing: deterministic serialization and JSON input checks."""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np


CSV_BLOCK_ROWS = 4096  # rows formatted per write; the whole text is never held


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write a header line, then one line per row of ``rows``: anything
    ``np.asarray(rows, dtype=float)`` makes a (rows, len(header)) array.
    Every value is ``%.17g``, which round-trips any double and prints an
    integer-valued column (an index) as a plain integer."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def json_number(value, what: str) -> float:
    """A finite JSON number as a float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite JSON number, got {value!r}")
    return float(value)


def json_count(value, what: str) -> int:
    """A JSON integer >= 1; booleans and floats such as 1.0 are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a JSON integer >= 1, got {value!r}")
    return value


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
