"""Shared plumbing: deterministic serialization."""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any double exactly."""
    return "%.17g" % float(x)


def _cell(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
