"""CSV persistence for entropy traces.

One row per sample, fixed column order, full round-trip decimal precision
(shortest repr that parses back to the identical float).  Columns of the
inactive system are written as empty fields, as is the sphere defect for
GL runs; empty fields read back as NaN.
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Sequence

import numpy as np

from .constitutive import System
from .functionals import QUARTETS
from .verifier import TRACE_COLUMNS, EntropyTrace

# EntropyTrace's columns in file order; only the sample times are renamed
COLUMNS = tuple("t" if name == "times" else name for name in TRACE_COLUMNS)
_ROWS_PER_BLOCK = 32  # rows formatted at a time by write_columns


class TraceFormatError(ValueError):
    """Malformed trace file."""


def _fmt(x: float) -> str:
    if math.isnan(x):
        return ""
    return repr(float(x))


def write_columns(columns: Dict[str, Sequence[float]], path: str) -> None:
    """Write named columns in the fixed order; missing columns are empty."""
    n = max((len(v) for v in columns.values()), default=0)
    for name, vals in columns.items():
        if name not in COLUMNS:
            raise TraceFormatError(f"unknown trace column {name!r}")
        if len(vals) != n:
            raise TraceFormatError(f"column {name!r} has inconsistent length")
    values = [np.asarray(columns[name], dtype=float) if name in columns else None
              for name in COLUMNS]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        # a block of rows at a time, each column converted by one tolist():
        # Python floats, not a numpy scalar per cell, and a bounded number
        # of formatted cells in memory
        for start in range(0, n, _ROWS_PER_BLOCK):
            stop = min(start + _ROWS_PER_BLOCK, n)
            cells = [[""] * (stop - start) if col is None
                     else [_fmt(x) for x in col[start:stop].tolist()]
                     for col in values]
            w.writerows(zip(*cells))


def write_trace(trace: EntropyTrace, path: str) -> None:
    """Serialize a trace; see COLUMNS for the order."""
    write_columns(
        {col: getattr(trace, name) for col, name in zip(COLUMNS, TRACE_COLUMNS)}, path
    )


def read_columns(path: str) -> Dict[str, np.ndarray]:
    """Parse a trace file back into named float columns (empty -> NaN);
    TraceFormatError names the path and the row of a malformed file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TraceFormatError(f"{path}: empty file")
    header = tuple(rows[0])
    if header != COLUMNS:
        raise TraceFormatError(f"{path}: unexpected header {header}")
    data: List[List[float]] = [[] for _ in COLUMNS]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(COLUMNS):
            raise TraceFormatError(f"{path}: row {r} has {len(row)} fields")
        for i, cell in enumerate(row):
            try:
                data[i].append(float(cell) if cell != "" else math.nan)
            except ValueError:
                raise TraceFormatError(f"{path}: row {r}, column {COLUMNS[i]}: "
                                       f"not a number: {cell!r}") from None
    return {name: np.asarray(vals) for name, vals in zip(COLUMNS, data)}


def read_trace(path: str) -> EntropyTrace:
    """Deserialize a trace, inferring the system from the active columns.

    The per-term columns are not serialized, so `terms` is empty.
    """
    cols = read_columns(path)
    sphere = np.any(np.isfinite(cols[QUARTETS[System.SPHERE][0]]))
    return EntropyTrace(
        system=System.SPHERE if sphere else System.GL,
        **{name: cols[col] for col, name in zip(COLUMNS, TRACE_COLUMNS)},
    )
