"""CSV persistence for entropy traces.

One row per sample, fixed column order, full round-trip decimal precision
(shortest repr that parses back to the identical float).  Columns of the
inactive system are written as empty fields, as is the sphere defect for
GL runs; empty fields read back as NaN.  Files are written and read a
block of rows at a time, so no more than one block's fields are held as
strings.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Dict, List, Sequence

import numpy as np

from .constitutive import System
from .functionals import QUARTETS
from .verifier import TRACE_COLUMNS, EntropyTrace

# EntropyTrace's columns in file order; only the sample times are renamed
COLUMNS = tuple("t" if name == "times" else name for name in TRACE_COLUMNS)
_ROWS_PER_BLOCK = 256  # rows formatted or parsed at a time


class TraceFormatError(ValueError):
    """Malformed trace file."""


def _cells(col: np.ndarray) -> List[str]:
    """A column's fields: each value's repr, as a Python float's, and NaN
    as an empty field; one map over a column without NaN."""
    nan = np.isnan(col)
    if not nan.any():
        return list(map(repr, col.tolist()))
    if nan.all():
        return [""] * len(col)
    return ["" if v != v else repr(v) for v in col.tolist()]


def write_columns(columns: Dict[str, Sequence[float]], path: str) -> None:
    """Write named columns in the fixed order; missing columns are empty.
    The bytes are csv.writer's (no field needs quoting; rows end in \\r\\n),
    formatted a block of rows and a column at a time."""
    n = max((len(v) for v in columns.values()), default=0)
    for name, vals in columns.items():
        if name not in COLUMNS:
            raise TraceFormatError(f"unknown trace column {name!r}")
        if len(vals) != n:
            raise TraceFormatError(f"column {name!r} has inconsistent length")
    values = [np.asarray(columns.get(name, np.full(n, math.nan)), dtype=float) for name in COLUMNS]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\r\n")
        for start in range(0, n, _ROWS_PER_BLOCK):
            cells = [_cells(col[start:start + _ROWS_PER_BLOCK]) for col in values]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_trace(trace: EntropyTrace, path: str) -> None:
    """Serialize a trace; see COLUMNS for the order."""
    write_columns(
        {col: getattr(trace, name) for col, name in zip(COLUMNS, TRACE_COLUMNS)}, path
    )


def _floats(cells: Sequence[str]) -> np.ndarray:
    """A column's fields as floats, empty fields as NaN; ValueError for any
    other field that float() rejects."""
    if "" not in cells:
        return np.fromiter(map(float, cells), float, len(cells))
    if not any(cells):
        return np.full(len(cells), math.nan)
    return np.array([float(cell) if cell else math.nan for cell in cells], dtype=float)


def _block(rows: List[List[str]], first: int, path: str) -> List[np.ndarray]:
    """A block of rows, the first of them file row `first`, as float
    columns; TraceFormatError for its first malformed row."""
    if all(len(row) == len(COLUMNS) for row in rows):
        try:
            return [_floats(cells) for cells in zip(*rows)]
        except ValueError:
            pass
    for r, row in enumerate(rows, start=first):  # the malformed block, row by row
        if len(row) != len(COLUMNS):
            raise TraceFormatError(f"{path}: row {r} has {len(row)} fields")
        for name, cell in zip(COLUMNS, row):
            try:
                float(cell or "nan")
            except ValueError:
                raise TraceFormatError(f"{path}: row {r}, column {name}: "
                                       f"not a number: {cell!r}") from None
    raise AssertionError("unreachable: a field float() rejects was found above")


def read_columns(path: str) -> Dict[str, np.ndarray]:
    """Parse a trace file back into named float columns (empty -> NaN),
    _ROWS_PER_BLOCK rows at a time; TraceFormatError names the path and the
    row of a malformed file, the first in file order, and the column of its
    first field that is not a number."""
    blocks: List[List[np.ndarray]] = [[] for _ in COLUMNS]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError(f"{path}: empty file")
        if tuple(header) != COLUMNS:
            raise TraceFormatError(f"{path}: unexpected header {tuple(header)}")
        first = 2  # the file row of the block's first row
        while rows := list(itertools.islice(reader, _ROWS_PER_BLOCK)):
            for parts, col in zip(blocks, _block(rows, first, path)):
                parts.append(col)
            first += len(rows)
    return {name: np.concatenate(parts) if parts else np.empty(0)
            for name, parts in zip(COLUMNS, blocks)}


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
