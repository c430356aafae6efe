"""File formats and result persistence.

CSV in: UTF-8 text (whatever the locale; a leading byte-order mark is dropped,
and other bytes are a CsvParseError naming the file) holding a rectangular
numeric grid, comma-delimited, with one optional header row (auto-detected: a
cell of the first non-blank row that float() rejects).
Blank rows (no cell holds more than whitespace) are skipped. Two readers give
the same bits. csv.reader finds the first non-blank row and the header test
runs on it; then numpy's C reader takes the rest of the file as plain lines:
unquoted cells numpy reads as numbers, the same cell count on every line, and
no line to skip but empty ones. A file numpy refuses -- quotes, whitespace-only
or comma-only rows, ragged rows, bad cells, ``1_0``, a BOM in a cell, the
separators \\x1c-\\x1f, a header with no data, a cell over csv's field limit
in a row the header test reads -- goes to the csv.reader walk, which parses
each cell with float(). Only the walk reports parse failures, naming the
1-based line of the file and the column.

CSV out: csv's excel dialect bytes (``\\r\\n`` line ends), no header on a
matrix and the header ``label`` on a label column; a matrix cell is the
``repr`` of its float, written a row at a time.

Results out: a versioned JSON document; matrices carry explicit row and
column counts so documents survive schema drift. Serialization is canonical
(sorted keys, fixed separators), so identical documents are identical bytes.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvParseError
from .types import Assignment, DataMatrix

SCHEMA_VERSION = "1"


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _is_blank(row) -> bool:
    return not any(cell.strip() for cell in row)


def _is_header(row) -> bool:
    return any(_parse_cell(cell) is None for cell in row)


def _open(path):
    try:
        return open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise CsvParseError(f"no such file: {path}")


def _plain_lines(fh):
    """The file's lines for numpy, refusing any with one of the separators
    \\x1c-\\x1f: numpy strips them around a number, float() does not."""
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("line holds a separator in \\x1c-\\x1f")
        yield line


def _read_c(path):
    """The matrix through numpy's C reader, or None where the walk must decide:
    a file with no data rows, or any line numpy refuses."""
    with _open(path) as fh:
        reader = csv.reader(fh)
        skip = 0
        try:
            for row in reader:
                if not _is_blank(row):
                    break
                skip = reader.line_num
            else:
                return None
            if _is_header(row):
                skip = reader.line_num
                # numpy warns on an empty body; the walk names the error
                if all(_is_blank(rest) for rest in reader):
                    return None
        except csv.Error:
            return None  # a cell over csv's field limit; the walk names it
        fh.seek(0)
        try:
            return np.loadtxt(_plain_lines(fh), delimiter=",",
                              comments=None, ndmin=2, skiprows=skip)
        except ValueError:
            return None


def _data_rows(path) -> list:
    """The csv.reader walk: each data row, blank rows and the header dropped,
    as (1-based file line the row starts on, cells)."""
    rows = []
    with _open(path) as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                if not _is_blank(row):
                    rows.append((line, row))
                line = reader.line_num + 1
        except csv.Error as exc:
            raise CsvParseError(str(exc), row=line)
    if not rows:
        raise CsvParseError(f"{path} contains no data")
    if _is_header(rows[0][1]):
        if len(rows) == 1:
            raise CsvParseError(f"{path} has a header but no data rows")
        del rows[0]
    return rows


def _read_walk(path) -> np.ndarray:
    rows = _data_rows(path)
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(f"expected {width} columns, found {len(row)}", row=line)
        for j, cell in enumerate(row):
            value = _parse_cell(cell)
            if value is None:
                raise CsvParseError(f"non-numeric cell {cell!r}", row=line, column=j + 1)
            data[i, j] = value
    return data


def load_csv(path) -> DataMatrix:
    """Read an n x p numeric matrix from UTF-8 text, skipping one
    auto-detected header row."""
    try:
        data = _read_c(path)
        if data is None:
            data = _read_walk(path)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path} is not UTF-8 text: {exc.reason}")
    try:
        return DataMatrix(data)
    except ValueError as exc:
        raise CsvParseError(f"invalid matrix in {path}: {exc}")


def load_labels_csv(path) -> Assignment:
    """Read a single-column CSV of integer labels (optional header)."""
    matrix = load_csv(path)
    if matrix.p != 1:
        raise CsvParseError(f"label files must have one column, found {matrix.p}")
    values = matrix.values[:, 0]
    labels = values.astype(np.int64)
    fractional = np.flatnonzero(labels != values)
    if fractional.size:
        raise CsvParseError("labels must be integers",
                            row=_data_rows(path)[fractional[0]][0], column=1)
    negative = np.flatnonzero(labels < 0)
    if negative.size:
        raise CsvParseError("labels must be >= 0",
                            row=_data_rows(path)[negative[0]][0], column=1)
    return Assignment(labels, int(labels.max()) + 1)


def write_matrix_csv(path, values) -> None:
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    with open(path, "w", newline="") as fh:
        # csv.writer's bytes: a float's repr never needs quoting
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in arr.tolist())


def write_labels_csv(path, labels) -> None:
    arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    with open(path, "w", newline="") as fh:
        fh.write("label\r\n")
        fh.writelines(f"{value}\r\n" for value in arr.tolist())


def matrix_payload(values, order: str = "row") -> dict:
    """JSON-friendly matrix with explicit dimensions. ``order`` picks whether
    the nested lists are the matrix rows or its columns."""
    if order not in ("row", "column"):
        raise ValueError(f"order must be 'row' or 'column', got {order!r}")
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    listed = arr if order == "row" else arr.T
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "order": order,
        "data": [[float(v) for v in vec] for vec in listed],
    }


def matrix_from_payload(payload: dict) -> np.ndarray:
    arr = np.asarray(payload["data"], dtype=np.float64)
    if payload.get("order", "row") == "column":
        arr = arr.T
    expected = (int(payload["rows"]), int(payload["cols"]))
    if arr.shape != expected:
        raise ValueError(f"matrix payload claims {expected}, data is {arr.shape}")
    return arr


@dataclass(frozen=True)
class ResultDocument:
    """Everything one command run produced: the echoed configuration, the
    fitted artifacts, optional evaluation metrics, and wall-clock timings.
    Timing is excluded from equality so reruns compare clean."""

    command: str
    config: dict
    solution: dict | None = None
    metrics: dict | None = None
    timing: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "solution": self.solution,
            "metrics": self.metrics,
            "timing": self.timing,
        }
        # strict JSON: a NaN or infinity is a ValueError, not a bare token
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
