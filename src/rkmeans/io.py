"""File formats and result persistence.

CSV in: a rectangular numeric grid, comma-delimited, with one optional header
row (auto-detected: any non-numeric cell in the first row). Blank rows are
skipped. Parse failures report the 1-based line of the file and column.

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


def _read_rows(path) -> list:
    try:
        with open(path, "r", newline="") as fh:
            rows = [row for row in csv.reader(fh)]
    except FileNotFoundError:
        raise CsvParseError(f"no such file: {path}")
    rows = [row for row in rows if row and not all(c.strip() == "" for c in row)]
    if not rows:
        raise CsvParseError(f"{path} contains no data")
    return rows


def _file_line(path, index: int) -> int:
    """1-based line of the file on which the index-th row that _read_rows
    keeps starts. Only error paths call it, so the parse counts no lines."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row and not all(c.strip() == "" for c in row):
                if index == 0:
                    return line
                index -= 1
            line = reader.line_num + 1
    raise ValueError(f"{path} has fewer than {index + 1} non-blank rows")


def load_csv(path) -> DataMatrix:
    """Read an n x p numeric matrix, skipping one auto-detected header row."""
    rows = _read_rows(path)
    start = 0
    if any(_parse_cell(c) is None for c in rows[0]):
        start = 1
        if len(rows) == 1:
            raise CsvParseError(f"{path} has a header but no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise CsvParseError(
                f"expected {width} columns, found {len(row)}", row=_file_line(path, i)
            )
        for j, cell in enumerate(row):
            value = _parse_cell(cell)
            if value is None:
                raise CsvParseError(
                    f"non-numeric cell {cell!r}", row=_file_line(path, i), column=j + 1
                )
            data[i - start, j] = value
    try:
        return DataMatrix(data)
    except ValueError as exc:
        raise CsvParseError(f"invalid matrix in {path}: {exc}")


def load_labels_csv(path, n_clusters: int | None = None) -> Assignment:
    """Read a single-column CSV of integer labels (optional header)."""
    matrix = load_csv(path)
    if matrix.p != 1:
        raise CsvParseError(f"label files must have one column, found {matrix.p}")
    values = matrix.values[:, 0]
    labels = values.astype(np.int64)
    if np.any(labels != values):
        bad = int(np.flatnonzero(labels != values)[0])
        # the rows load_csv read, less its data rows, is its header count
        header = len(_read_rows(path)) - matrix.n
        raise CsvParseError(
            "labels must be integers", row=_file_line(path, bad + header), column=1
        )
    if labels.min() < 0:
        raise CsvParseError("labels must be >= 0")
    k = int(labels.max()) + 1 if n_clusters is None else int(n_clusters)
    return Assignment(labels, k)


def write_matrix_csv(path, values, header=None) -> None:
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def write_labels_csv(path, labels, header="label") -> None:
    arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow([header])
        for value in arr:
            writer.writerow([int(value)])


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
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "solution": self.solution,
            "metrics": self.metrics,
            "timing": self.timing,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        payload = json.loads(text)
        return cls(
            command=payload["command"],
            config=payload["config"],
            solution=payload.get("solution"),
            metrics=payload.get("metrics"),
            timing=payload.get("timing") or {},
            schema_version=payload["schema_version"],
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def read(cls, path) -> "ResultDocument":
        with open(path, "r") as fh:
            return cls.from_json(fh.read())
