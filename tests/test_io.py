"""CSV parsing, matrix payloads, and the versioned result document."""
import csv
import dataclasses
import io
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rkmeans
from rkmeans import (
    CsvParseError,
    DataMatrix,
    ResultDocument,
    load_csv,
    load_labels_csv,
    write_labels_csv,
    write_matrix_csv,
)
from rkmeans.io import matrix_from_payload, matrix_payload


def write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_plain_grid(self, tmp_path):
        X = load_csv(write(tmp_path / "a.csv", "1,2\n3,4\n"))
        assert isinstance(X, DataMatrix)
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_auto_detected(self, tmp_path):
        X = load_csv(write(tmp_path / "a.csv", "a,b\n1,2\n3,4\n"))
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_scientific_and_negative_values(self, tmp_path):
        X = load_csv(write(tmp_path / "a.csv", "1e-3,-2.5\n+4,0\n"))
        assert np.array_equal(X.values, [[1e-3, -2.5], [4.0, 0.0]])

    def test_blank_rows_skipped(self, tmp_path):
        X = load_csv(write(tmp_path / "a.csv", "1,2\n\n ,\n3,4\n"))
        assert X.n == 2

    def test_header_without_data(self, tmp_path):
        with pytest.raises(CsvParseError, match="no data rows"):
            load_csv(write(tmp_path / "a.csv", "a,b\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="contains no data"):
            load_csv(write(tmp_path / "a.csv", "\n\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        # a Latin-1 byte is a parse error of the file, not a bare codec error
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n3,\xe9\n")
        with pytest.raises(CsvParseError, match="latin1.csv is not UTF-8 text"):
            load_csv(path)

    def test_decoding_does_not_follow_the_locale(self, tmp_path):
        # under an ASCII locale a UTF-8 header still reads as a header
        path = tmp_path / "accent.csv"
        path.write_bytes("caf\u00e9,b\n1,2\n".encode("utf-8"))
        src = os.path.dirname(os.path.dirname(rkmeans.__file__))
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=src)
        code = "import sys, rkmeans; print(rkmeans.load_csv(sys.argv[1]).values.tolist())"
        run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "[[1.0, 2.0]]\n"), run.stderr

    @pytest.mark.parametrize("text, values, walked", [
        ("\ufeff1,2\n3,4\n5,6\n", [[1, 2], [3, 4], [5, 6]], False),
        ('\ufeff"1",2\n3,4\n', [[1, 2], [3, 4]], True),
        ("\ufeffa,b\n3,4\n", [[3, 4]], False),
    ])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, text, values,
                                                walked):
        # spreadsheet exports often start with a BOM: it is not part of the
        # first cell, so a numeric first row stays data, on either reader
        import rkmeans.io as rkm_io

        seen = []
        real_walk = rkm_io._read_walk
        monkeypatch.setattr(rkm_io, "_read_walk", lambda path: seen.append(path) or real_walk(path))
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_csv(path).values.tolist() == values
        assert bool(seen) == walked

    def test_ragged_row_reports_position(self, tmp_path):
        with pytest.raises(CsvParseError, match=r"expected 2 columns.*\(row 2\)"):
            load_csv(write(tmp_path / "a.csv", "1,2\n3\n"))

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        with pytest.raises(CsvParseError, match=r"'x'.*\(row 2, column 2\)") as err:
            load_csv(write(tmp_path / "a.csv", "1,2\n3,x\n"))
        assert err.value.row == 2
        assert err.value.column == 2

    @pytest.mark.parametrize("text, match, line, column", [
        ("1,2\n\n\n3\n", r"expected 2 columns.*\(row 4\)", 4, None),
        ("a,b\n\n1,2\n3,x\n", r"'x'.*\(row 4, column 2\)", 4, 2),
        ("a,b\n , \n1,2\n\n\n5,6,7\n", r"expected 2 columns.*\(row 6\)", 6, None),
        ('"a\nb",c\n1,2\n\n"3\n",x\n', r"'x'.*\(row 5, column 2\)", 5, 2),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, match, line, column):
        # blank lines and a header still count; a quoted cell may span lines,
        # and a row is reported at the line it starts on
        with pytest.raises(CsvParseError, match=match) as err:
            load_csv(write(tmp_path / "a.csv", text))
        assert (err.value.row, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line", [
        ("1,{}\n2,3\n", 1),
        ("a,b\n\n3,{}\n", 3),
        ('"1",2\n\n3,{}\n', 3),
    ])
    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, text, line):
        # csv.reader refuses a cell longer than csv.field_size_limit(); the
        # header scan reads the first non-blank rows with it, the walk all rows
        cell = "0." + "0" * csv.field_size_limit() + "1"
        with pytest.raises(CsvParseError, match=rf"field limit.*\(row {line}\)") as err:
            load_csv(write(tmp_path / "a.csv", text.format(cell)))
        assert err.value.row == line

    def test_cell_over_the_csv_field_limit_read_by_numpy(self, tmp_path):
        cell = "0." + "0" * csv.field_size_limit() + "1"
        X = load_csv(write(tmp_path / "a.csv", f"1,2\n3,{cell}\n"))
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, float(cell)]])

    def test_non_finite_matrix_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="invalid matrix"):
            load_csv(write(tmp_path / "a.csv", "nan,1\n2,3\n"))


def walk_reference(path):
    """load_csv restated as a csv.reader walk with float() on every cell:
    the reference both of its readers must match."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows, line = [], 1
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append((line, row))
            line = reader.line_num + 1
    if not rows:
        raise CsvParseError(f"{path} contains no data")

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    if any(number(cell) is None for cell in rows[0][1]):
        if len(rows) == 1:
            raise CsvParseError(f"{path} has a header but no data rows")
        rows = rows[1:]
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(f"expected {width} columns, found {len(row)}", row=line)
        for j, cell in enumerate(row):
            if number(cell) is None:
                raise CsvParseError(f"non-numeric cell {cell!r}", row=line, column=j + 1)
            data[i, j] = number(cell)
    try:
        return DataMatrix(data)
    except ValueError as exc:
        raise CsvParseError(f"invalid matrix in {path}: {exc}")


NUMBERS = ["+1.5", ".5", "1.", "1e5", "1E-300", "-0", "0", "3", "-2.25", "7.0e-1",
           "1.7976931348623157e308", "5e-324", "0.1", "123456789012345678901"]
ODD_CELLS = ["1_0", "nan", "inf", "-Infinity", "0x1p3", "x", "", '"1"', '"2.5"',
             '"1\n2"', "#3", "1 # c", "\ufeff1", "1 2", "\u0661"]
PADS = ["", "", "", " ", "\t", "\x0c", "\x85", "\u3000", "\x1c", "\x1f"]
ENDS = ["\n", "\n", "\r\n", "\r"]
SPECIAL_ROWS = ["", " ", "\t", ",", " , ", ",,", "\x0c", "#3,4", "#"]
FIRST_LINES = ["a,b", '"a,b",c', "label", 'x,"y', "1,b", '"1",2', '"1","2"',
           '"a\nb",c', "\ufeff1,2", "\ufeffa,b"]


def random_csv(rng):
    """One CSV text built from tokens: mostly plain numbers, now and then a
    token one of the two readers treats specially."""
    def pick(pool, odd, p):
        return rng.choice(odd) if rng.random() < p else rng.choice(pool)

    width = rng.randint(1, 3)
    odd = rng.random() < 0.6
    lines = []
    if rng.random() < 0.25:
        lines.append(rng.choice(FIRST_LINES))
    for _ in range(rng.randint(0, 4)):
        if odd and rng.random() < 0.15:
            lines.append(rng.choice(SPECIAL_ROWS))
            continue
        cells = width + (rng.choice([-1, 1]) if odd and rng.random() < 0.1 else 0)
        row = ",".join(
            pick(PADS[:4], PADS, 0.15 if odd else 0.0)
            + pick(NUMBERS, ODD_CELLS, 0.12 if odd else 0.0)
            + pick(PADS[:4], PADS, 0.15 if odd else 0.0)
            for _ in range(max(cells, 1))
        )
        lines.append(row + ("," if odd and rng.random() < 0.05 else ""))
    if odd and rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), rng.choice(SPECIAL_ROWS))
    ends = ENDS if odd else ENDS[:3]
    text = "".join(line + rng.choice(ends) for line in lines)
    if odd and text and rng.random() < 0.15:
        text = text.rstrip("\r\n")
    return text


def outcome(load, path):
    try:
        X = load(path)
    except CsvParseError as exc:
        return ("error", str(exc))
    return ("matrix", X.values.shape, X.values.tobytes())


def test_load_csv_matches_the_cell_walk(tmp_path, monkeypatch):
    # every text: load_csv returns the walk's bits or raises its message, and
    # warns about nothing; a healthy share of texts must take each reader
    import rkmeans.io as rkm_io

    walked = []
    real_walk = rkm_io._read_walk
    monkeypatch.setattr(rkm_io, "_read_walk", lambda path: walked.append(path) or real_walk(path))
    rng = random.Random(20240611)
    fast = slow = 0
    for i in range(400):
        text = random_csv(rng)
        path = tmp_path / f"t{i}.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(walk_reference, path)
        walked.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(load_csv, path)
        assert got == expected, repr(text)
        if walked:
            slow += 1
        elif got[0] == "matrix":
            fast += 1
    assert fast >= 100 and slow >= 100, (fast, slow)


class TestLabels:
    def test_load_with_header(self, tmp_path):
        a = load_labels_csv(write(tmp_path / "l.csv", "label\n0\n1\n0\n"))
        assert list(a.labels) == [0, 1, 0]
        assert a.n_clusters == 2

    def test_two_columns_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="one column"):
            load_labels_csv(write(tmp_path / "l.csv", "0,1\n"))

    def test_fractional_label_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match=r"integers \(row 2"):
            load_labels_csv(write(tmp_path / "l.csv", "0\n1.5\n"))

    @pytest.mark.parametrize("text, line", [
        ("label\n0\n1.5\n", 3),
        ("label\n\n0\n\n2.5\n1\n", 5),
        ("\n0\n0.5\n", 3),
    ])
    def test_fractional_label_names_the_file_line(self, tmp_path, text, line):
        with pytest.raises(CsvParseError, match=rf"integers \(row {line}, column 1\)"):
            load_labels_csv(write(tmp_path / "l.csv", text))

    def test_negative_label_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match=">= 0"):
            load_labels_csv(write(tmp_path / "l.csv", "-1\n0\n"))

    @pytest.mark.parametrize("text, line", [
        ("label\n0\n-1\n2\n", 3),
        ("label\n\n0\n\n-2\n-1\n", 5),
        ("-1\n0\n", 1),
    ])
    def test_negative_label_names_the_file_line(self, tmp_path, text, line):
        with pytest.raises(CsvParseError, match=rf">= 0 \(row {line}, column 1\)"):
            load_labels_csv(write(tmp_path / "l.csv", text))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.csv"
        write_labels_csv(path, [0, 2, 1])
        a = load_labels_csv(path)
        assert list(a.labels) == [0, 2, 1]
        assert a.n_clusters == 3


class TestMatrixRoundTrips:
    def test_write_then_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((3, 4)) * 1e3
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values)
        assert np.array_equal(load_csv(path).values, values)

    def test_payload_row_and_column_orders(self):
        arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        by_row = matrix_payload(arr, order="row")
        assert (by_row["rows"], by_row["cols"]) == (2, 3)
        assert by_row["data"] == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        by_col = matrix_payload(arr, order="column")
        assert by_col["data"] == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        assert np.array_equal(matrix_from_payload(by_row), arr)
        assert np.array_equal(matrix_from_payload(by_col), arr)

    def test_payload_validation(self):
        with pytest.raises(ValueError, match="order"):
            matrix_payload([[1.0]], order="diagonal")
        bad = {"rows": 3, "cols": 1, "order": "row", "data": [[1.0], [2.0]]}
        with pytest.raises(ValueError, match="claims"):
            matrix_from_payload(bad)


def csv_writer_bytes(rows, header=None):
    """What csv.writer (excel dialect) writes for the rows and header."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if header is not None:
        writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


class TestWritersMatchCsvWriter:
    SPECIAL = [-0.0, 0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 3.0, -42.0, 1e16, 0.1, 1 / 3, 1e-5]

    def matrices(self):
        rng = np.random.default_rng(11)
        for shape in [(1, 1), (1, 6), (7, 1), (5, 3), (40, 15)]:
            base = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
            mask = rng.random(shape) < 0.3
            base[mask] = rng.choice(self.SPECIAL, size=int(mask.sum()))
            yield base
        yield np.array(self.SPECIAL).reshape(1, -1)
        yield np.array(self.SPECIAL).reshape(-1, 1)
        yield np.floor(rng.standard_normal((6, 4)) * 100)

    # a matrix has no header row; a label column always has "label"
    @pytest.mark.parametrize("header", [None])
    def test_matrix_bytes(self, tmp_path, header):
        for i, values in enumerate(self.matrices()):
            path = tmp_path / f"m{i}.csv"
            write_matrix_csv(path, values)
            expected = csv_writer_bytes([[repr(float(v)) for v in row] for row in values], header)
            assert path.read_bytes() == expected

    def test_one_dimensional_input_is_one_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [1.0, -0.0, 2.5])
        assert path.read_bytes() == b"1.0,-0.0,2.5\r\n"
        with pytest.raises(ValueError, match="expected a matrix"):
            write_matrix_csv(path, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("header", ["label"])
    def test_label_bytes(self, tmp_path, header):
        rng = np.random.default_rng(5)
        for i, labels in enumerate([[0], [3, 0, 12], rng.integers(0, 10**9, 50), []]):
            path = tmp_path / f"l{i}.csv"
            write_labels_csv(path, labels)
            expected = csv_writer_bytes([[int(v)] for v in labels], [header])
            assert path.read_bytes() == expected


class TestResultDocument:
    def make(self, timing=None):
        return ResultDocument(
            command="fit",
            config={"clusters": 2, "dims": 1, "seed": 0},
            solution={"loss": 0.25},
            metrics={"ari": 1.0},
            timing=timing or {},
        )

    def test_canonical_serialization(self):
        text = self.make().to_json()
        assert text.endswith("}\n")
        # sorted keys make byte-level comparison meaningful
        assert text.index('"command"') < text.index('"config"') < text.index('"metrics"')
        assert '"schema_version": "1"' in text
        assert self.make().to_json() == text
        # JSON has no NaN or infinity; writing one is an error
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="JSON compliant"):
                dataclasses.replace(self.make(), solution={"loss": value}).to_json()

    def test_timing_excluded_from_equality(self):
        fast = self.make(timing={"fit_seconds": 0.1})
        slow = self.make(timing={"fit_seconds": 9.9})
        assert fast == slow
        assert fast.to_json() != slow.to_json()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        doc = self.make()
        doc.write(path)
        assert path.read_text() == doc.to_json()
