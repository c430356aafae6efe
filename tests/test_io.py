"""CSV parsing, matrix payloads, and the versioned result document."""
import numpy as np
import pytest

from rkmeans import (
    CsvParseError,
    DataMatrix,
    ResultDocument,
    load_csv,
    load_labels_csv,
    write_labels_csv,
    write_matrix_csv,
)
from rkmeans.io import SCHEMA_VERSION, matrix_from_payload, matrix_payload


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

    def test_non_finite_matrix_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="invalid matrix"):
            load_csv(write(tmp_path / "a.csv", "nan,1\n2,3\n"))


class TestLabels:
    def test_load_with_header(self, tmp_path):
        a = load_labels_csv(write(tmp_path / "l.csv", "label\n0\n1\n0\n"))
        assert list(a.labels) == [0, 1, 0]
        assert a.n_clusters == 2

    def test_explicit_cluster_count(self, tmp_path):
        a = load_labels_csv(write(tmp_path / "l.csv", "0\n1\n"), n_clusters=4)
        assert a.n_clusters == 4

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

    def test_header_row_survives(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [[1.5, 2.5]], header=["x1", "x2"])
        assert path.read_text().splitlines()[0] == "x1,x2"
        assert np.array_equal(load_csv(path).values, [[1.5, 2.5]])

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

    def test_round_trip_equality(self):
        doc = self.make(timing={"fit_seconds": 0.5})
        again = ResultDocument.from_json(doc.to_json())
        assert again == doc
        assert again.timing == {"fit_seconds": 0.5}

    def test_timing_excluded_from_equality(self):
        fast = self.make(timing={"fit_seconds": 0.1})
        slow = self.make(timing={"fit_seconds": 9.9})
        assert fast == slow
        assert fast.to_json() != slow.to_json()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        doc = self.make()
        doc.write(path)
        assert ResultDocument.read(path) == doc
        assert path.read_text() == doc.to_json()

    def test_schema_version_default(self):
        assert self.make().schema_version == SCHEMA_VERSION == "1"
