"""End-to-end command-line tests, driven through main(argv).

Exit-code contract: 0 success, 1 usage error, 2 data/runtime error.
"""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rkmeans import load_csv, write_labels_csv, write_matrix_csv
from rkmeans.cli import main


@pytest.fixture(scope="module")
def blob_dir(tmp_path_factory):
    """Two tight, well-separated blobs on the x-axis plus a truth file."""
    root = tmp_path_factory.mktemp("cli-data")
    rng = np.random.default_rng(42)
    a = rng.normal((5.0, 0.0), 0.05, (12, 2))
    b = rng.normal((-5.0, 0.0), 0.05, (12, 2))
    write_matrix_csv(root / "blobs.csv", np.vstack([a, b]))
    write_labels_csv(root / "blobs.labels.csv", [0] * 12 + [1] * 12)
    return root


def blob_args(blob_dir, *extra):
    return ["fit", "--input", str(blob_dir / "blobs.csv"), "--clusters", "2",
            "--dims", "1", "--restarts", "5", "--seed", "0", *extra]


class TestFit:
    def test_writes_result_document(self, blob_dir, tmp_path):
        out = tmp_path / "fit.json"
        assert main(blob_args(blob_dir, "--output", str(out))) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "fit"
        assert doc["config"]["clusters"] == 2
        assert doc["config"]["dims"] == 1
        assert len(doc["solution"]["labels"]) == 24
        assert doc["solution"]["loss"] >= 0.0
        assert doc["solution"]["loading"]["rows"] == 2
        assert doc["solution"]["loading"]["cols"] == 1
        assert doc["solution"]["centroids"]["rows"] == 2
        assert doc["timing"]["seconds"] > 0.0

    def test_stdout_when_no_output(self, blob_dir, capsys):
        assert main(blob_args(blob_dir)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "fit"

    def test_truth_adds_ari(self, blob_dir, capsys):
        truth = str(blob_dir / "blobs.labels.csv")
        assert main(blob_args(blob_dir, "--truth", truth)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["ari"] == 1.0

    def test_reruns_byte_identical_modulo_timing(self, blob_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(blob_args(blob_dir, "--output", str(out1))) == 0
        assert main(blob_args(blob_dir, "--output", str(out2))) == 0
        d1, d2 = (json.loads(p.read_text()) for p in (out1, out2))
        d1.pop("timing"), d2.pop("timing")
        assert d1 == d2

    def test_emit_coords_writes_sidecars(self, blob_dir, tmp_path):
        out = tmp_path / "fit.json"
        args = blob_args(blob_dir, "--output", str(out), "--emit-coords")
        assert main(args) == 0
        scores = load_csv(tmp_path / "fit.scores.csv")
        centers = load_csv(tmp_path / "fit.centers.csv")
        loading = load_csv(tmp_path / "fit.loading.csv")
        assert scores.values.shape == (24, 1)
        assert centers.values.shape == (2, 1)
        assert loading.values.shape == (2, 1)

    def test_emit_coords_requires_output(self, blob_dir, capsys):
        assert main(blob_args(blob_dir, "--emit-coords")) == 1
        assert "usage error" in capsys.readouterr().err

    def test_normalize_flag_changes_the_fit(self, blob_dir, capsys):
        assert main(blob_args(blob_dir)) == 0
        raw = json.loads(capsys.readouterr().out)
        assert main(blob_args(blob_dir, "--normalize")) == 0
        scaled = json.loads(capsys.readouterr().out)
        assert scaled["config"]["normalize"] is True
        assert scaled["solution"]["loss"] != raw["solution"]["loss"]

    def test_threads_flag_is_accepted(self, blob_dir, tmp_path):
        out = tmp_path / "fit.json"
        assert main(blob_args(blob_dir, "--threads", "2", "--output", str(out))) == 0

    def test_threads_must_be_positive(self, blob_dir, capsys):
        assert main(blob_args(blob_dir, "--threads", "0")) == 1
        assert "usage error" in capsys.readouterr().err


class TestOtherSolvers:
    def test_kmeans_command(self, blob_dir, capsys):
        args = ["kmeans", "--input", str(blob_dir / "blobs.csv"), "--clusters", "2",
                "--restarts", "5", "--truth", str(blob_dir / "blobs.labels.csv")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "kmeans"
        assert payload["metrics"]["ari"] == 1.0
        assert payload["solution"]["centers"]["rows"] == 2
        assert payload["solution"]["centers"]["cols"] == 2

    def test_kmeans_past_the_range_of_the_squares(self, blob_dir, tmp_path, capsys):
        # x * x overflows at this scale; the loss itself is a finite double
        path = tmp_path / "big.csv"
        write_matrix_csv(path, load_csv(blob_dir / "blobs.csv").values * 1e153)
        args = ["kmeans", "--input", str(path), "--clusters", "2", "--restarts", "5",
                "--truth", str(blob_dir / "blobs.labels.csv")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert math.isfinite(payload["solution"]["loss"])
        assert payload["metrics"]["ari"] == 1.0

    def test_tandem_command(self, blob_dir, capsys):
        args = ["tandem", "--input", str(blob_dir / "blobs.csv"), "--clusters", "2",
                "--dims", "1", "--restarts", "5",
                "--truth", str(blob_dir / "blobs.labels.csv")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "tandem"
        assert payload["metrics"]["ari"] == 1.0
        assert payload["solution"]["loading"]["rows"] == 2
        assert payload["solution"]["loading"]["cols"] == 1


class TestGen:
    def test_preset_writes_matrix_and_labels(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = ["gen", "--preset", "table1-q2p5", "--output", str(out), "--seed", "1"]
        assert main(args) == 0
        X = load_csv(out)
        assert X.values.shape == (400, 15)
        labels = (tmp_path / "bench.labels.csv").read_text().splitlines()
        assert labels[0] == "label"
        assert len(labels) == 401
        assert {int(v) for v in labels[1:]} <= set(range(8))

    def test_fit_without_the_truth_sidecar(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(["gen", "--preset", "table1-q2p5", "--output", str(out), "--seed", "1"])
        os.remove(tmp_path / "bench.labels.csv")
        args = ["fit", "--input", str(out), "--clusters", "8", "--dims", "2",
                "--restarts", "3", "--normalize"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"] is None
        assert len(payload["solution"]["labels"]) == 400

    def test_fit_scored_against_the_sidecar(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(["gen", "--preset", "table1-q2p5", "--output", str(out), "--seed", "1"])
        args = ["fit", "--input", str(out), "--clusters", "8", "--dims", "2",
                "--restarts", "3", "--normalize",
                "--truth", str(tmp_path / "bench.labels.csv")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert -0.5 <= payload["metrics"]["ari"] <= 1.0

    def test_explicit_geometry(self, tmp_path):
        out = tmp_path / "tiny.csv"
        args = ["gen", "--dims", "1", "--p1", "2", "--p2", "0", "--p3", "0",
                "--clusters", "3", "--n", "30", "--output", str(out), "--seed", "2"]
        assert main(args) == 0
        assert load_csv(out).values.shape == (30, 2)

    def test_geometry_required_without_preset(self, tmp_path, capsys):
        args = ["gen", "--dims", "1", "--p1", "2", "--output", str(tmp_path / "x.csv")]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dims", "--p1", "--p2", "--p3"])
    def test_preset_excludes_explicit_geometry(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["gen", "--preset", "table1-q2p5", flag, "3", "--n", "20", "--output", str(out)]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_geometry_is_a_data_error(self, tmp_path, capsys):
        args = ["gen", "--dims", "1", "--p1", "2", "--p2", "-1", "--p3", "0",
                "--output", str(tmp_path / "x.csv")]
        assert main(args) == 2


class TestSelectDim:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "sel.csv"
        main(["gen", "--dims", "2", "--p1", "3", "--p2", "0", "--p3", "0",
              "--clusters", "4", "--n", "60", "--output", str(out), "--seed", "3"])
        return out

    def test_profiles_all_dims(self, dataset, capsys):
        args = ["select-dim", "--input", str(dataset), "--clusters", "4",
                "--restarts", "5", "--seed", "0"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "select-dim"
        assert sorted(payload["solution"]["vr"]) == ["1", "2", "3"]
        assert sorted(payload["solution"]["delta2"]) == ["1", "2", "3"]
        assert 1 <= payload["solution"]["q_hat"] <= 3

    def test_max_dims_caps_the_profile(self, dataset, capsys):
        args = ["select-dim", "--input", str(dataset), "--clusters", "4",
                "--restarts", "5", "--max-dims", "2"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["solution"]["vr"]) == ["1", "2"]
        assert payload["config"]["max_dims"] == 2

    def test_truth_scores_the_selected_dim(self, dataset, tmp_path, capsys):
        args = ["select-dim", "--input", str(dataset), "--clusters", "4",
                "--restarts", "5", "--truth", str(tmp_path / "sel.labels.csv")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ari" in payload["metrics"]


class TestBenchCommands:
    def test_consistency_json(self, capsys):
        args = ["bench-consistency", "--n-grid", "20,40", "--reps", "2",
                "--restarts", "3", "--seed", "1"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["solution"]["report"]
        assert report["n_grid"] == [20, 40]
        assert len(report["losses"]["20"]) == 2
        assert payload["solution"]["summary"]["loss"]["40"]["median"] >= 0.0
        assert report["oracle_loss"] == pytest.approx(0.01, rel=1e-12)

    def test_consistency_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        args = ["bench-consistency", "--n-grid", "20,40", "--reps", "2",
                "--restarts", "3", "--seed", "1", "--format", "csv",
                "--output", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,rep,loss,distance,vr,population_risk"
        assert len(lines) == 5

    def test_consistency_csv_requires_output(self, capsys):
        args = ["bench-consistency", "--n-grid", "20", "--reps", "1",
                "--format", "csv"]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err

    def test_consistency_csv_checks_output_before_running(self, monkeypatch, capsys):
        def experiment(*args, **kwargs):
            raise AssertionError("the experiment ran before the usage check")

        monkeypatch.setattr("rkmeans.cli.consistency_experiment", experiment)
        assert main(["bench-consistency", "--format", "csv"]) == 1
        assert "--format csv requires --output" in capsys.readouterr().err

    def test_consistency_custom_atoms(self, tmp_path, capsys):
        atoms = tmp_path / "atoms.csv"
        write_matrix_csv(atoms, [[2.0, 0.0], [-2.0, 0.0]])
        args = ["bench-consistency", "--atoms", str(atoms), "--clusters", "2",
                "--n-grid", "20", "--reps", "1", "--restarts", "3"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["atoms"] == str(atoms)
        assert payload["solution"]["report"]["oracle_loss"] == pytest.approx(0.0, abs=1e-12)

    def test_bad_n_grid_is_a_usage_error(self, capsys):
        assert main(["bench-consistency", "--n-grid", "5,abc"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_n_grid_below_k_is_a_data_error(self, capsys):
        args = ["bench-consistency", "--n-grid", "1", "--reps", "1"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err

    def test_agreement_smoke(self, capsys):
        args = ["bench-agreement", "--preset", "table1-q2p5", "--reps", "1",
                "--restarts", "2", "--seed", "0"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solution"]["setting"] == [2, 5, 5, 5]
        assert payload["solution"]["reps"] == 1
        assert 0.0 <= payload["solution"]["rate"] <= 1.0
        assert len(payload["solution"]["picks"]) == 1


COMMON = {"input": "{data}", "seed": 0, "normalize": False}


@pytest.mark.parametrize("argv, config", [
    (["fit", "--input", "{data}", "--clusters", "2", "--dims", "1", "--restarts", "3",
      "--seed", "4", "--truth", "{truth}", "--threads", "2", "--emit-coords",
      "--output", "{out}"],
     {**COMMON, "clusters": 2, "dims": 1, "restarts": 3, "seed": 4}),
    (["kmeans", "--input", "{data}", "--clusters", "2", "--normalize"],
     {**COMMON, "clusters": 2, "restarts": 30, "normalize": True}),
    (["tandem", "--input", "{data}", "--clusters", "2", "--dims", "1", "--restarts", "2",
      "--truth", "{truth}"],
     {**COMMON, "clusters": 2, "dims": 1, "restarts": 2}),
    (["select-dim", "--input", "{data}", "--clusters", "3", "--restarts", "2"],
     {**COMMON, "clusters": 3, "restarts": 2, "max_dims": 2}),
    (["select-dim", "--input", "{data}", "--clusters", "3", "--restarts", "2",
      "--max-dims", "1", "--output", "{out}"],
     {**COMMON, "clusters": 3, "restarts": 2, "max_dims": 1}),
    (["bench-consistency", "--n-grid", "20,40", "--reps", "1", "--restarts", "2",
      "--seed", "5"],
     {"atoms": "demo", "clusters": 2, "dims": 1, "n_grid": [20, 40], "reps": 1,
      "restarts": 2, "seed": 5}),
    (["bench-consistency", "--atoms", "{atoms}", "--n-grid", "20", "--reps", "1",
      "--restarts", "2", "--format", "json", "--threads", "2", "--output", "{out}"],
     {"atoms": "{atoms}", "clusters": 2, "dims": 1, "n_grid": [20], "reps": 1,
      "restarts": 2, "seed": 0}),
    (["bench-agreement", "--preset", "table1-q2p5", "--reps", "1", "--restarts", "2",
      "--seed", "3"],
     {"preset": "table1-q2p5", "reps": 1, "restarts": 2, "seed": 3}),
    (["rate-bound", "--n", "100000", "--clusters", "2", "--p", "3", "--radius", "1",
      "--epsilon", "1", "--output", "{out}"],
     {"n": 100000, "clusters": 2, "p": 3, "radius": 1.0, "epsilon": 1.0}),
], ids=["fit", "kmeans", "tandem", "select-dim", "select-dim-max-dims",
        "consistency-demo", "consistency-atoms", "agreement", "rate-bound"])
def test_config_echo(argv, config, blob_dir, tmp_path, capsys):
    # the exact config block, down to the JSON types: output routing,
    # --truth and --threads stay out, every other argument is echoed
    atoms = tmp_path / "atoms.csv"
    write_matrix_csv(atoms, [[2.0, 0.0], [-2.0, 0.0]])
    paths = {"data": str(blob_dir / "blobs.csv"), "truth": str(blob_dir / "blobs.labels.csv"),
             "atoms": str(atoms), "out": str(tmp_path / "result.json")}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 0
    out = tmp_path / "result.json"
    echoed = json.loads(out.read_text() if "--output" in argv else capsys.readouterr().out)
    expected = {key: value.format(**paths) if isinstance(value, str) else value
                for key, value in config.items()}
    assert json.dumps(echoed["config"], sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestRateBound:
    def test_prints_bound_and_raw(self, capsys):
        args = ["rate-bound", "--n", "2", "--clusters", "1", "--p", "1",
                "--radius", "1", "--epsilon", "16"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bound: 1.0"
        assert lines[1].startswith("raw: ")
        assert float(lines[1].split(": ")[1]) == pytest.approx(128.0 / math.e, rel=1e-12)

    def test_json_output(self, tmp_path):
        out = tmp_path / "bound.json"
        args = ["rate-bound", "--n", "100000", "--clusters", "2", "--p", "3",
                "--radius", "1", "--epsilon", "1", "--output", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "rate-bound"
        assert 0.0 <= doc["solution"]["bound"] <= 1.0
        assert doc["solution"]["raw"] < 1.0

    def test_precondition_violation_is_a_data_error(self, capsys):
        args = ["rate-bound", "--n", "2", "--clusters", "1", "--p", "1",
                "--radius", "1", "--epsilon", "1"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_required_flag(self, blob_dir, capsys):
        args = ["fit", "--input", str(blob_dir / "blobs.csv"), "--dims", "1"]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        args = ["fit", "--input", str(bad), "--clusters", "2", "--dims", "1"]
        assert main(args) == 2
        assert "data error" in capsys.readouterr().err

    def test_cell_over_the_csv_field_limit(self, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("1,0." + "0" * 200_000 + "1\n2,3\n")
        args = ["fit", "--input", str(long), "--clusters", "2", "--dims", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "(row 1)" in err

    def test_missing_input_file(self, tmp_path, capsys):
        args = ["fit", "--input", str(tmp_path / "nope.csv"),
                "--clusters", "2", "--dims", "1"]
        assert main(args) == 2
        assert "data error" in capsys.readouterr().err

    def test_truth_length_mismatch(self, blob_dir, tmp_path, capsys, monkeypatch):
        # the truth file is read and checked with the input, before any solve
        from rkmeans import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the truth file was checked")

        short = tmp_path / "short.csv"
        write_labels_csv(short, [0, 1, 0])
        for command, solver in [(["fit", "--dims", "1"], "fit_rkm"),
                                (["kmeans"], "kmeans_fit"),
                                (["tandem", "--dims", "1"], "tandem_fit"),
                                (["select-dim"], "select_dimension")]:
            monkeypatch.setattr(cli, solver, unreachable)
            args = [command[0], "--input", str(blob_dir / "blobs.csv"), "--clusters", "2",
                    *command[1:], "--truth", str(short)]
            assert main(args) == 2, command
            assert capsys.readouterr().err == (
                "data error: truth has 3 labels but the data has 24 rows\n")

    def test_impossible_cluster_count(self, blob_dir, capsys):
        args = ["fit", "--input", str(blob_dir / "blobs.csv"),
                "--clusters", "30", "--dims", "1"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err

    def test_loss_past_the_largest_double(self, blob_dir, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        write_matrix_csv(path, load_csv(blob_dir / "blobs.csv").values * 1e160)
        for command in (["kmeans"], ["fit", "--dims", "1"]):
            args = [*command, "--input", str(path), "--clusters", "2", "--restarts", "2"]
            assert main(args) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: the loss overflows a double"), err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("rkm ")


class TestLoggingEnv:
    def test_rkm_log_debug_writes_to_stderr(self, blob_dir, tmp_path):
        # subprocess so the env-driven logging config cannot leak into
        # the other tests' logging state
        out = tmp_path / "fit.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rkmeans", "fit",
             "--input", str(blob_dir / "blobs.csv"), "--clusters", "2",
             "--dims", "1", "--restarts", "3", "--output", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "RKM_LOG": "debug"},
        )
        assert proc.returncode == 0
        assert "rkm:" in proc.stderr
        assert "loaded 24x2 matrix" in proc.stderr
