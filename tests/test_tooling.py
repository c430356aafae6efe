"""Guards for the benchmark's traced run (perfbench/tracer.py).

The tracer wraps rkmeans functions by name; a renamed or deleted function
breaks every traced benchmark run, and no other test would notice.
"""
import contextlib
import importlib.util
import io
import os
from pathlib import Path

import numpy as np

import rkmeans
from rkmeans import DataMatrix, SolverConfig, _kernels, cli
from rkmeans._seeds import spawn_streams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    for module_name, attrs in wrapped.items():
        module = importlib.import_module(f"rkmeans.{module_name}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"rkmeans.{module_name}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"rkmeans.{module_name}.{attr} is not callable"


def test_lloyd_single_keeps_the_traced_signature():
    # the tracer reads the sweep count from result[3] and the cap from args[3]
    y = np.arange(12.0).reshape(6, 2)
    result = _kernels.lloyd_single(y, 2, spawn_streams(0, [0]), 4)
    assert len(result) == 4
    assert isinstance(result[3], int) and 1 <= result[3] <= 4


def test_traced_fits_keep_the_hooks_firing():
    # the tracer takes each kmeans_pp_init call inside fit_rkm as a restart
    # boundary (one call seeds a batch of restarts, and each fit here runs
    # one batch), reads lloyd_single's sweep count, and computes the distance
    # flops from sq_distances' 2-D argument shapes
    tracer = _load_tracer().Tracer()
    X = DataMatrix(np.random.default_rng(3).standard_normal((60, 4)))
    tracer.install(rkmeans)
    try:
        tracer.op = 0
        # looked up on the package, where the tracer rebinds them
        sol = rkmeans.fit_rkm(X, SolverConfig(k=3, q=2, restarts=7, seed=1))
        rkmeans.kmeans_fit(X, 3, restarts=4, seed=2)
        rkmeans._kernels.sq_distances(X.values @ sol.loading.values, sol.centroids.values)
        rkmeans._kernels.lloyd_single(X.values, 3, spawn_streams(5, [0]),
                                      _kernels.MAX_ITERATIONS)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert tracer.calls["solver.fit_rkm"] == 1
    assert tracer.counters["solver.restarts"] == 7
    assert tracer._fit_cap == _kernels.MAX_ITERATIONS
    assert _kernels.batch_width(60, 3, 7) == 7 and _kernels.batch_width(60, 3, 4) == 4
    assert tracer.calls["kernels.kmeans_pp_init"] == 1 + 1 + 1
    assert tracer.calls["kernels.lloyd_single"] == 1
    assert tracer.counters["kernels.lloyd_single.sweeps"] >= 1
    assert tracer.counters["kernels.sq_distances.gflop"] > 0
    assert _kernels.kmeans_pp_init.__module__ == "rkmeans._kernels"
    assert not hasattr(_kernels.kmeans_pp_init, "__wrapped__")


def test_traced_io_hooks_keep_firing(tmp_path):
    # the tracer counts load_csv calls and their file sizes; the labels file
    # must reach it too, so load_labels_csv has to call the module-level
    # load_csv, and each coordinate file is one write_matrix_csv call
    rng = np.random.default_rng(4)
    data, truth = tmp_path / "x.csv", tmp_path / "x.labels.csv"
    rkmeans.write_matrix_csv(data, rng.standard_normal((40, 3)))
    rkmeans.write_labels_csv(truth, rng.integers(0, 2, 40))
    tracer = _load_tracer().Tracer()
    tracer.install(rkmeans)
    try:
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["fit", "--input", str(data), "--clusters", "2", "--dims", "1",
                           "--restarts", "2", "--truth", str(truth), "--emit-coords",
                           "--output", str(tmp_path / "fit.json")])
    finally:
        tracer.op = None
        tracer.uninstall()
    assert rc == 0
    assert tracer.calls["io.load_csv"] == 2
    assert tracer.calls["io.load_labels_csv"] == 1
    sizes = os.path.getsize(data) / 1e6 + os.path.getsize(truth) / 1e6
    assert abs(tracer.counters["io.load_csv.mb"] - sizes) <= 1e-12
    assert tracer.calls["io.write_matrix_csv"] == 3
    assert tracer.calls["io.ResultDocument.write"] == 1


def test_traced_consistency_op_solves_each_oracle_once(tmp_path):
    # a k=2 bench-consistency op solves the oracle for 1 and 2 clusters, each
    # with one exact 1-D solve at the best angle; the batched DP over the
    # whole angle grid runs inside oracle_global_min and is charged to its
    # self time
    tracer = _load_tracer().Tracer()
    tracer.install(rkmeans)
    try:
        tracer.op = 0
        rc = cli.main(["bench-consistency", "--clusters", "2", "--n-grid", "20", "--reps", "1",
                       "--restarts", "2", "--output", str(tmp_path / "report.json")])
    finally:
        tracer.op = None
        tracer.uninstall()
    assert rc == 0
    assert tracer.calls["lab.consistency_experiment"] == 1
    assert tracer.calls["lab.check_distinctness"] == 1
    assert tracer.calls["lab.oracle_global_min"] == 2
    assert tracer.calls["baselines.kmeans_1d_exact"] == 2
    assert tracer.self_s["lab.oracle_global_min"] > 0


def test_benchmark_command_lines_parse(tmp_path):
    # every workload op is rkm command lines; a CLI change that drops or
    # renames an option they pass (--threads among them) breaks the benchmark
    workloads = _load("workloads").WORKLOADS
    assert sorted(workloads) == ["agreement", "bigfit", "consistency"]
    for name, workload in workloads.items():
        commands = workload(seed=1, threads=1, workdir=str(tmp_path)).commands(0)
        assert commands, name
        for argv in commands:
            args = cli.build_parser().parse_args(argv)
            assert args.command == argv[0] and callable(args.func)
