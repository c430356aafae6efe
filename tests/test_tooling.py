"""Guards for the benchmark's traced run (perfbench/tracer.py).

The tracer wraps rkmeans functions by name; a renamed or deleted function
breaks every traced benchmark run, and no other test would notice.
"""
import importlib.util
from pathlib import Path

import numpy as np

import rkmeans
from rkmeans import DataMatrix, SolverConfig, _kernels

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    result = _kernels.lloyd_single(y, 2, np.random.default_rng(0), 4, 1e-9)
    assert len(result) == 4
    assert isinstance(result[3], int) and 1 <= result[3] <= 4


def test_traced_fits_keep_the_hooks_firing():
    # the tracer takes each kmeans_pp_init call inside fit_rkm as a restart
    # boundary, reads lloyd_single's sweep count, and computes the distance
    # flops from sq_distances' 2-D argument shapes
    tracer = _load_tracer().Tracer()
    X = DataMatrix(np.random.default_rng(3).standard_normal((60, 4)))
    tracer.install(rkmeans)
    try:
        tracer.op = 0
        # looked up on the package, where the tracer rebinds them
        sol = rkmeans.fit_rkm(X, SolverConfig(k=3, q=2, restarts=7, seed=1))
        rkmeans.kmeans_fit(X, 3, restarts=4, seed=2)
        rkmeans.rkm_objective(X, sol.loading, sol.centroids)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert tracer.calls["solver.fit_rkm"] == 1
    assert tracer.counters["solver.restarts"] == 7
    assert tracer.calls["kernels.kmeans_pp_init"] == 7 + 4
    assert tracer.calls["kernels.lloyd_single"] == 4
    assert tracer.counters["kernels.lloyd_single.sweeps"] >= 4
    assert tracer.counters["kernels.sq_distances.gflop"] > 0
    assert _kernels.kmeans_pp_init.__module__ == "rkmeans._kernels"
    assert not hasattr(_kernels.kmeans_pp_init, "__wrapped__")
