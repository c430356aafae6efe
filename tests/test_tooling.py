"""Guards for the benchmark's traced run (perfbench/tracer.py).

The tracer wraps rkmeans functions by name; a renamed or deleted function
breaks every traced benchmark run, and no other test would notice.
"""
import importlib.util
from pathlib import Path

import numpy as np

from rkmeans import _kernels

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
