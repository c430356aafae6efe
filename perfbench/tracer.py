"""In-memory span tracer that wraps the public functions of rkmeans modules.

Tracing lives entirely in the benchmark: each wrapped function is rebound on
its module and on every rkmeans module that imported it by name, so calls made
through ``rkmeans.cli.main`` pass through the wrappers. A span records its
name, start, end, parent span and op id. Self time is a span's duration minus
the durations of its direct children; it is accumulated while the run goes, and
the raw spans are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array

# (module, attribute) pairs wrapped in a traced run, grouped by layer. The
# layer is the module; metric names drop the leading underscore of _kernels
# because a metric name must start with a letter or digit.
WRAPPED = {
    "cli": ["main"],
    "io": ["load_csv", "load_labels_csv", "write_matrix_csv", "ResultDocument.write"],
    "datagen": ["generate_dataset", "normalize_columns"],
    "solver": ["fit_rkm", "project"],
    "_kernels": ["sq_distances", "assign_to_nearest", "kmeans_pp_init",
                 "cluster_means", "repair_empty_clusters", "lloyd_single"],
    "baselines": ["kmeans_fit", "tandem_fit", "pca_fit", "kmeans_1d_exact"],
    "selection": ["select_dimension", "vr_hat"],
    "lab": ["agreement_experiment", "consistency_experiment", "check_distinctness",
            "oracle_global_min", "population_risk"],
    "metrics": ["adjusted_rand_index", "param_distance"],
}


def layer_name(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    """Span store plus per-name aggregates for the ops of one run.

    ``op`` is the id stamped on new spans: None disables recording (wrappers
    call straight through), -1 marks set-up, and 0, 1, ... are timed ops.
    Aggregates (calls, total, self time, counters) cover timed ops only.
    """

    def __init__(self):
        self.op = None
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[list] = []  # [span index, name id, t0, child time]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple] = []
        # per-restart sweep accounting inside solver.fit_rkm
        self._fit_depth = 0
        self._fit_cap = 0
        self._restart_means = None

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> None:
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_id.append(self.op)
        self._stack.append([idx, nid, self.start[idx], 0.0])

    def _close(self) -> None:
        t1 = time.perf_counter()
        idx, nid, t0, child = self._stack.pop()
        self.end[idx] = t1
        duration = t1 - t0
        if self._stack:
            self._stack[-1][3] += duration
        if self.op_id[idx] >= 0:
            name = self.names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    def count(self, name: str, amount: float) -> None:
        if self.op is not None and self.op >= 0:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrapping ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in WRAPPED and rebind it wherever rkmeans
        modules hold a reference to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, attrs in WRAPPED.items():
            module = sys.modules[f"{package.__name__}.{module_name}"]
            for attr in attrs:
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
                wrapper = self._wrap(f"{layer_name(module_name)}.{attr}", original)
                self._patch(owner, leaf, original, wrapper)
                if owner is not module:
                    continue
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original and not (other is module and name == leaf):
                            self._patch(other, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken at layer boundaries ----------------------------------

    def _after_io_load_csv(self, args, result):
        self.count("io.load_csv.mb", os.path.getsize(args[0]) / 1e6)

    def _after_io_ResultDocument_write(self, args, result):
        self.count("io.json_mb", os.path.getsize(args[1]) / 1e6)

    def _before_kernels_sq_distances(self, args):
        # computed from the shapes, not measured: the n x k x d product
        # plus the two squared-norm reductions and the combine/clamp pass
        (n, d), k = args[0].shape, args[1].shape[0]
        self.count("kernels.sq_distances.gflop", (2 * n * k * d + 2 * (n + k) * d + 3 * n * k) / 1e9)

    def _after_kernels_lloyd_single(self, args, result):
        sweeps = int(result[3])
        self.count("kernels.lloyd_single.sweeps", sweeps)
        self.count("kernels.lloyd_single.cap_hits", int(sweeps >= int(args[3])))

    def _before_solver_fit_rkm(self, args):
        config = args[1]
        self._fit_depth += 1
        self._fit_cap = config.max_iterations
        self.count("solver.restarts", config.restarts)

    def _after_solver_fit_rkm(self, args, result):
        self._end_restart()
        self._fit_depth -= 1

    def _before_kernels_kmeans_pp_init(self, args):
        # every ALS restart seeds its centroids exactly once
        if self._fit_depth:
            self._end_restart()
            self._restart_means = 0

    def _before_kernels_cluster_means(self, args):
        if self._fit_depth and self._restart_means is not None:
            self._restart_means += 1

    def _end_restart(self) -> None:
        # one cluster_means call initializes the restart, one ends each sweep
        if self._restart_means is None:
            return
        sweeps = max(self._restart_means - 1, 0)
        self.count("solver.sweeps", sweeps)
        self.count("solver.cap_hits", int(sweeps >= self._fit_cap))
        self._restart_means = None

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans, set-up included, as gzipped JSON lines: a header naming
        the columns, then one [name, start, end, parent, op] row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end", "parent", "op"],
                                 "spans": len(self.start)}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op_id[i]]) + "\n")
