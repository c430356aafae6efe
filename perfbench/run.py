"""rkmeans benchmark: real ``rkm`` commands, run in-process through
``rkmeans.cli.main`` in a closed loop from one client process.

    python3 perfbench/run.py --workload agreement --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and works in ``.bench_runs/<workload>-<seed>/``. Set-up
makes the inputs, then ops run back to back until ``--seconds`` of op time
have passed; every op's output is checked afterwards, and the last op is
replayed once to confirm that identical commands give identical output.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run whose rkmeans functions are wrapped in spans (see
tracer.py). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run's full record
(environment, per-op digests, the layer table) goes to ``result-trace<N>.json``
in the work directory.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# pinned before numpy is first imported, so BLAS stays single-threaded
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# predicted layer shares of a traced op, checked against the trace: the layer
# with the largest self-time share must be one of `dominant`, and the layers
# in `absent` must not run at all
PREDICTED = {
    "agreement": {"dominant": {"solver", "kernels"}, "absent": {"io", "baselines"}},
    "bigfit": {"dominant": {"solver", "kernels", "io"}, "absent": {"lab", "selection"}},
    "consistency": {"dominant": {"lab"}, "absent": {"datagen"}},
}
LAYERS = ("cli", "io", "datagen", "solver", "kernels", "baselines", "selection", "lab", "metrics")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rkmeans benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, threads: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_flag": threads,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def clear_inputs(workdir: str) -> None:
    """Remove generated inputs and op outputs; keep run records and spans."""
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif name.endswith(".csv"):
            os.remove(path)


def run_op(workload, i: int) -> dict:
    from workloads import run_command

    record = {"op": i, "argv": workload.commands(i), "stdouts": [], "error": None}
    t0 = time.perf_counter()
    try:
        for argv in record["argv"]:
            rc, out = run_command(argv)
            record["stdouts"].append(out)
            if rc != 0:
                record["error"] = f"rkm {argv[0]} exited {rc}"
                break
    except Exception:  # an op that raises is a failed op; the run goes on
        record["error"] = traceback.format_exc()
    record["seconds"] = time.perf_counter() - t0
    return record


def verify(workload, record: dict) -> None:
    """Digest and check one op's output, outside any timed section."""
    from workloads import canonical_digest

    if record["error"] is not None:
        return
    try:
        texts, files = workload.outputs(record["op"], record["stdouts"])
        record["digest"] = canonical_digest(texts, files)
        record["quality"] = workload.check(record["op"], texts)
    except Exception:  # check failures and unreadable output both fail the op
        record["error"] = traceback.format_exc()


def layer_metrics(tracer, records: list, overhead_pct: float) -> tuple[dict, dict]:
    op_s = sum(r["seconds"] for r in records)
    calls, self_s, total_s, count = (tracer.calls.get, tracer.self_s.get,
                                     tracer.total_s.get, tracer.counters.get)
    m = {}
    for name in ("cli.main", "datagen.generate_dataset", "solver.fit_rkm",
                 "kernels.sq_distances", "kernels.assign_to_nearest", "kernels.kmeans_pp_init",
                 "kernels.cluster_means", "kernels.repair_empty_clusters",
                 "kernels.lloyd_single", "baselines.kmeans_1d_exact",
                 "selection.select_dimension", "lab.oracle_global_min"):
        m[f"{name}.calls"] = (calls(name, 0), "count")
    for name in tracer.names:
        m[f"{name}.self_s"] = (self_s(name, 0.0), "s")
    m["solver.fit_rkm.total_s"] = (total_s("solver.fit_rkm", 0.0), "s")
    mb, load_s = count("io.load_csv.mb", 0.0), total_s("io.load_csv", 0.0)
    m["io.load_csv.mb"] = (mb, "MB")
    m["io.load_csv.mb_per_s"] = (mb / load_s if load_s else 0.0, "MB/s")
    m["io.json_mb"] = (count("io.json_mb", 0.0), "MB")
    sweeps = count("solver.sweeps", 0)
    m["solver.restarts"] = (count("solver.restarts", 0), "count")
    m["solver.sweeps"] = (sweeps, "count")
    m["solver.sweep_us"] = (1e6 * total_s("solver.fit_rkm", 0.0) / sweeps if sweeps else 0.0, "us")
    m["solver.cap_hits"] = (count("solver.cap_hits", 0), "count")
    m["kernels.sq_distances.gflop"] = (count("kernels.sq_distances.gflop", 0.0), "gflop-computed")
    m["kernels.lloyd_single.sweeps"] = (count("kernels.lloyd_single.sweeps", 0), "count")
    m["kernels.lloyd_single.cap_hits"] = (count("kernels.lloyd_single.cap_hits", 0), "count")

    shares = {layer: 0.0 for layer in LAYERS}
    for name, value in tracer.self_s.items():
        shares[name.split(".")[0]] += value / op_s
    for layer, share in shares.items():
        m[f"{layer}.share"] = (share, "fraction")
    m["harness.share"] = (1.0 - sum(shares.values()), "fraction")
    m["trace.overhead_pct"] = (overhead_pct, "%")

    quality = [r.get("quality", {}) for r in records]
    reps = sum(q.get("reps", 0) for q in quality)
    aris = [q["ari"] for q in quality if "ari" in q]
    m["quality.agreement_rate"] = (sum(q.get("hits", 0) for q in quality) / reps if reps else 0.0,
                                   "fraction")
    m["quality.fit_ari"] = (statistics.median(aris) if aris else 0.0, "ari")
    return m, shares


def check_layers(workload: str, shares: dict) -> list[str]:
    """Compare the traced shares with PREDICTED; return every mismatch."""
    predicted = PREDICTED[workload]
    mismatches = []
    top = max(shares, key=shares.get)
    if top not in predicted["dominant"]:
        mismatches.append(f"dominant layer is {top} ({shares[top]:.1%}), "
                          f"predicted one of {sorted(predicted['dominant'])}")
    for layer in sorted(predicted["absent"]):
        if shares[layer] > 0.0:
            mismatches.append(f"layer {layer} predicted absent, has {shares[layer]:.2%}")
    return mismatches


def declared_metrics(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rkmeans" / "__init__.py").is_file():
        print(f"error: no rkmeans sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rkmeans
    import workloads
    from tracer import Tracer

    if Path(rkmeans.__file__).resolve().parent != (SRC / "rkmeans").resolve():
        print(f"error: imported rkmeans from {rkmeans.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    os.chdir(ROOT)  # command lines use checkout-relative paths, so digests are portable
    workdir = os.path.join(".bench_runs", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    clear_inputs(workdir)
    threads = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[args.workload](args.seed, threads, workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(rkmeans)
        tracer.op = -1

    prep_s = []
    for j in range(workload.INPUTS):
        t0 = time.perf_counter()
        workload.prepare(j)
        prep_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prep_s)

    records = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(records)
        records.append(run_op(workload, len(records)))
        if time.perf_counter() - t0 >= args.seconds:
            break
    timed_s = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()

    for record in records:
        verify(workload, record)
    # identical command lines must give identical output: replay the last op
    replay = run_op(workload, records[-1]["op"])
    verify(workload, replay)
    if replay["error"] is None and replay.get("digest") != records[-1].get("digest"):
        replay["error"] = (f"replay digest {replay.get('digest')} differs from "
                           f"{records[-1].get('digest')}")

    attempted = len(records) + 1
    failed = sum(r["error"] is not None for r in records + [replay])
    ok_ops = sum(r["error"] is None for r in records)
    for r in records + [replay]:
        if r["error"] is not None:
            print(f"op {r['op']} failed: {r['error']}", file=sys.stderr)

    detail = {"environment": environment(args, threads), "setup": {
        "import_s": import_s, "prepare_s": prep_s}}
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ok_ops / timed_s, "ops/s"),
            "op_p50_s": (statistics.median(r["seconds"] for r in records), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "success_rate": ((attempted - failed) / attempted, "fraction"),
        }
    else:
        overhead = 100.0 * (records[-1]["seconds"] / replay["seconds"] - 1.0)
        metrics, shares = layer_metrics(tracer, records, overhead)
        mismatches = check_layers(args.workload, shares)
        detail["layer_shares"] = shares
        detail["layer_check"] = mismatches or "as predicted"
        for line in mismatches:
            print(f"layer check: {line}")
        tracer.write_spans(os.path.join(workdir, "spans.jsonl.gz"))

    declared = declared_metrics(args.trace)
    if sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 2

    reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    detail["ops"] = [{k: r.get(k) for k in ("op", "argv", "seconds", "digest", "error", "quality")}
                     for r in records]
    detail["replay"] = {k: replay.get(k) for k in ("op", "seconds", "digest", "error")}
    detail["metrics"] = reported
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    clear_inputs(workdir)

    print(json.dumps({"environment": detail["environment"]}))
    print(json.dumps({"digests": [r.get("digest") for r in records]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
