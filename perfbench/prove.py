"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads agreement,bigfit,consistency \
        --seeds 1-10 --trace 0 --out run-set.json

Runs ``run.py`` once per (workload, seed), one after another, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median against the bound in BENCHMARK.json. The output
file keeps every run's metrics and per-op digests, so two run sets of the
same code can be compared seed by seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"digests"'):
            result["digests"] = json.loads(line)["digests"]
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = report["runs"][workload] = {}
        for seed in args.seeds:
            result = runs[seed] = run_once(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if k in bounds and (not args.trace or v["value"])),
                  flush=True)
        summary = report["summary"][workload] = {}
        if len(args.seeds) < 2:
            continue
        for name, bound in bounds.items():
            values = [runs[s]["metrics"][name]["value"] for s in args.seeds]
            summary[name] = summarize(values, bound)
            if bound is not None:
                s = summary[name]
                print(f"  {workload:12s} {name:14s} median={s['median']:.5g} "
                      f"spread={s['spread']:.4f} bound={bound} "
                      f"{'steady' if s['steady'] else 'NOT below bound/3'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
