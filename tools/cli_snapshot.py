"""Snapshot the rkm command line for a byte-identity check.

    python tools/cli_snapshot.py --src path/to/src OUT
    diff -r OUT_BEFORE OUT_AFTER

Runs a fixed list of rkm command lines (every subcommand, their usage and
data errors, and --help of each) with ``python -m rkmeans`` importing the
package from --src, in sequence, in a fresh working directory. For each
command it writes OUT/NN-name/ holding the command line, the exit code,
stdout, stderr and every file the command created or changed. The contents
of each JSON document's "timing" block are removed, so two snapshots of the
same behaviour are equal byte for byte and ``diff -r`` shows any change.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

# (name, argv, extra environment); later commands read what earlier ones wrote
COMMANDS = [
    ("gen-preset", "gen --preset table1-q2p5 --n 120 --seed 3 --output data.csv"),
    ("gen-preset-wide", "gen --preset table1-q3p10 --n 60 --seed 4 --output wide.csv"),
    ("gen-geometry", "gen --dims 2 --p1 3 --p2 1 --p3 0 --clusters 3 --n 50 --seed 5"
                     " --output small.csv"),
    ("gen-preset-and-geometry", "gen --preset table1-q2p5 --dims 2 --output bad.csv"),
    ("gen-partial-geometry", "gen --dims 2 --p1 3 --output bad.csv"),
    ("fit-truth", "fit --input data.csv --clusters 8 --dims 2 --restarts 5 --seed 1"
                  " --truth data.labels.csv"),
    ("fit-sparse-truth", "fit --input data.csv --clusters 8 --dims 2 --restarts 3"
                         " --truth sparse.labels.csv"),
    ("fit-normalize", "fit --input data.csv --clusters 8 --dims 2 --restarts 3 --normalize"
                      " --output fit.json"),
    ("fit-emit-coords", "fit --input data.csv --clusters 8 --dims 2 --restarts 3 --normalize"
                        " --emit-coords --output coords.json"),
    ("fit-emit-coords-no-output", "fit --input small.csv --clusters 3 --dims 1 --emit-coords"),
    ("fit-threads", "fit --input small.csv --clusters 3 --dims 1 --threads 2"),
    ("fit-k12-q1", "fit --input data.csv --clusters 12 --dims 1 --restarts 4"),
    ("fit-k-over-n", "fit --input small.csv --clusters 60 --dims 1"),
    ("fit-q-over-p", "fit --input small.csv --clusters 3 --dims 9"),
    ("fit-missing-file", "fit --input missing.csv --clusters 2 --dims 1"),
    ("fit-short-truth", "fit --input data.csv --clusters 8 --dims 2 --truth short.labels.csv"),
    ("fit-quoted-csv", "fit --input quoted.csv --clusters 2 --dims 1 --restarts 2"),
    ("fit-ragged-csv", "fit --input ragged.csv --clusters 2 --dims 1"),
    ("fit-bad-cell", "fit --input badcell.csv --clusters 2 --dims 1"),
    ("fit-fractional-truth", "fit --input quoted.csv --clusters 2 --dims 1"
                             " --truth fractional.labels.csv"),
    ("kmeans-truth", "kmeans --input data.csv --clusters 8 --restarts 4"
                     " --truth data.labels.csv"),
    ("kmeans-output", "kmeans --input small.csv --clusters 3 --normalize --output km.json"),
    ("kmeans-truth-output", "kmeans --input data.csv --clusters 8 --restarts 3"
                            " --truth data.labels.csv --output km-truth.json"),
    ("tandem-truth", "tandem --input data.csv --clusters 8 --dims 2 --restarts 4"
                     " --truth data.labels.csv"),
    ("tandem-output", "tandem --input wide.csv --clusters 8 --dims 3 --normalize"
                      " --output tandem.json"),
    ("tandem-truth-output", "tandem --input data.csv --clusters 8 --dims 2 --restarts 3"
                            " --truth data.labels.csv --output tandem-truth.json"),
    ("select-dim", "select-dim --input small.csv --clusters 4 --restarts 3 --normalize"),
    ("select-dim-max-dims", "select-dim --input data.csv --clusters 8 --max-dims 3"
                            " --restarts 3 --truth data.labels.csv"),
    ("consistency-json", "bench-consistency --n-grid 20,40 --reps 2 --restarts 3 --seed 2"),
    ("consistency-csv", "bench-consistency --n-grid 20,40 --reps 2 --restarts 3"
                        " --format csv --output cons.csv"),
    ("consistency-atoms5", "bench-consistency --atoms atoms5.csv --n-grid 30 --reps 2"
                           " --restarts 3 --output cons.json"),
    ("consistency-atoms8", "bench-consistency --atoms atoms8.csv --n-grid 25,50 --reps 2"
                           " --restarts 2"),
    ("consistency-q2", "bench-consistency --dims 2 --n-grid 20 --reps 1"),
    ("consistency-repeated-n", "bench-consistency --n-grid 20,20 --reps 1"),
    ("consistency-csv-no-output", "bench-consistency --format csv --n-grid 20 --reps 1"),
    ("agreement-q2p5", "bench-agreement --preset table1-q2p5 --reps 1 --restarts 2 --seed 3"),
    ("agreement-q3p5", "bench-agreement --preset table1-q3p5 --reps 1 --restarts 2"
                       " --output agree.json"),
    ("agreement-log-info", "bench-agreement --preset table1-q2p5 --reps 1 --restarts 2"
                           " --output agree-logged.json", {"RKM_LOG": "info"}),
    ("rate-bound", "rate-bound --n 1000 --clusters 3 --p 2 --radius 1 --epsilon 0.5"),
    ("rate-bound-output", "rate-bound --n 1000 --clusters 3 --p 2 --radius 1 --epsilon 0.5"
                          " --output rate.json"),
    ("rate-bound-bad-epsilon", "rate-bound --n 10 --clusters 3 --p 2 --radius 1 --epsilon -1"),
    ("unknown-command", "frobnicate"),
    ("no-command", ""),
    ("log-info", "fit --input small.csv --clusters 3 --dims 2 --restarts 2"
                 " --output logged.json", {"RKM_LOG": "info"}),
    ("version", "--version"),
    ("help", "--help"),
    *[(f"help-{sub}", f"{sub} --help")
      for sub in ("fit", "kmeans", "tandem", "select-dim", "gen", "bench-consistency",
                  "bench-agreement", "rate-bound")],
    # the demo atoms past the range of their squares: 2^511 keeps every loss
    # a double, 1e160 does not
    ("consistency-atoms-2p511", "bench-consistency --atoms atoms-2p511.csv --n-grid 20,40"
                                " --reps 2 --restarts 2"),
    ("consistency-atoms-1e160", "bench-consistency --atoms atoms-1e160.csv --n-grid 20"
                                " --reps 1"),
    # a losing restart's first sweeps cost past the largest double, the winner's
    # final loss does not
    ("fit-demo-2p513", "fit --input demo-2p513.csv --clusters 2 --dims 1 --restarts 10"),
    # the demo atoms so small that every optimal loss is below the smallest
    # double: the oracle names the underflow
    ("consistency-atoms-1e-170", "bench-consistency --atoms atoms-1e-170.csv --n-grid 20"
                                 " --reps 1"),
    # a fit whose loss is below the smallest double names the underflow too
    ("fit-demo-1e-170", "fit --input demo-1e-170.csv --clusters 2 --dims 1 --restarts 3"),
    ("kmeans-log-info", "kmeans --input small.csv --clusters 3 --restarts 2"
                        " --output km-logged.json", {"RKM_LOG": "info"}),
    # three distinct points for four clusters: every restart's finalize
    # leaves a cluster empty under the argmin and takes the repair fallback
    ("fit-dup-points", "fit --input dup.csv --clusters 4 --dims 1 --restarts 6"),
    ("kmeans-dup-points", "kmeans --input dup.csv --clusters 4 --restarts 6"),
    # three atoms for three clusters: a draw that holds all three fits them
    # with their counts, one that misses an atom fits its n rows unweighted
    ("consistency-atoms3-k3", "bench-consistency --atoms atoms3.csv --clusters 3"
                              " --n-grid 3,4"),
    # one atom: no rep has a variance ratio, so the summary's vr is null
    ("consistency-one-atom", "bench-consistency --atoms one.csv --clusters 1 --n-grid 5"
                             " --reps 2 --restarts 2"),
    # a raw bound past the largest double: null in the JSON
    ("rate-bound-raw-inf", "rate-bound --n 100 --clusters 100 --p 10 --radius 1 --epsilon 1.2"
                           " --output rb.json"),
    # many reps per n: each n's reps fit in one engine run over the eight
    # atoms, the draws of n = 8 with zero counts among them
    ("consistency-many-reps", "bench-consistency --atoms atoms8.csv --n-grid 8,25,200 --reps 12"
                              " --restarts 3 --seed 9"),
    # 400 rows at k = 8: 50 restarts run as two lockstep batches of 25
    ("gen-preset-n400", "gen --preset table1-q2p5 --n 400 --seed 6 --output big.csv"),
    ("fit-two-batches", "fit --input big.csv --clusters 8 --dims 2 --restarts 50"),
    ("kmeans-two-batches", "kmeans --input big.csv --clusters 8 --restarts 50"),
    # 1,700 atoms at k = 2: each n's 2 x 40 restarts run as three batches,
    # the first and the last inside one rep, the middle one across both
    ("gen-atoms1700", "gen --dims 1 --p1 2 --p2 0 --p3 0 --clusters 2 --n 1700 --seed 7"
                      " --output atoms1700.csv"),
    ("consistency-atoms1700", "bench-consistency --atoms atoms1700.csv --n-grid 60,400 --reps 2"
                              " --restarts 40"),
]

# numpy's default_rng(0).integers(0, 4, 40): which demo atom each row of
# demo-2p513.csv and demo-1e-170.csv is
DEMO_DRAWS = "3221100003232232222313201320323003020111"

TIMING = re.compile(rb'("timing":\s*)\{[^{}]*\}')


def write_fixtures(work: str) -> None:
    """Inputs no rkm command makes: label files of the wrong kinds, data
    files that only the csv.reader walk reads or refuses, seven atom sets
    for bench-consistency, 40 draws of its demo atoms times 2^513 and
    times 1e-170, and 12 rows of three distinct points."""
    def put(name, lines):
        with open(os.path.join(work, name), "w", newline="") as fh:
            fh.write("".join(line + "\n" for line in lines))

    put("sparse.labels.csv", ["label", *(str(997 * (i % 8) + 5) for i in range(120))])
    put("short.labels.csv", ["label", *(str(i % 8) for i in range(7))])
    put("fractional.labels.csv", ["label", "0", "1.5", "1", "0", "1"])
    put("quoted.csv", ['"x","y"', '"1.5",2', '3,"-0.5"', "", '4,4.25', '"-2",1', "0.25,-3"])
    put("ragged.csv", ["1,2", "3,4,5", "6,7"])
    put("badcell.csv", ["1,2", "3,x", "6,7"])
    put("atoms5.csv", ["x,y", "-2,0.5", "-1,-0.3", "0.2,0.1", "1.4,0.6", "2.5,-0.4"])
    put("atoms3.csv", ["x,y", "-2,0.5", "0.2,0.1", "2.5,-0.4"])
    put("one.csv", ["x,y", "1,0.5"])
    put("atoms8.csv", [f"{i - 3.5},{(-1) ** i * 0.25 * (i % 3)}" for i in range(8)])
    demo = ((1.0, 0.1), (1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1))  # bench-consistency's own
    for name, scale in (("2p511", 2.0**511), ("1e160", 1e160), ("1e-170", 1e-170)):
        put(f"atoms-{name}.csv", ["x,y", *(f"{x * scale!r},{y * scale!r}" for x, y in demo)])
    draws = [demo[int(i)] for i in DEMO_DRAWS]
    for name, scale in (("2p513", 2.0**513), ("1e-170", 1e-170)):
        put(f"demo-{name}.csv", ["x,y", *(f"{x * scale!r},{y * scale!r}" for x, y in draws)])
    put("dup.csv", ["x,y", *(("1,0", "0,2", "-1,-1") * 4)])


def contents(work: str) -> dict:
    found = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            found[name] = fh.read()
    return found


def untimed(data: bytes) -> bytes:
    return TIMING.sub(rb"\1{}", data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the rkmeans package")
    parser.add_argument("out", help="snapshot directory to create (must not exist)")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    os.makedirs(out)
    env = {key: value for key, value in os.environ.items() if key != "RKM_LOG"}
    env.update(PYTHONPATH=os.path.abspath(args.src), OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        write_fixtures(work)
        for index, (name, line, *extra) in enumerate(COMMANDS, start=1):
            before = contents(work)
            run = subprocess.run([sys.executable, "-m", "rkmeans", *line.split()],
                                 cwd=work, env={**env, **(extra[0] if extra else {})},
                                 capture_output=True)
            target = os.path.join(out, f"{index:02d}-{name}")
            os.makedirs(target)
            results = {"argv": f"rkm {line}\n".encode(), "exit": f"{run.returncode}\n".encode(),
                       "stdout": untimed(run.stdout), "stderr": run.stderr}
            for part, data in results.items():
                with open(os.path.join(target, part), "wb") as fh:
                    fh.write(data)
            for file_name, data in contents(work).items():
                if before.get(file_name) == data:
                    continue
                os.makedirs(os.path.join(target, "files"), exist_ok=True)
                with open(os.path.join(target, "files", file_name), "wb") as fh:
                    fh.write(untimed(data) if file_name.endswith(".json") else data)
            print(f"{index:02d} exit {run.returncode}  rkm {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
