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
    ("tandem-truth", "tandem --input data.csv --clusters 8 --dims 2 --restarts 4"
                     " --truth data.labels.csv"),
    ("tandem-output", "tandem --input wide.csv --clusters 8 --dims 3 --normalize"
                      " --output tandem.json"),
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
]

TIMING = re.compile(rb'("timing":\s*)\{[^{}]*\}')


def write_fixtures(work: str) -> None:
    """Inputs no rkm command makes: label files of the wrong kinds, data
    files that only the csv.reader walk reads or refuses, and two atom sets
    for bench-consistency."""
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
    put("atoms8.csv", [f"{i - 3.5},{(-1) ** i * 0.25 * (i % 3)}" for i in range(8)])


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
