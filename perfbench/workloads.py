"""The benchmark's workloads: inputs, the rkm commands of one op, and the
checks each op's output must pass.

Every op is one or more real ``rkm`` command lines run through
``rkmeans.cli.main``. Inputs derive from the workload seed only; op ``i`` uses
prepared input ``i % INPUTS`` and an op seed derived from (workload seed, i),
so op ``i`` runs the same command lines on every commit.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import os

import numpy as np

from rkmeans import (
    Assignment,
    CentroidSet,
    ConvergenceReport,
    DataMatrix,
    LoadingMatrix,
    ORTHONORMALITY_TOL,
    adjusted_rand_index,
    assigned_objective,
    cli,
    io as rkm_io,
    normalize_columns,
    rkm_objective,
)
from rkmeans.io import matrix_from_payload

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def op_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def run_command(argv: list[str]) -> tuple[int, str]:
    """One rkm command in-process; returns its exit code and its stdout."""
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def canonical_digest(texts: list[str], files: list[str] = ()) -> str:
    """sha256 of the JSON documents with their timing block removed, followed
    by the bytes of any extra output files."""
    h = hashlib.sha256()
    for text in texts:
        doc = json.loads(text)
        doc.pop("timing", None)
        h.update(json.dumps(doc, sort_keys=True, indent=2).encode())
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Workload:
    name = ""
    why = ""
    # input sets prepared per run; set-up time is reported as their median
    INPUTS = 1

    def __init__(self, seed: int, threads: int, workdir: str):
        self.seed = seed
        self.threads = str(threads)
        self.workdir = workdir

    def prepare(self, j: int) -> None:
        """Make input set j (files under workdir)."""

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, i: int, stdouts: list[str]) -> tuple[list[str], list[str]]:
        """The JSON texts and extra files op i produced."""
        return stdouts, []

    def check(self, i: int, texts: list[str]) -> dict:
        """Raise CheckFailed unless op i's output is right; return its
        quality figures."""
        raise NotImplementedError


class Agreement(Workload):
    name = "agreement"
    why = ("criterion-7 shape: 2 reps x q=1..7 x 50 restarts of ALS at n=400, p=15, "
           "k=8; Python per-call overhead bound, no CSV, no oracle")

    def commands(self, i):
        return [["bench-agreement", "--preset", "table1-q2p5", "--reps", "2",
                 "--restarts", "50", "--seed", str(op_seed(self.seed, i)),
                 "--threads", self.threads]]

    def check(self, i, texts):
        sol = json.loads(texts[0])["solution"]
        picks = sol["picks"]
        _expect(sol["reps"] == 2 and len(picks) == 2, f"expected 2 reps, got {sol['reps']}")
        _expect(all(1 <= q <= 7 for pair in picks for q in pair), f"pick outside 1..7: {picks}")
        hits = sum(int(a == b) for a, b in picks)
        _expect(sol["hits"] == hits, f"hits {sol['hits']} but picks agree {hits} times")
        _expect(sol["rate"] == hits / sol["reps"], f"rate {sol['rate']} != {hits}/{sol['reps']}")
        return {"hits": hits, "reps": sol["reps"]}


class Bigfit(Workload):
    name = "bigfit"
    why = ("rkm fit + tandem on generated 20000 x 15 CSVs (2.4 MB working set, above "
           "L2, below LLC): numpy-throughput bound, CSV parsing, large JSON and CSV writes")
    N = 20_000
    # convergence speed varies from dataset to dataset, so a run prepares
    # about one dataset per op and its op times average over them
    INPUTS = 12
    _parsed = (None, None, None)

    def _data(self, j):
        return os.path.join(self.workdir, f"data{j}.csv")

    def _truth(self, j):
        return os.path.join(self.workdir, f"data{j}.labels.csv")

    def _opdir(self, i):
        return os.path.join(self.workdir, f"op{i}")

    def prepare(self, j):
        rc, _ = run_command(["gen", "--preset", "table1-q2p5", "--n", str(self.N),
                             "--seed", str(op_seed(self.seed, j)), "--output", self._data(j)])
        if rc != 0:
            raise RuntimeError(f"rkm gen exited {rc}")

    def commands(self, i):
        j = i % self.INPUTS
        os.makedirs(self._opdir(i), exist_ok=True)
        common = ["--input", self._data(j), "--clusters", "8", "--dims", "2", "--normalize",
                  "--restarts", "3", "--seed", str(op_seed(self.seed, i)),
                  "--truth", self._truth(j), "--threads", self.threads]
        return [["fit", *common, "--emit-coords",
                 "--output", os.path.join(self._opdir(i), "fit.json")],
                ["tandem", *common]]

    def outputs(self, i, stdouts):
        base = os.path.join(self._opdir(i), "fit")
        with open(base + ".json") as fh:
            fit_text = fh.read()
        coords = [f"{base}.{part}.csv" for part in ("scores", "centers", "loading")]
        return [fit_text, stdouts[1]], coords

    def _inputs(self, j):
        # parsed independently of rkmeans.io, so the CSV round trip is checked too
        if self._parsed[0] != j:
            X = normalize_columns(DataMatrix(np.loadtxt(self._data(j), delimiter=",", ndmin=2)))
            truth = np.loadtxt(self._truth(j), delimiter=",", skiprows=1, dtype=np.int64)
            self._parsed = (j, X, Assignment(truth, int(truth.max()) + 1))
        return self._parsed[1:]

    def check(self, i, texts):
        X, truth = self._inputs(i % self.INPUTS)
        fit, tandem = (json.loads(t) for t in texts)

        sol = fit["solution"]
        A = matrix_from_payload(sol["loading"])
        F = matrix_from_payload(sol["centroids"])
        labels = np.asarray(sol["labels"], dtype=np.int64)
        _expect(np.max(np.abs(A.T @ A - np.eye(A.shape[1]))) <= ORTHONORMALITY_TOL,
                "fit loading is not orthonormal")
        y = X.values @ A
        d = np.sum((y[:, None, :] - F[None, :, :]) ** 2, axis=2)
        nearest = d.min(axis=1)
        _expect(np.all(d[np.arange(X.n), labels] <= nearest + REL_TOL * (1.0 + nearest)),
                "fit labels are not the nearest-centroid argmin")
        assignment = Assignment(labels, F.shape[0])
        assigned = assigned_objective(X, LoadingMatrix(A), CentroidSet(F), assignment)
        objective = rkm_objective(X, LoadingMatrix(A), CentroidSet(F))
        _expect(_rel_close(sol["loss"], assigned) and _rel_close(sol["loss"], objective),
                f"fit loss {sol['loss']!r} vs assigned {assigned!r}, objective {objective!r}")
        ari = adjusted_rand_index(assignment, truth)
        _expect(fit["metrics"]["ari"] == ari, f"fit ARI {fit['metrics']['ari']!r} != {ari!r}")

        sol = tandem["solution"]
        A = matrix_from_payload(sol["loading"])
        C = matrix_from_payload(sol["centers"])
        labels = np.asarray(sol["labels"], dtype=np.int64)
        _expect(np.max(np.abs(A.T @ A - np.eye(A.shape[1]))) <= ORTHONORMALITY_TOL,
                "tandem loading is not orthonormal")
        scores = (X.values - X.values.mean(axis=0)) @ A
        d = np.sum((scores[:, None, :] - C[None, :, :]) ** 2, axis=2)
        loss = float(d[np.arange(X.n), labels].sum() / X.n)
        _expect(_rel_close(sol["loss"], loss), f"tandem loss {sol['loss']!r} vs {loss!r}")
        tandem_ari = adjusted_rand_index(Assignment(labels, C.shape[0]), truth)
        _expect(tandem["metrics"]["ari"] == tandem_ari,
                f"tandem ARI {tandem['metrics']['ari']!r} != {tandem_ari!r}")
        return {"ari": ari}


class Consistency(Workload):
    name = "consistency"
    why = ("only workload with the angle-grid oracle and the 1-D DPs; 200 fits at "
           "p=2, q=1, k=2, a solver shape unlike agreement")
    ATOMS = 200
    INPUTS = 3

    def _atoms(self, j):
        return os.path.join(self.workdir, f"atoms{j}.csv")

    def prepare(self, j):
        # criterion 5's two-Gaussian mixture, 100 draws from each component
        rng = np.random.default_rng([self.seed, j])
        half = self.ATOMS // 2
        atoms = np.vstack([rng.normal((2.0, 0.5), 0.4, (half, 2)),
                           rng.normal((-2.0, -0.5), 0.4, (half, 2))])
        rkm_io.write_matrix_csv(self._atoms(j), atoms)

    def commands(self, i):
        return [["bench-consistency", "--atoms", self._atoms(i % self.INPUTS), "--clusters", "2",
                 "--dims", "1", "--n-grid", "50,200,800,3200", "--reps", "50",
                 "--restarts", "20", "--seed", str(op_seed(self.seed, i)),
                 "--threads", self.threads]]

    def check(self, i, texts):
        report = json.loads(texts[0])["solution"]["report"]
        _expect(report["n_grid"] == [50, 200, 800, 3200], f"n_grid {report['n_grid']}")
        for block in ("losses", "distances", "vr_values", "population_risks"):
            _expect(all(len(v) == 50 for v in report[block].values()), f"{block} lacks 50 reps")
        nan = float("nan")
        try:
            ConvergenceReport(
                n_grid=report["n_grid"],
                losses=report["losses"],
                distances=report["distances"],
                vr_values={n: [nan if v is None else v for v in vals]
                           for n, vals in report["vr_values"].items()},
                population_risks=report["population_risks"],
                oracle_loss=report["oracle_loss"],
                oracle_vr=report["oracle_vr"],
                oracle_gap=report["oracle_gap"],
            )
        except ValueError as exc:
            raise CheckFailed(f"report rejected: {exc}")
        return {}


WORKLOADS = {w.name: w for w in (Agreement, Bigfit, Consistency)}
