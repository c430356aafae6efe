"""Command-line surface.

Subcommands: fit, kmeans, tandem, select-dim, gen, bench-consistency,
bench-agreement, rate-bound. Exit codes: 0 success, 1 usage error, 2 data
error. Set RKM_LOG=debug or RKM_LOG=info for diagnostics on stderr. Every
command with a --seed produces byte-identical JSON on reruns (timing fields
aside). A JSON result echoes in its config every argument that shapes the
result; the output-routing flags (--output, --format, --emit-coords,
--truth) and --threads are left out.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import kmeans_fit, tandem_fit
from .datagen import (
    PRESETS,
    TABLE1_K,
    TABLE1_N,
    DatasetSpec,
    generate_dataset,
    normalize_columns,
)
from .errors import CsvParseError, DegenerateDataError
from .io import (
    ResultDocument,
    load_csv,
    load_labels_csv,
    matrix_payload,
    write_labels_csv,
    write_matrix_csv,
)
from .lab import (
    PopulationSpec,
    agreement_experiment,
    consistency_experiment,
    rate_bound,
)
from .metrics import adjusted_rand_index
from .selection import select_dimension
from .solver import SolverConfig, fit_rkm, project
from .types import Assignment, DataMatrix

log = logging.getLogger("rkm")

# four symmetric atoms whose optimal one-dimensional clustering is known in
# closed form; the default population for bench-consistency
DEMO_ATOMS = ((1.0, 0.1), (1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1))

# parsed arguments that only route output or change nothing; a result
# document's config echoes all the others
NOT_ECHOED = frozenset({"command", "func", "output", "format", "emit_coords", "truth", "threads"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _n_grid(text: str) -> tuple:
    try:
        grid = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}; expected e.g. 50,200,800")
    if not grid or any(n < 1 for n in grid):
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}; sizes must be >= 1")
    return grid


def _add_common(sub, *, dims=False, restarts=30):
    sub.add_argument("--input", required=True, help="CSV matrix to fit")
    sub.add_argument("--output", help="write the JSON result here (default stdout)")
    sub.add_argument("--clusters", type=_positive_int, required=True, metavar="K")
    if dims:
        sub.add_argument("--dims", type=_positive_int, required=True, metavar="Q")
    sub.add_argument("--restarts", type=_positive_int, default=restarts)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--normalize", action="store_true",
                     help="center and scale columns to unit variance first")
    sub.add_argument("--truth", help="labels CSV; adds ARI against it")
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="cap on worker parallelism; results do not depend on it")


def build_parser() -> _Parser:
    parser = _Parser(prog="rkm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rkm {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("fit", help="reduced k-means fit")
    _add_common(sub, dims=True)
    sub.add_argument("--emit-coords", action="store_true",
                     help="also write scores/centers/loading CSVs next to --output")
    sub.set_defaults(func=_cmd_fit)

    sub = commands.add_parser("kmeans", help="plain k-means fit")
    _add_common(sub)
    sub.set_defaults(func=_cmd_kmeans)

    sub = commands.add_parser("tandem", help="PCA then k-means on the scores")
    _add_common(sub, dims=True)
    sub.set_defaults(func=_cmd_tandem)

    sub = commands.add_parser("select-dim", help="variance-ratio dimension selection")
    _add_common(sub, restarts=50)
    sub.add_argument("--max-dims", type=_positive_int,
                     help="profile q = 1..MAX_DIMS (default min(K-1, p))")
    sub.set_defaults(func=_cmd_select_dim)

    sub = commands.add_parser("gen", help="generate a synthetic benchmark dataset")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named benchmark geometry (sets dims/p1/p2/p3)")
    sub.add_argument("--dims", type=_positive_int, help="true latent dimension")
    sub.add_argument("--p1", type=_positive_int, help="informative variables")
    sub.add_argument("--p2", type=int, help="correlated noise variables")
    sub.add_argument("--p3", type=int, help="independent noise variables")
    sub.add_argument("--clusters", type=_positive_int, default=TABLE1_K, metavar="K")
    sub.add_argument("--n", type=_positive_int, default=TABLE1_N)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", required=True, help="CSV path for the data matrix")
    sub.set_defaults(func=_cmd_gen)

    sub = commands.add_parser(
        "bench-consistency",
        help="replicated fits across sample sizes against the certified optimum",
    )
    sub.add_argument("--atoms", help="CSV of population support points (default: built-in demo)")
    sub.add_argument("--clusters", type=_positive_int, default=2, metavar="K")
    sub.add_argument("--dims", type=_positive_int, default=1, metavar="Q")
    sub.add_argument("--n-grid", type=_n_grid, default=(50, 200, 800, 3200))
    sub.add_argument("--reps", type=_positive_int, default=50)
    sub.add_argument("--restarts", type=_positive_int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", help="report path (default stdout, json only)")
    sub.add_argument("--threads", type=_positive_int, default=1)
    sub.set_defaults(func=_cmd_bench_consistency)

    sub = commands.add_parser(
        "bench-agreement", help="dimension-selection agreement rate on a preset"
    )
    sub.add_argument("--preset", choices=sorted(PRESETS), required=True)
    sub.add_argument("--reps", type=_positive_int, default=100)
    sub.add_argument("--restarts", type=_positive_int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", help="JSON report path (default stdout)")
    sub.add_argument("--threads", type=_positive_int, default=1)
    sub.set_defaults(func=_cmd_bench_agreement)

    sub = commands.add_parser("rate-bound", help="finite-sample deviation bound")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--clusters", type=_positive_int, required=True, metavar="K")
    sub.add_argument("--p", type=_positive_int, required=True)
    sub.add_argument("--radius", type=float, required=True, help="norm bound B")
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--output", help="JSON path (default: print to stdout)")
    sub.set_defaults(func=_cmd_rate_bound)

    return parser


def _load_input(args) -> tuple[DataMatrix, Assignment | None]:
    """The --input matrix, normalized if asked, and the --truth labels (None
    without --truth), both read and checked before anything is solved."""
    X = load_csv(args.input)
    log.info("loaded %dx%d matrix from %s", X.n, X.p, args.input)
    if args.normalize:
        X = normalize_columns(X)
        log.debug("normalized columns to zero mean, unit variance")
    if not args.truth:
        return X, None
    truth = load_labels_csv(args.truth)
    if truth.n != X.n:
        raise CsvParseError(f"truth has {truth.n} labels but the data has {X.n} rows")
    return X, truth


def _timed(fn, *args, **kwargs):
    """fn's result and the wall-clock timing block of the call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, {"seconds": time.perf_counter() - started}


def _emit(args, solution, timing=None, truth=None, assignment=None, **overrides) -> int:
    """Write the command's result document to --output, or to stdout, and
    return the exit code. Its metrics are the ARI of assignment against the
    --truth labels, if given. The config echoes every parsed argument but
    the NOT_ECHOED ones, then the overrides."""
    config = {key: value for key, value in vars(args).items() if key not in NOT_ECHOED}
    config.update(overrides)
    metrics = None if truth is None else {"ari": adjusted_rand_index(assignment, truth)}
    doc = ResultDocument(command=args.command, config=config, solution=solution,
                         metrics=metrics, timing=timing or {})
    if args.output:
        doc.write(args.output)
        log.info("wrote %s", args.output)
    else:
        sys.stdout.write(doc.to_json())
    return 0


def _log_fit(sol) -> None:
    """The RKM_LOG=info line of every fit: its loss, sweeps and winning restart."""
    log.info("fit loss %.6g after %d sweeps (restart %d)",
             sol.loss, sol.iterations, sol.restart_index)


def _kmeans_payload(km) -> dict:
    """A k-means fit's centers, labels and loss, as kmeans and tandem log and report them."""
    _log_fit(km)
    return {"centers": matrix_payload(km.centroids.values),
            "labels": [int(v) for v in km.assignment.labels], "loss": km.loss}


def _cmd_fit(args) -> int:
    if args.emit_coords and not args.output:
        raise UsageError("--emit-coords requires --output")
    X, truth = _load_input(args)
    config = SolverConfig(k=args.clusters, q=args.dims, restarts=args.restarts, seed=args.seed)
    sol, timing = _timed(fit_rkm, X, config)
    _log_fit(sol)
    _emit(args, {
        "loading": matrix_payload(sol.loading.values, order="column"),
        "centroids": matrix_payload(sol.centroids.values),
        "labels": [int(v) for v in sol.assignment.labels],
        "loss": sol.loss,
        "iterations": sol.iterations,
        "restart_index": sol.restart_index,
    }, timing, truth, sol.assignment)
    if args.emit_coords:
        scores, centers = project(X, sol)
        base = os.path.splitext(args.output)[0]
        write_matrix_csv(base + ".scores.csv", scores)
        write_matrix_csv(base + ".centers.csv", centers)
        write_matrix_csv(base + ".loading.csv", sol.loading.values)
        log.info("wrote coordinate files %s.{scores,centers,loading}.csv", base)
    return 0


def _cmd_kmeans(args) -> int:
    X, truth = _load_input(args)
    km, timing = _timed(kmeans_fit, X, args.clusters, restarts=args.restarts, seed=args.seed)
    return _emit(args, _kmeans_payload(km), timing, truth, km.assignment)


def _cmd_tandem(args) -> int:
    X, truth = _load_input(args)
    (loading, km), timing = _timed(tandem_fit, X, args.clusters, args.dims,
                                   restarts=args.restarts, seed=args.seed)
    solution = {"loading": matrix_payload(loading.values, order="column"), **_kmeans_payload(km)}
    return _emit(args, solution, timing, truth, km.assignment)


def _cmd_select_dim(args) -> int:
    X, truth = _load_input(args)
    profile, timing = _timed(
        select_dimension, X, args.clusters, args.max_dims, args.restarts, args.seed
    )
    best = profile.solutions[profile.q_hat - 1]
    return _emit(args, {
        "vr": {str(q): v for q, v in sorted(profile.vr.items())},
        "delta2": {str(q): v for q, v in sorted(profile.delta2.items())},
        "q_hat": profile.q_hat,
    }, timing, truth, best.assignment, max_dims=profile.q_max)


def _cmd_gen(args) -> int:
    explicit = (args.dims, args.p1, args.p2, args.p3)
    if args.preset:
        if any(v is not None for v in explicit):
            raise UsageError("--preset sets the geometry; drop --dims/--p1/--p2/--p3")
        geometry = dict(PRESETS[args.preset])
    else:
        if any(v is None for v in explicit):
            raise UsageError("gen needs --preset or all of --dims/--p1/--p2/--p3")
        geometry = dict(q=args.dims, p1=args.p1, p2=args.p2, p3=args.p3)
    spec = DatasetSpec(K=args.clusters, n=args.n, seed=args.seed, **geometry)
    dataset = generate_dataset(spec)
    write_matrix_csv(args.output, dataset.X.values)
    labels_path = os.path.splitext(args.output)[0] + ".labels.csv"
    write_labels_csv(labels_path, dataset.labels.labels)
    log.info("wrote %dx%d matrix to %s and truth labels to %s",
             dataset.X.n, dataset.X.p, args.output, labels_path)
    return 0


def _cmd_bench_consistency(args) -> int:
    if args.format == "csv" and not args.output:
        raise UsageError("--format csv requires --output")
    atoms = load_csv(args.atoms).values if args.atoms else np.array(DEMO_ATOMS)
    pop = PopulationSpec(atoms, np.full(len(atoms), 1.0 / len(atoms)))
    report, timing = _timed(
        consistency_experiment, pop, args.clusters, args.dims, args.n_grid, args.reps,
        restarts=args.restarts, seed=args.seed,
    )
    if args.format == "csv":
        report.write_csv(args.output)
        log.info("wrote %s", args.output)
        return 0
    return _emit(args, {"report": report.to_json_dict(), "summary": report.summary()},
                 timing, atoms=args.atoms or "demo")


def _cmd_bench_agreement(args) -> int:
    geometry = PRESETS[args.preset]
    results, timing = _timed(
        agreement_experiment,
        [(geometry["q"], geometry["p1"], geometry["p2"], geometry["p3"])],
        reps=args.reps,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = results[0]
    return _emit(args, {
        "setting": list(result.setting),
        "reps": result.reps,
        "hits": result.hits,
        "rate": result.rate,
        "picks": [list(pair) for pair in result.picks],
    }, timing)


def _cmd_rate_bound(args) -> int:
    result = rate_bound(args.n, args.clusters, args.p, args.radius, args.epsilon)
    if args.output:
        # a raw bound past the largest double has no JSON number
        raw = None if result.raw == float("inf") else result.raw
        return _emit(args, {"bound": result.bound, "raw": raw})
    sys.stdout.write(f"bound: {result.bound}\nraw: {result.raw}\n")
    return 0


def _configure_logging() -> None:
    level = os.environ.get("RKM_LOG", "").strip().lower()
    if level in ("debug", "info"):
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (CsvParseError, DegenerateDataError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
