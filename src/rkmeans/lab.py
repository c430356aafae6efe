"""Empirical consistency laboratory.

Small, certified experiments that check the estimator's large-sample behavior
at desk scale:

* a brute-force global-optimum oracle for two-dimensional data projected to a
  line (``ANGLE_GRID`` directions x exact 1-D k-means), with a certified
  optimality gap,
* replicated sampling experiments that track the fitted loss, the aligned
  parameter distance to the population optimum, and the variance-ratio
  statistic across a grid of sample sizes; a sample's objective is the
  count-weighted objective over the population's atoms at its draw
  counts, so each sample is fit on the atoms with those counts, and one
  engine run serves all reps of a sample size (the full draw is fit where
  it has fewer distinct atoms than clusters),
* dimension-selection agreement rates on the synthetic benchmark (Table 1),
* the finite-sample deviation-probability bound.

Every replication derives its own RNG stream from (seed, n, rep), so reports
are independent of scheduling and reproducible bit for bit.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._seeds import check_seed, spawn_batches, spawn_seed
from .baselines import kmeans_1d_dp, kmeans_1d_exact, weighted_prefix_sums
from .datagen import TABLE1_K, TABLE1_N, DatasetSpec, generate_dataset
from .errors import DegenerateDataError
from .metrics import adjusted_rand_index, param_distance
from .selection import select_dimension
from .solver import SolverConfig, _fit_samples, fit_rkm
from .types import CentroidSet, DataMatrix, LoadingMatrix, RkmSolution

# directions the oracle searches, evenly spaced over [0, pi)
ANGLE_GRID = 2000


@dataclass(frozen=True)
class PopulationSpec:
    """Finitely supported population: m support points in R^p with
    probabilities summing to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError(f"atoms must be a non-empty 2-D matrix, got {atoms.shape}")
        if weights.shape != (atoms.shape[0],):
            raise ValueError("weights must be a vector with one entry per atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms contain NaN or Inf entries")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain NaN or Inf entries")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class OracleSolution:
    """Certified near-global optimum from the angle-grid search, along the unit
    direction at angle: the loss is within grid_gap of the true global optimum."""

    loss: float
    centroids: CentroidSet
    angle: float
    grid_gap: float

    @property
    def loading(self) -> LoadingMatrix:
        return LoadingMatrix(np.array([[math.cos(self.angle)], [math.sin(self.angle)]]))


def _as_atoms(target) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(target, PopulationSpec):
        return np.asarray(target.atoms), np.asarray(target.weights)
    if isinstance(target, DataMatrix):
        n = target.n
        return np.asarray(target.values), np.full(n, 1.0 / n)
    raise TypeError(f"expected DataMatrix or PopulationSpec, got {type(target).__name__}")


def oracle_global_min(target, k: int) -> OracleSolution:
    """Global minimum of the k-cluster line-projection loss for 2-D data, by
    exhaustive search over ANGLE_GRID directions in [0, pi) with the 1-D
    subproblem solved exactly at every angle.

    The loss is 2R^2-Lipschitz in the angle (R = largest point norm), so the
    best grid value is within grid_gap = 2 R^2 pi / ANGLE_GRID of the true
    optimum over all directions. The search runs at ``_kernels.in_range``'s
    scale of the points; the loss, the gap and the centroids are scaled back.
    A positive loss that scales back to 0.0 is a ValueError, not a fit.
    """
    atoms, weights = _as_atoms(target)
    if atoms.shape[1] != 2:
        raise ValueError(f"the oracle is restricted to p=2, got p={atoms.shape[1]}")
    k = int(k)
    m = atoms.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m} points, got k={k}")

    atoms, e = _kernels.in_range(atoms)
    angles = np.linspace(0.0, np.pi, ANGLE_GRID, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # all projections at once: row g holds the m projected values at angle g
    t = dirs @ atoms.T
    order = np.argsort(t, axis=1, kind="stable")
    ts = np.take_along_axis(t, order, axis=1)
    ws = weights[order]
    del t, order  # free the unsorted grid before the DP's temporaries
    # the exact 1-D loss at every angle at once, per unit weight
    prefix = weighted_prefix_sums(ts, ws)
    within = kmeans_1d_dp(prefix, k)[0] / prefix[0][:, -1]

    sq_norms = float(weights @ np.sum(atoms * atoms, axis=1))
    proj_var = (ws * ts * ts).sum(axis=1)
    losses = (sq_norms - proj_var) + within
    g_best = int(losses.argmin())

    km = kmeans_1d_exact(ts[g_best], k, weights=ws[g_best])
    radius = float(np.sqrt(np.sum(atoms * atoms, axis=1).max()))
    gap = 2.0 * radius * radius * np.pi / ANGLE_GRID
    return OracleSolution(
        loss=_kernels.reported_loss(float(losses[g_best]), e, atoms),
        centroids=CentroidSet(np.ldexp(km.centroids.values, e)),
        angle=float(angles[g_best]),
        grid_gap=_kernels.scaled_loss(gap, e, atoms),
    )


# the per-rep records of a ConvergenceReport: (field, label in the summary
# and the CSV columns)
_RECORDS = (
    ("losses", "loss"),
    ("distances", "distance"),
    ("vr_values", "vr"),
    ("population_risks", "population_risk"),
)


@dataclass(frozen=True)
class ConvergenceReport:
    """Replicated experiment record: per sample size n, one value per rep of
    the fitted loss, the aligned parameter distance to the population
    optimum, the variance-ratio statistic, and the exact population risk of
    the fitted parameters; plus the oracle's population values."""

    n_grid: tuple
    losses: dict
    distances: dict
    vr_values: dict
    population_risks: dict
    oracle_loss: float
    oracle_vr: float | None
    oracle_gap: float

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        for name, _ in _RECORDS:
            block = getattr(self, name)
            cleaned = {int(n): tuple(float(v) for v in vals) for n, vals in block.items()}
            if sorted(cleaned) != sorted(self.n_grid):
                raise ValueError(f"{name} must be keyed exactly by n_grid")
            object.__setattr__(self, name, cleaned)
        for n, vals in self.losses.items():
            if any(v < 0 for v in vals):
                raise ValueError(f"negative loss recorded at n={n}")
        floor = self.oracle_loss - self.oracle_gap - 1e-9
        for n, vals in self.population_risks.items():
            bad = [v for v in vals if not math.isnan(v) and v < floor]
            if bad:
                raise ValueError(
                    f"population risk {min(bad)} at n={n} undercuts the "
                    f"certified optimum {self.oracle_loss} - gap {self.oracle_gap}"
                )

    def reps(self, n: int) -> int:
        return len(self.losses[int(n)])

    def median(self, field: str, n: int) -> float:
        """The median of a record's reps at n, NaN ones left out; NaN if all are."""
        values = np.asarray(getattr(self, field)[int(n)])
        return math.nan if np.isnan(values).all() else float(np.nanmedian(values))

    def iqr(self, field: str, n: int) -> float:
        """The interquartile range of a record's reps at n, as median's."""
        values = np.asarray(getattr(self, field)[int(n)])
        if np.isnan(values).all():
            return math.nan
        q1, q3 = np.nanquantile(values, [0.25, 0.75])
        return float(q3 - q1)

    def summary(self) -> dict:
        """Each record's median and iqr per n; a NaN one is None."""
        def stat(value):
            return None if math.isnan(value) else value

        return {
            label: {
                n: {"median": stat(self.median(field, n)), "iqr": stat(self.iqr(field, n))}
                for n in self.n_grid
            }
            for field, label in _RECORDS
        }

    def to_json_dict(self) -> dict:
        def block(field):
            return {
                str(n): [None if math.isnan(v) else v for v in vals]
                for n, vals in getattr(self, field).items()
            }

        return {
            "n_grid": list(self.n_grid),
            **{field: block(field) for field, _ in _RECORDS},
            "oracle_loss": self.oracle_loss,
            "oracle_vr": self.oracle_vr,
            "oracle_gap": self.oracle_gap,
        }

    def to_csv_rows(self) -> list:
        """Flat rows, one per (n, rep), for external plotting; a NaN is an
        empty cell."""
        rows = [["n", "rep", *(label for _, label in _RECORDS)]]
        for n in self.n_grid:
            for r in range(self.reps(n)):
                values = (getattr(self, field)[n][r] for field, _ in _RECORDS)
                rows.append([n, r, *("" if math.isnan(v) else repr(v) for v in values)])
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(self.to_csv_rows())


def population_risk(pop: PopulationSpec, A: LoadingMatrix, F: CentroidSet) -> float:
    """Exact population loss of the parameters: the weighted mean over atoms
    of the squared distance to the nearest subspace centroid:
    ``_kernels.weighted_loss`` of the atoms at their probabilities."""
    if A.p != pop.p:
        raise ValueError(f"loading has p={A.p} but population has p={pop.p}")
    if A.q != F.q:
        raise ValueError(f"loading has q={A.q} but centroids have q={F.q}")
    return _kernels.weighted_loss(pop.atoms, pop.weights, A.values, F.values)


def check_distinctness(pop: PopulationSpec, k: int) -> tuple:
    """Oracle solutions for 1..k clusters; raises unless their losses
    strictly decrease.

    A population whose optimal loss does not strictly improve with every
    added cluster violates the premise of the consistency statements.
    """
    k = int(k)
    if not 1 <= k <= pop.m:
        raise ValueError(f"need 1 <= k <= {pop.m} points, got k={k}")
    optima = tuple(oracle_global_min(pop, j) for j in range(1, k + 1))
    losses = [opt.loss for opt in optima]
    for j in range(1, len(losses)):
        if not losses[j] < losses[j - 1]:
            raise DegenerateDataError(
                f"optimal losses are not strictly decreasing in the cluster "
                f"count: m_{j}={losses[j - 1]!r} vs m_{j + 1}={losses[j]!r}"
            )
    return optima


def consistency_experiment(
    pop: PopulationSpec,
    k: int,
    q: int,
    n_grid,
    reps: int,
    restarts: int = 20,
    seed: int = 0,
) -> ConvergenceReport:
    """Sample i.i.d. datasets of each size in n_grid, fit the model, and
    record per rep the fitted loss, the aligned parameter distance to the
    population optimum, the variance-ratio statistic, and the exact
    population risk of the fit.

    The optimum comes from the angle-grid oracle, so p=2 and q=1 are checked
    with the other arguments, before any solve. Rep r at size n fits the
    sample drawn by spawn_rng(seed, n, r) with ``restarts`` restarts from the
    seed spawn_seed(seed, n, r, 1); each n derives its reps' streams and
    seeds in one key pass (``_seeds.spawn_batches``).

    The sample's objective is exactly the count-weighted objective over the
    population's atoms at the draw's counts (np.bincount of the draw, zeros
    included), so the fit is on pop.atoms at those counts, and the VR is
    ``_kernels.weighted_vr`` at them: the loss and the VR are the n-row
    sample's, to rounding. All reps of one n share the atoms, so they fit
    in one engine run (``solver._fit_samples``), each rep drawing exactly
    the streams ``fit_rkm`` draws for its seed. A draw with fewer distinct
    atoms than k cannot give every cluster a row of its own; that rep fits
    its n rows with ``fit_rkm``, each counted once, and its VR is the
    sample's ``vr_hat``.
    """
    config = SolverConfig(k=k, q=q, restarts=restarts)  # checked before any solve
    check_seed(seed)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one sample size")
    for i, n in enumerate(n_grid):
        if n < k:
            raise ValueError(f"n={n} is smaller than k={k}")
        if n in n_grid[:i]:
            raise ValueError(f"n_grid repeats the sample size n={n}")
    if pop.p != 2 or q != 1:
        raise ValueError(f"the oracle needs p=2, q=1, got p={pop.p}, q={q}")
    optimum = check_distinctness(pop, k)[-1]
    oracle_vr = None
    try:
        oracle_vr = _kernels.weighted_vr(pop.atoms, pop.weights, optimum.loading.values,
                                         optimum.centroids.values)
    except DegenerateDataError:
        pass

    records = {field: {n: [] for n in n_grid} for field, _ in _RECORDS}
    theta_star = (optimum.centroids, optimum.loading)
    support = DataMatrix(pop.atoms)
    for n in n_grid:
        # spawn_seed(seed, n, r, 1) is word 0 of the stream (seed, n, r, 1)'s key
        _, samples, fits = spawn_batches(seed, n, range(reps), 1)
        fit_seeds = fits.keys[:, 0].tolist()
        draws = [samples[r].choice(pop.m, size=n, p=pop.weights) for r in range(reps)]
        counts = np.stack([np.bincount(idx, minlength=pop.m) for idx in draws])
        # the reps with at least k distinct atoms fit in one engine run
        stacked = np.flatnonzero(np.count_nonzero(counts, axis=1) >= k).tolist()
        sols = {}
        if stacked:
            sols = dict(zip(stacked, _fit_samples(support, config, counts[stacked],
                                                  [fit_seeds[r] for r in stacked])))
        for r, idx in enumerate(draws):
            if r in sols:
                sol, x, row_counts = sols[r], pop.atoms, counts[r]
            else:
                # too few distinct atoms to give every cluster a row of its
                # own: fit the full draw, each row once
                x, row_counts = pop.atoms[idx], np.ones(n, dtype=np.int64)
                sol = fit_rkm(DataMatrix(x), replace(config, seed=fit_seeds[r]))
            try:
                vr = _kernels.weighted_vr(x, row_counts, sol.loading.values,
                                          sol.centroids.values)
            except DegenerateDataError:
                vr = float("nan")
            values = (
                sol.loss,
                param_distance((sol.centroids, sol.loading), theta_star),
                vr,
                population_risk(pop, sol.loading, sol.centroids),
            )
            for (field, _), value in zip(_RECORDS, values):
                records[field][n].append(value)
    return ConvergenceReport(
        n_grid=n_grid,
        **records,
        oracle_loss=optimum.loss,
        oracle_vr=oracle_vr,
        oracle_gap=optimum.grid_gap,
    )


@dataclass(frozen=True)
class AgreementResult:
    """Agreement outcome for one synthetic-benchmark setting: how often the
    variance-ratio selector picked the dimension with the best ARI."""

    setting: tuple
    picks: tuple  # per rep: (selected q, ARI-optimal q)

    @property
    def reps(self) -> int:
        return len(self.picks)

    @property
    def hits(self) -> int:
        return sum(selected == best for selected, best in self.picks)

    @property
    def rate(self) -> float:
        return self.hits / self.reps


def agreement_experiment(
    settings,
    reps: int,
    restarts: int = 50,
    seed: int = 0,
) -> tuple:
    """For each setting (q_true, p1, p2, p3): generate and normalize `reps`
    datasets of the Table-1 shape (TABLE1_N objects in TABLE1_K clusters),
    profile dimensions 1..min(TABLE1_K - 1, p) with the selector, score each
    profiled fit by ARI against the ground truth, and count how often the
    selected dimension matches the ARI-best one. Rep r of setting si draws
    its dataset from the seed spawn_seed(seed, si, r, 0) and profiles it with
    ``restarts`` restarts per fit from the seed spawn_seed(seed, si, r, 1).
    Every setting is checked before the first dataset is drawn."""
    check_seed(seed)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    specs = [DatasetSpec(K=TABLE1_K, q=q_true, p1=p1, p2=p2, p3=p3, n=TABLE1_N)
             for q_true, p1, p2, p3 in settings]
    results = []
    for si, spec in enumerate(specs):
        picks = []
        for r in range(reps):
            ds = generate_dataset(replace(spec, seed=spawn_seed(seed, si, r, 0)))
            profile = select_dimension(ds.Z, TABLE1_K, restarts=restarts,
                                       seed=spawn_seed(seed, si, r, 1))
            best_q, best_ari = None, -np.inf
            for q, sol in enumerate(profile.solutions, start=1):
                ari = adjusted_rand_index(sol.assignment, ds.labels)
                if ari > best_ari:
                    best_q, best_ari = q, ari
            picks.append((profile.q_hat, best_q))
        results.append(AgreementResult((spec.q, spec.p1, spec.p2, spec.p3), tuple(picks)))
    return tuple(results)


@dataclass(frozen=True)
class RateBound:
    """Finite-sample deviation bound: raw polynomial-times-exponential value
    and its clamp to the probability range."""

    raw: float

    @property
    def bound(self) -> float:
        return min(1.0, self.raw)


def rate_bound(n: int, k: int, p: int, B: float, epsilon: float) -> RateBound:
    """Deviation-probability bound 8 (2n)^{k(p+1)} exp(-n eps^2 / (512 B^2)),
    clamped to 1; valid only when n (eps / 8B)^2 >= 2."""
    n, k, p = int(n), int(k), int(p)
    if n < 1 or k < 1 or p < 1:
        raise ValueError("n, k, p must be positive integers")
    if not (B > 0 and epsilon > 0):
        raise ValueError("B and epsilon must be positive")
    condition = n * (epsilon / (8.0 * B)) ** 2
    if condition < 2.0:
        raise ValueError(
            f"bound requires n*(epsilon/(8*B))**2 >= 2, got {condition!r}"
        )
    log_raw = (
        math.log(8.0)
        + k * (p + 1) * math.log(2.0 * n)
        - n * epsilon * epsilon / (512.0 * B * B)
    )
    raw = math.exp(log_raw) if log_raw < 700 else math.inf
    return RateBound(raw=raw)
