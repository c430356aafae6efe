"""Alternating least squares solver: block updates, descent, determinism."""
import dataclasses
import re

import numpy as np
import pytest

from rkmeans import (
    Assignment,
    CentroidSet,
    DataMatrix,
    LoadingMatrix,
    SolverConfig,
    adjusted_rand_index,
    assign_clusters,
    assigned_objective,
    fit_rkm,
    kmeans_fit,
    project,
    rkm_objective,
    tandem_fit,
    vr_hat,
)


def _planted_line(n=40, seed=0):
    # points exactly at +/-5 along a fixed unit direction in R^3, zero loss
    rng = np.random.default_rng(seed)
    v = np.array([2.0, -1.0, 2.0]) / 3.0
    t = np.where(rng.random(n) < 0.5, 5.0, -5.0)
    labels = (t > 0).astype(int)
    return DataMatrix(np.outer(t, v)), labels


def test_fit_recovers_noiseless_line():
    X, truth = _planted_line()
    sol = fit_rkm(X, SolverConfig(k=2, q=1, restarts=5, seed=1))
    assert sol.loss == pytest.approx(0.0, abs=1e-20)
    assert adjusted_rand_index(Assignment(truth, 2), sol.assignment) == 1.0
    # centroids sit at +/-5 in the subspace coordinate
    got = np.sort(sol.centroids.values.ravel())
    assert np.allclose(np.abs(got), [5.0, 5.0], atol=1e-9)


def _loading_step(X, U, F):
    # the engine's polar step, run on a stack of one restart
    from rkmeans import _kernels
    return LoadingMatrix(_kernels._stacked_polar(X.values, U.labels[None], F.values[None])[0])


def _centroid_step(X, U, A):
    # the engine's cluster means of the projected data; U has no empty cluster
    from rkmeans import _kernels
    return CentroidSet(_kernels.cluster_means(X.values @ A.values, U.labels, U.cluster_sizes()))


def test_update_loading_is_procrustes_optimal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, p, q, k = 30, 5, 2, 3
        X = DataMatrix(rng.standard_normal((n, p)))
        U = Assignment(rng.integers(0, k, n), k)
        F = CentroidSet(rng.standard_normal((k, q)))
        before = LoadingMatrix(np.linalg.qr(rng.standard_normal((p, q)))[0])
        after = _loading_step(X, U, F)
        assert assigned_objective(X, after, F, U) <= assigned_objective(X, before, F, U) + 1e-12
        # optimal among 50 random probes as well
        for _ in range(50):
            probe = LoadingMatrix(np.linalg.qr(rng.standard_normal((p, q)))[0])
            assert assigned_objective(X, after, F, U) <= assigned_objective(X, probe, F, U) + 1e-12


def test_update_loading_handles_degenerate_rank():
    # all centroids zero -> M = 0; completion must still be orthonormal
    X = DataMatrix(np.arange(12, dtype=float).reshape(4, 3))
    U = Assignment([0, 1, 0, 1], 2)
    F = CentroidSet(np.zeros((2, 2)))
    A = _loading_step(X, U, F)
    assert A.p == 3 and A.q == 2  # LoadingMatrix already verified A'A = I


def test_planted_partition_loss_is_the_fixed_partition_minimum():
    # acceptance criterion 8 compares fits with this closed form: for a fixed
    # partition the best loading spans the top-q directions of the between-
    # cluster scatter, and the best centroids are the projected class means
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p, k = 40, int(rng.integers(3, 8)), int(rng.integers(2, 6))
        q = int(rng.integers(1, min(p, k) + 1))
        X = DataMatrix(rng.standard_normal((n, p)) + rng.uniform(-3, 3, p))
        U = Assignment(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]), k)
        counts = U.cluster_sizes()
        means = np.stack([X.values[U.labels == j].mean(axis=0) for j in range(k)])
        _, _, vh = np.linalg.svd(np.sqrt(counts)[:, None] * means, full_matrices=False)
        A = LoadingMatrix(vh[:q].T)
        planted = assigned_objective(X, A, CentroidSet(means @ A.values), U)
        F = CentroidSet(rng.standard_normal((k, q)))
        for _ in range(50):
            A_als = _loading_step(X, U, F)
            F = _centroid_step(X, U, A_als)
        assert planted <= assigned_objective(X, A_als, F, U) + 1e-12


def test_assign_clusters_breaks_ties_low():
    X = DataMatrix([[0.0, 5.0]])
    A = LoadingMatrix([[1.0], [0.0]])
    F = CentroidSet([[1.0], [-1.0]])
    assert assign_clusters(X, A, F).labels.tolist() == [0]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0, q=1)
    with pytest.raises(ValueError):
        SolverConfig(k=2, q=0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, q=1, restarts=0)
    with pytest.raises(TypeError):  # every fit runs to _kernels.MAX_ITERATIONS
        SolverConfig(k=2, q=1, max_iterations=5)
    cfg = SolverConfig(k=5, q=3)
    with pytest.raises(ValueError):
        cfg.validate_against(DataMatrix(np.ones((4, 3))))  # k > n
    with pytest.raises(ValueError):
        SolverConfig(k=2, q=4).validate_against(DataMatrix(np.ones((10, 3))))


def _blobs(seed, n=60, p=4, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4, 4, size=(k, p))
    labels = rng.integers(0, k, n)
    return DataMatrix(centers[labels] + 0.3 * rng.standard_normal((n, p)))


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, "0", None])
def test_config_refuses_a_seed_that_names_no_stream(seed):
    # refused at construction, by name, rather than deep in SeedSequence;
    # kmeans_fit and tandem_fit build their config from their seed
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        SolverConfig(k=2, q=1, seed=seed)
    for fit in (kmeans_fit, lambda X, k, seed: tandem_fit(X, k, 1, seed=seed)):
        with pytest.raises(ValueError, match="non-negative integer"):
            fit(_blobs(0), 2, seed=seed)


def test_config_takes_bool_and_numpy_integer_seeds():
    X = _blobs(6)
    for seed, same in ((True, 1), (False, 0), (np.int64(3), 3), (np.uint64(2**64 - 1), 2**64 - 1)):
        got = fit_rkm(X, SolverConfig(k=3, q=2, restarts=4, seed=seed))
        want = fit_rkm(X, SolverConfig(k=3, q=2, restarts=4, seed=same))
        assert got.sweep_losses == want.sweep_losses, seed
        assert got.loading.values.tobytes() == want.loading.values.tobytes(), seed


def test_fit_is_deterministic():
    X = _blobs(5)
    cfg = SolverConfig(k=3, q=2, restarts=8, seed=42)
    a = fit_rkm(X, cfg)
    b = fit_rkm(X, cfg)
    assert np.array_equal(a.loading.values, b.loading.values)
    assert np.array_equal(a.centroids.values, b.centroids.values)
    assert np.array_equal(a.assignment.labels, b.assignment.labels)
    assert a.loss == b.loss and a.sweep_losses == b.sweep_losses
    assert a.restart_index == b.restart_index


def test_sweep_losses_monotone_and_consistent():
    for seed in range(12):
        X = _blobs(seed)
        sol = fit_rkm(X, SolverConfig(k=3, q=2, restarts=4, seed=seed))
        t = np.array(sol.sweep_losses)
        assert t.size >= 1
        drops = t[:-1] - t[1:]
        assert np.all(drops >= -1e-12 * np.maximum(np.abs(t[:-1]), 1e-300))
        assert t[-1] == sol.loss
        # stored loss is exactly the min-based objective of the stored pair
        direct = rkm_objective(X, sol.loading, sol.centroids)
        assert sol.loss == pytest.approx(direct, rel=1e-12, abs=1e-15)
        # and the stored assignment is optimal for that pair
        assigned = assigned_objective(X, sol.loading, sol.centroids, sol.assignment)
        assert assigned == pytest.approx(sol.loss, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_every_sweep_loss_is_its_sweeps_assigned_loss(held):
    # one restart replayed with this file's own steps: each sweep refits the
    # loading (unless held), assigns, repairs an empty cluster as the engine
    # does, and takes the means; every trace entry is the assigned loss of
    # that sweep's (A, F, U), and the last one that of the final pair and
    # its nearest-centroid labels. With row counts the steps run on the
    # expanded rows, except that the repair moves a whole distinct row
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    def assign(X, A, F):
        U = assign_clusters(X, A, F)
        labels = U.labels.copy()
        _kernels.repair_empty_clusters(X.values @ A.values, F.values.copy(), labels)
        return Assignment(labels, F.k)

    for seed in range(8):
        X = _blobs(seed)
        for counts in (None, np.random.default_rng(seed).integers(1, 5, X.n)):
            c = np.ones(X.n, dtype=np.int64) if counts is None else counts
            full = DataMatrix(np.repeat(X.values, c, axis=0))

            def expand(U):
                return Assignment(np.repeat(U.labels, c), U.n_clusters)

            a0 = np.eye(X.p) if held else _kernels.principal_axes(X.values, 2, counts)
            _, _, _, trace = _kernels.sweep_restarts(
                X.values, None if held else a0[None], 3, spawn_streams(seed, [0]), 300, counts)[0]
            A = LoadingMatrix(a0)
            F = CentroidSet(_kernels.kmeans_pp_init((X.values @ a0)[None], 3,
                                                    spawn_streams(seed, [0]), c)[0])
            if not held:
                U = assign(X, A, F)
                F = _centroid_step(full, expand(U), A)
            for loss in trace[:-1]:
                if not held:
                    A = _loading_step(full, expand(U), F)
                U = assign(X, A, F)
                F = _centroid_step(full, expand(U), A)
                assert loss == pytest.approx(assigned_objective(full, A, F, expand(U)), rel=1e-12)
            final = assigned_objective(full, A, F, expand(assign_clusters(X, A, F)))
            assert trace[-1] == pytest.approx(final, rel=1e-12)


def _unit_counts_cases(seed):
    """Shapes from the consistency workload's (p = 2, q = 1, k = 2) to the
    agreement's (p = 15, k = 8), random or on an integer grid."""
    rng = np.random.default_rng(seed)
    for case, (n, p, q, k) in enumerate([(50, 2, 1, 2), (200, 2, 1, 2), (40, 15, 3, 8),
                                         (13, 3, 2, 5), (9, 4, 4, 9), (30, 1, 1, 3)]):
        x = rng.standard_normal((n, p)) if case % 2 else rng.integers(-1, 2, (n, p)) * 1.0
        yield case, x, q, k


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
def test_counts_default_to_once_each(dtype):
    # leaving counts out is counting each row once, in any integer dtype:
    # fit_rkm, and the held loading's path through best_restart, give the
    # same bits either way
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    for case, x, q, k in _unit_counts_cases(3):
        ones = np.ones(x.shape[0], dtype=dtype)
        config = SolverConfig(k=k, q=q, restarts=7, seed=case)
        plain, unit = fit_rkm(DataMatrix(x), config), fit_rkm(DataMatrix(x), config, counts=ones)
        assert (plain.restart_index, plain.sweep_losses) == (unit.restart_index, unit.sweep_losses)
        for part in ("loading", "centroids", "assignment"):
            a, b = getattr(plain, part), getattr(unit, part)
            a, b = (a.labels, b.labels) if part == "assignment" else (a.values, b.values)
            assert a.tobytes() == b.tobytes(), f"case {case}, {part}"
        held = [_kernels.best_restart(x, None, k, spawn_streams(case, range(7)), 300, *counts)[0]
                for counts in ((), (ones,))]
        assert held[0][0] == held[1][0] and held[0][4] == held[1][4], f"case {case}"
        for got, want in zip(held[0][2:4], held[1][2:4]):
            assert got.tobytes() == want.tobytes(), f"case {case}"


def _weighted_cases(seed, low=1):
    """Few distinct rows with integer counts from low to 6: duplicates among
    the rows too, k up to the number of rows, q up to p."""
    rng = np.random.default_rng(seed)
    for case in range(40):
        n, p = int(rng.integers(2, 16)), int(rng.integers(1, 5))
        x = rng.integers(-2, 3, size=(n, p)) * 1.0 if case % 2 else rng.standard_normal((n, p))
        x[: n // 3] = x[n // 3: 2 * (n // 3)]
        yield case, x, rng.integers(low, 7, n), int(rng.integers(1, p + 1)), \
            int(rng.integers(1, n + 1))


def test_counts_fit_the_expanded_sample():
    # the loss is rkm_objective of the rows repeated counts times, and every
    # label, expanded, is the nearest-centroid argmin of its copies. Both
    # losses round at the data's mean square, which bounds them at zero loss
    for case, x, counts, q, k in _weighted_cases(2):
        sol = fit_rkm(DataMatrix(x), SolverConfig(k=k, q=q, restarts=4, seed=case),
                      counts=counts)
        full = DataMatrix(np.repeat(x, counts, axis=0))
        scale = float(np.mean(np.sum(full.values ** 2, axis=1)))
        assert sol.loss == pytest.approx(rkm_objective(full, sol.loading, sol.centroids),
                                         rel=1e-12, abs=1e-12 * scale), f"case {case}"
        y = full.values @ sol.loading.values
        d = np.sum((y[:, None, :] - sol.centroids.values[None, :, :]) ** 2, axis=2)
        labels = np.repeat(sol.assignment.labels, counts)
        own = d[np.arange(full.n), labels]
        assert np.all(own <= d.min(axis=1) + 1e-12 * (1.0 + d.min(axis=1))), f"case {case}"


def test_counts_seed_and_start_as_the_expanded_rows():
    # k-means++ on counted rows draws the rows its draws on the expanded rows
    # land in (on an integer grid every cumulative sum is exact, so bit for
    # bit), and the weighted principal axes span the expanded rows' axes
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    compared = 0
    for case, x, counts, q, k in _weighted_cases(4):
        full = np.repeat(x, counts, axis=0)
        if case % 2:
            got = _kernels.kmeans_pp_init(x[None], k, spawn_streams(case, [0]), counts)
            want = _kernels.kmeans_pp_init(full[None], k, spawn_streams(case, [0]),
                                           np.ones(len(full), int))
            assert got.tobytes() == want.tobytes(), f"case {case}"
        spectrum = np.linalg.svd(full - full.mean(axis=0), compute_uv=False)
        if q < x.shape[1] and (q >= len(spectrum) or spectrum[q - 1] - spectrum[q] < 1e-6):
            continue  # the top-q subspace is not unique
        a, b = _kernels.principal_axes(x, q, counts), _kernels.principal_axes(full, q)
        assert a @ a.T == pytest.approx(b @ b.T, abs=1e-9), f"case {case}"
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("y, f, weights", [
    # the repair's argmin keeps every cluster: the nearest distances count
    ([[0.0], [1.0], [10.0], [11.0]], [[0.5], [10.5], [100.0]], [1.0, 2.0, 3.0, 4.0]),
    # two distinct rows for three clusters: the fallback's assigned distances
    ([[0.0], [0.0], [1.0]], [[0.0], [0.5], [5.0]], [1.0, 1.0, 3.0]),
], ids=["argmin", "fallback"])
def test_finalize_repairs_weigh_each_row(y, f, weights):
    # whichever way the finalize ends, its loss is each row's squared
    # distance to its center times the row's weight
    from rkmeans import _kernels

    y, f, weights = np.array(y), np.array(f), np.array(weights)
    labels = _kernels.assign_to_nearest(y, f)
    assert np.any(np.bincount(labels, minlength=len(f)) == 0)
    labels, loss = _kernels._finalize_repairs(y, f, labels, weights)
    assert np.all(np.bincount(labels, minlength=len(f)) > 0)
    assert loss > 0.0
    assert loss == np.sum(weights * np.sum((y - f[labels]) ** 2, axis=1))


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_a_repair_moves_a_whole_counted_row(held, monkeypatch):
    # every row stands for two or more copies, so each repair moves a row of
    # count > 1; each fit must end with every cluster holding a row, and its
    # trace must not rise by more than the rounding of the loss's terms,
    # which is relative to the data's mean square, not to a zero loss
    from rkmeans import _kernels, solver
    from rkmeans._seeds import spawn_streams

    repair = _kernels.repair_empty_clusters
    moved = []

    def recording(y, centers, labels):
        before = labels.copy()
        repair(y, centers, labels)
        moved.extend(np.flatnonzero(labels != before).tolist())

    monkeypatch.setattr(_kernels, "repair_empty_clusters", recording)
    for case, x, counts, q, k in _weighted_cases(3 + held, low=2):
        streams = spawn_streams(case, range(4))
        a0 = None
        if not held:
            a0 = solver._starts(spawn_streams(case, range(4), 1),
                                _kernels.principal_axes(x, q, counts))
        for _, _, labels, trace in _kernels.sweep_restarts(x, a0, k, streams, 300, counts):
            assert np.all(np.bincount(labels, minlength=k) > 0), f"case {case}"
            t = np.array(trace)
            scale = np.sum(counts * np.sum(x * x, axis=1)) / counts.sum()
            assert np.all(t[1:] - t[:-1] <= 1e-12 * scale), f"case {case}: {trace}"
    assert moved, "no repair ran"


def test_counts_are_checked():
    X = DataMatrix(np.arange(12.0).reshape(6, 2))
    config = SolverConfig(k=2, q=1, restarts=2)
    for counts, message in [(np.ones(5, dtype=int), "one entry per row"),
                            (np.ones((6, 1), dtype=int), "one entry per row"),
                            (np.ones(6), "must be integers"),
                            (np.array([1, 2, 0, 1, 1, 1]), "must be positive"),
                            (np.array([1, 2, -3, 1, 1, 1]), "must be positive")]:
        with pytest.raises(ValueError, match=message):
            fit_rkm(X, config, counts=counts)


def test_more_restarts_never_hurt():
    X = _blobs(9)
    small = fit_rkm(X, SolverConfig(k=3, q=2, restarts=3, seed=0))
    big = fit_rkm(X, SolverConfig(k=3, q=2, restarts=12, seed=0))
    # restart streams depend only on (seed, index), so budgets nest
    assert big.loss <= small.loss + 1e-15


def test_full_dimension_matches_plain_kmeans():
    X = _blobs(13, n=50, p=3, k=3)
    sol = fit_rkm(X, SolverConfig(k=3, q=3, restarts=10, seed=3))
    km = kmeans_fit(X, 3, restarts=10, seed=3)
    assert sol.loss == pytest.approx(km.loss, rel=1e-9)


def test_project_returns_scores_and_cluster_means():
    X = _blobs(21)
    sol = fit_rkm(X, SolverConfig(k=3, q=2, restarts=5, seed=2))
    y, g = project(X, sol)
    assert y.shape == (X.n, 2) and g.shape == (3, 2)
    assert np.allclose(y, X.values @ sol.loading.values)
    # converged solutions have centroids equal to cluster means
    assert np.allclose(g, sol.centroids.values, atol=1e-8)


def test_project_rejects_empty_clusters_and_other_data():
    import dataclasses
    X = _blobs(21)
    sol = fit_rkm(X, SolverConfig(k=3, q=2, restarts=2, seed=2))
    empty = dataclasses.replace(sol, assignment=Assignment(np.zeros(X.n, dtype=int), 3))
    with pytest.raises(ValueError, match="empty cluster"):
        project(X, empty)
    with pytest.raises(ValueError, match=rf"solution has n={X.n} but data has n={X.n - 1}"):
        project(DataMatrix(X.values[:-1]), sol)
    with pytest.raises(ValueError, match=rf"solution has p={X.p} but data has p={X.p - 1}"):
        project(DataMatrix(X.values[:, :-1]), sol)


def test_fit_survives_adversarial_k():
    # k close to n forces the empty-cluster repair path through many sweeps
    rng = np.random.default_rng(7)
    X = DataMatrix(rng.standard_normal((12, 3)))
    sol = fit_rkm(X, SolverConfig(k=10, q=2, restarts=6, seed=0))
    assert np.all(sol.assignment.cluster_sizes() > 0)
    assert sol.loss >= 0.0


@pytest.mark.parametrize("k", [4, 5, 6])
def test_finalize_with_more_clusters_than_distinct_rows(k, monkeypatch):
    # three distinct rows and k > 3: equal rows share their argmin center, so
    # every argmin of the finalize leaves a cluster empty and its fallback
    # repair sets the labels
    from rkmeans import _kernels

    repair, finalize = _kernels.repair_empty_clusters, _kernels._finalize_repairs
    repairs, rounds = [], []
    monkeypatch.setattr(_kernels, "repair_empty_clusters",
                        lambda *args: repairs.append(1) or repair(*args))

    def counted(*args):
        before = len(repairs)
        result = finalize(*args)
        rounds.append(len(repairs) - before)
        return result

    monkeypatch.setattr(_kernels, "_finalize_repairs", counted)
    X = DataMatrix(np.repeat([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]], 4, axis=0))
    sol = fit_rkm(X, SolverConfig(k=k, q=1, restarts=6, seed=k))
    assert rounds == [k + 1] * 6, "a restart skipped the fallback"
    assert np.all(sol.assignment.cluster_sizes() > 0)
    y = X.values @ sol.loading.values
    d = np.sum((y[:, None, :] - sol.centroids.values[None, :, :]) ** 2, axis=2)
    own = d[np.arange(X.n), sol.assignment.labels]
    assert np.all(own <= d.min(axis=1) + 1e-12)
    exact = assigned_objective(X, sol.loading, sol.centroids, sol.assignment)
    assert sol.loss == pytest.approx(exact, rel=1e-12)


def test_duplicate_points_reach_closed_form_optimum():
    # with k matching the number of distinct points, the within term vanishes
    # and the optimum is the top eigenvalue residual of the second moment
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    X = DataMatrix(np.repeat(pts, 6, axis=0))
    sol = fit_rkm(X, SolverConfig(k=2, q=1, restarts=4, seed=0))
    moment = pts.T @ pts / 2.0
    expected = float(np.trace(moment) - np.linalg.eigvalsh(moment)[-1])
    assert sol.loss == pytest.approx(expected, rel=1e-12)


def test_origin_line_duplicates_are_lossless():
    X = DataMatrix(np.repeat([[1.0, 2.0], [-1.0, -2.0]], 6, axis=0))
    sol = fit_rkm(X, SolverConfig(k=2, q=1, restarts=4, seed=0))
    assert sol.loss == pytest.approx(0.0, abs=1e-18)


def _run_bits(result):
    a, f, labels, trace = result
    return (None if a is None else a.tobytes(), f.tobytes(), labels.tobytes(), repr(trace))


def _small_grid_cases(seed):
    """Small inputs on an integer grid: duplicate rows, tied distances and
    tied restart losses, k up to n, iteration caps 1-5."""
    rng = np.random.default_rng(seed)
    for case in range(60):
        n = int(rng.integers(2, 14))
        p = int(rng.integers(1, 5))
        x = rng.integers(-1, 2, size=(n, p)).astype(float)
        x[: n // 3] = x[n // 3 : 2 * (n // 3)]
        yield case, x, int(rng.integers(1, n + 1)), int(rng.integers(1, p + 1)), \
            int(rng.integers(1, 6)), int(rng.integers(3, 9))


def _batch_loadings(held, case, x, k, q, R):
    """The stacked starting loadings of R restarts as fit_rkm builds them,
    or None to hold the loading."""
    from rkmeans import _kernels, solver
    from rkmeans._seeds import spawn_streams

    if held:
        return None
    return solver._starts(spawn_streams(case, range(R), 1), _kernels.principal_axes(x, q))


def _seeding_streams(case, R):
    """Restart r's k-means++ stream (case, r), as both solvers draw it."""
    from rkmeans._seeds import spawn_streams

    return spawn_streams(case, range(R))


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_restart_batches_are_width_invariant(held, monkeypatch):
    # every restart's (A, F, labels, trace) must not depend on how many
    # restarts share its batch: widths 1, 2 and all of them
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    repair = _kernels.repair_empty_clusters
    repairs = []
    monkeypatch.setattr(_kernels, "repair_empty_clusters",
                        lambda *args: repairs.append(1) or repair(*args))
    for case, x, k, q, cap, R in _small_grid_cases(5 + held):
        a0 = _batch_loadings(held, case, x, k, q, R)
        runs = {}
        for width in (1, 2, R):
            results, streams = [], _seeding_streams(case, R)
            for first in range(0, R, width):
                part = slice(first, first + width)
                results += _kernels.sweep_restarts(
                    x, None if held else a0[part], k, streams[part], cap)
            runs[width] = [_run_bits(result) for result in results]
        assert runs[1] == runs[2] == runs[R], f"case {case}"
        if held:
            for r, (_, _, _, trace) in enumerate(results):
                centers, labels, loss, iterations = _kernels.lloyd_single(
                    x, k, spawn_streams(case, [r]), cap)
                assert runs[1][r][:3] == (None, centers.tobytes(), labels.tobytes())
                assert (repr(loss), iterations) == (repr(trace[-1]), len(trace) - 1)
    assert repairs, "no input exercised the empty-cluster repair"


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_fit_is_the_best_width_one_run_at_every_batch_width(held, monkeypatch):
    # both solvers batch their restarts; at any batch width each must return
    # the lowest-loss restart of lone runs, ties going to the smallest index
    from rkmeans import _kernels

    ties = 0
    for case, x, k, q, cap, R in _small_grid_cases(9 + held):
        X = DataMatrix(x)
        config = SolverConfig(k=k, q=q, restarts=R, seed=case)
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        a0 = _batch_loadings(held, case, x, k, q, R)
        # (a, f, labels, trace) of each lone run; a is None for Lloyd's
        streams = _seeding_streams(case, R)
        lone = [_kernels.sweep_restarts(x, None if held else a0[r:r + 1], k, streams[r:r + 1],
                                        cap)[0] for r in range(R)]
        losses = [trace[-1] for _, _, _, trace in lone]
        best = losses.index(min(losses))
        ties += losses.count(min(losses)) > 1
        a, f, labels, trace = lone[best]
        if held:
            a = np.eye(x.shape[1])  # the loading k-means holds
        for width in (1, 2, R):
            monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * x.shape[0] * k)
            where = f"case {case}, width {width}"
            sol = kmeans_fit(X, k, restarts=R, seed=case) if held else fit_rkm(X, config)
            assert (sol.restart_index, repr(sol.loss), sol.sweep_losses, sol.iterations) == \
                (best, repr(trace[-1]), tuple(trace), len(trace) - 1), where
            assert sol.loading.values.tobytes() == a.tobytes(), where
            assert sol.centroids.values.tobytes() == f.tobytes(), where
            assert np.array_equal(sol.assignment.labels, labels), where
    assert ties, "no input had tied restart losses"


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_sweep_restarts_only_reads_its_data_and_loadings(held):
    # x and a are the caller's, and the engine's only array inputs: a sweep
    # that wrote its scores into x, or refit a loading in place, would
    # corrupt the starts of a caller that slices several batches out of one
    # stack
    from rkmeans import _kernels

    for case, x, k, q, cap, R in _small_grid_cases(11 + held):
        a0 = _batch_loadings(held, case, x, k, q, R)
        before = [v.tobytes() for v in (x, a0) if v is not None]
        _kernels.sweep_restarts(x, a0, k, _seeding_streams(case, R), cap)
        after = [v.tobytes() for v in (x, a0) if v is not None]
        assert after == before, f"case {case}"


def test_both_solvers_seed_restart_r_from_its_own_stream(monkeypatch):
    # fit_rkm and kmeans_fit seed restart r's k-means++ from the start of
    # spawn_rng(seed, r)'s stream, in restart order, across batches too, with
    # one seeding call per batch: the two solvers stay restart-for-restart
    # comparable, and a tracer can read each seeding as a batch boundary
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_rng

    def stream(rng):
        state = rng.bit_generator.state["state"]  # Philox: key and counter
        return state["key"].tolist(), state["counter"].tolist()

    seed_centers = _kernels.kmeans_pp_init
    seen, calls = [], []

    def recording(y, k, streams, counts):
        calls.append(len(streams))
        seen.extend(stream(streams[j]) for j in range(len(streams)))
        return seed_centers(y, k, streams, counts)

    monkeypatch.setattr(_kernels, "kmeans_pp_init", recording)
    n, k, R, seed = 30, 3, 7, 11
    X = DataMatrix(np.random.default_rng(4).standard_normal((n, 3)))
    want = [stream(spawn_rng(seed, r)) for r in range(R)]
    for width, batches in ((1, [1] * 7), (3, [3, 3, 1]), (R, [R])):
        monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * n * k)
        for name, fit in (("fit_rkm", lambda: fit_rkm(X, SolverConfig(k=k, q=2, restarts=R,
                                                                        seed=seed))),
                          ("kmeans_fit", lambda: kmeans_fit(X, k, restarts=R, seed=seed))):
            seen.clear()
            calls.clear()
            fit()
            assert seen == want, f"{name}, width {width}"
            assert calls == batches, f"{name}, width {width}"


def test_batch_width_splits_restarts_evenly_under_the_cap(monkeypatch):
    # the width never exceeds the cap, the batch count stays the fewest the
    # cap allows, and no narrower width keeps that count, so the batches come
    # out about equal
    from rkmeans import _kernels

    n, k = 7, 3
    for cap in (*range(1, 30), 49, 50, 64, 100, 199, 200, 500):
        # a budget just short of the next multiple still means this cap
        monkeypatch.setattr(_kernels, "BATCH_DOUBLES", cap * n * k + n * k - 1)
        for R in range(1, 201):
            width = _kernels.batch_width(n, k, R)
            assert 1 <= width <= min(cap, R), (cap, R, width)
            assert -(-R // width) == -(-R // cap), (cap, R, width)
            assert width == 1 or -(-R // (width - 1)) > -(-R // cap), (cap, R, width)
            if cap in (1, 2) or cap >= R:
                assert width == min(cap, R), (cap, R, width)
    # a budget below one n x k block still runs one restart at a time
    monkeypatch.setattr(_kernels, "BATCH_DOUBLES", n * k - 1)
    assert [_kernels.batch_width(n, k, R) for R in (1, 2, 50)] == [1, 1, 1]


def test_fit_peak_memory_at_the_agreement_shape():
    # criterion 7's largest fit: n = 400, p = 15, k = 8, q = 7, 50 restarts.
    # Wider batches trade memory for speed; this bound keeps a later width
    # or temporary from raising the peak unnoticed (1.86 MiB when written)
    import tracemalloc

    from rkmeans import DatasetSpec, generate_dataset

    X = generate_dataset(DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=3)).X
    config = SolverConfig(k=8, q=7, restarts=50, seed=0)
    tracemalloc.start()
    try:
        fit_rkm(X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.fixture(scope="module")
def scale_data():
    from rkmeans import DatasetSpec, generate_dataset

    z = generate_dataset(DatasetSpec(K=4, q=2, p1=2, p2=5, p3=5, n=300, seed=0)).Z.values
    rkm = fit_rkm(DataMatrix(z), SolverConfig(k=4, q=2, restarts=5))
    km = kmeans_fit(DataMatrix(z), 4, restarts=5)
    return np.asarray(z), rkm, km


@pytest.mark.parametrize("scale, rel", [
    (2.0**510, 0.0),  # every step carries a power of two exactly
    (2.0**-510, 0.0),
    (1e153, 1e-12),  # x * x overflows
    (1e-160, 1e-4),  # x * x is subnormal, and so is the loss
], ids=["2**510", "2**-510", "1e153", "1e-160"])
def test_both_solvers_fit_data_past_the_range_of_its_squares(scale_data, scale, rel):
    z, rkm, km = scale_data
    X = DataMatrix(z * scale)
    scaled_rkm = fit_rkm(X, SolverConfig(k=4, q=2, restarts=5))
    scaled_km = kmeans_fit(X, 4, restarts=5)
    for base, sol in [(rkm, scaled_rkm), (km, scaled_km)]:
        assert np.array_equal(sol.assignment.labels, base.assignment.labels)
        assert sol.loss == pytest.approx(base.loss * scale * scale, rel=rel, abs=0.0)
    # the objective and the variance ratio run at the engine's scale too
    unscaled = rkm_objective(DataMatrix(z), rkm.loading, rkm.centroids)
    assert rkm_objective(X, scaled_rkm.loading, scaled_rkm.centroids) == \
        pytest.approx(unscaled * scale * scale, rel=rel, abs=0.0)
    assert vr_hat(X, scaled_rkm) == pytest.approx(vr_hat(DataMatrix(z), rkm), rel=rel, abs=0.0)
    if not rel:
        assert np.array_equal(scaled_km.centroids.values, km.centroids.values * scale)
        # restart 0's principal axes, too
        assert scaled_rkm.loading.values.tobytes() == rkm.loading.values.tobytes()


def test_a_loss_past_the_largest_double_is_a_named_error(scale_data):
    z, rkm, _ = scale_data
    # at 1e307 a column sum overflows too, in restart 0's principal axes
    for scale in (1e160, 1e307):
        X = DataMatrix(z * scale)
        with pytest.raises(ValueError, match="loss overflows a double"):
            fit_rkm(X, SolverConfig(k=4, q=2, restarts=2))
        with pytest.raises(ValueError, match="loss overflows a double"):
            kmeans_fit(X, 4, restarts=2)
        with pytest.raises(ValueError, match="loss overflows a double"):
            rkm_objective(X, rkm.loading, CentroidSet(rkm.centroids.values * scale))


def _demo_draws():
    """40 draws of bench-consistency's demo atoms: two clusters 0.2 wide at
    x = +-1, so a restart's first sweep can cost about 100 times its final
    loss."""
    atoms = np.array([(1.0, 0.1), (1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1)])
    return atoms[np.random.default_rng(0).integers(0, 4, 40)]


def test_a_losing_sweep_past_the_largest_double_does_not_refuse_the_fit():
    # at 2^513 every restart's final loss is a double, but restart 3's
    # first sweeps are not; only the winner is scaled back, and only its
    # final loss has to be a double
    x = _demo_draws()
    config = SolverConfig(k=2, q=1, restarts=10)
    base = fit_rkm(DataMatrix(x), config)
    sol = fit_rkm(DataMatrix(x * 2.0**513), config)
    assert np.array_equal(sol.assignment.labels, base.assignment.labels)
    assert sol.loss == base.loss * 2.0**513 * 2.0**513


def test_an_earlier_sweep_past_the_largest_double_reads_inf():
    from rkmeans import _kernels, solver
    from rkmeans._seeds import spawn_streams

    # restart 3 of the fit above, alone: its first two sweep losses are
    # past the largest double once scaled back, its final loss is not
    x = _demo_draws() * 2.0**513
    a0 = solver._starts(spawn_streams(0, range(10), 1), _kernels.principal_axes(x, 1))
    trace = _kernels.best_restart(x, a0[3:4], 2, spawn_streams(0, [3]), 300)[0][4]
    assert trace[:2] == [np.inf, np.inf]
    assert np.isfinite(trace[-1]) and trace[-1] > 7e306


def test_a_loss_below_the_smallest_double_is_a_named_error():
    # at 1e-170 every loss the fits and the scorers report is near 1e-342,
    # below the smallest double; each names the underflow instead of
    # reporting 0.0, which reads as an exact fit
    from rkmeans import PopulationSpec, population_risk

    x = _demo_draws()
    X = DataMatrix(x * 1e-170)
    named = r"loss underflows a double \(the data reach 1e-170\)"
    with pytest.raises(ValueError, match=named):
        fit_rkm(X, SolverConfig(k=2, q=1, restarts=3))
    with pytest.raises(ValueError, match=named):
        kmeans_fit(X, 2, restarts=3)
    with pytest.raises(ValueError, match=named):
        tandem_fit(X, 2, 1, restarts=3)
    # the scorers, on the unit-scale fit's parameters scaled with the data
    sol = fit_rkm(DataMatrix(x), SolverConfig(k=2, q=1, restarts=3))
    F = CentroidSet(sol.centroids.values * 1e-170)
    with pytest.raises(ValueError, match=named):
        rkm_objective(X, sol.loading, F)
    with pytest.raises(ValueError, match=named):
        population_risk(PopulationSpec(X.values, np.full(X.n, 1 / X.n)), sol.loading, F)


def test_rkm_objective_takes_one_scale_of_x_and_centroids(scale_data):
    # X far below its centroids' range: a scale taken from X alone would
    # lift the centroids by about 2^539 and overflow their squares
    z, rkm, _ = scale_data
    X = DataMatrix(z * 2.0**-540)
    U = assign_clusters(X, rkm.loading, rkm.centroids)
    expected = assigned_objective(X, rkm.loading, rkm.centroids, U)
    assert rkm_objective(X, rkm.loading, rkm.centroids) == \
        pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [1e160, 2.0**510, 2.0**-510, 1e-170],
                         ids=["1e160", "2**510", "2**-510", "1e-170"])
def test_assign_clusters_scores_data_past_the_range_of_its_squares(scale_data, scale):
    # the projected distances overflow at 1e160 and 2**510, and underflow to
    # ties at 1e-170; one power of two for X and F keeps every label
    z, rkm, _ = scale_data
    labels = assign_clusters(DataMatrix(z), rkm.loading, rkm.centroids).labels
    assert np.array_equal(labels, rkm.assignment.labels)
    F = CentroidSet(rkm.centroids.values * scale)
    assert np.array_equal(assign_clusters(DataMatrix(z * scale), rkm.loading, F).labels, labels)


def test_tandem_fits_data_past_the_range_of_its_squares(scale_data):
    # tandem centers and scores at the engine's scale: a power of two keeps
    # every bit, and a loss past the largest double is the solvers' named error
    z = scale_data[0]
    loading, km = tandem_fit(DataMatrix(z), 4, 2, restarts=5)
    for scale in (2.0**510, 2.0**-510):
        scaled_loading, scaled_km = tandem_fit(DataMatrix(z * scale), 4, 2, restarts=5)
        assert scaled_loading.values.tobytes() == loading.values.tobytes()
        assert np.array_equal(scaled_km.assignment.labels, km.assignment.labels)
        assert np.array_equal(scaled_km.centroids.values, km.centroids.values * scale)
        assert scaled_km.loss == km.loss * scale * scale
        # the whole trace goes back by a power of two, each entry exactly
        assert scaled_km.sweep_losses == tuple(v * scale * scale for v in km.sweep_losses)
    with pytest.raises(ValueError, match="loss overflows a double"):
        tandem_fit(DataMatrix(z * 1e307), 4, 2, restarts=2)


def _solution_bits(sol):
    return (sol.restart_index, sol.sweep_losses, sol.loading.values.tobytes(),
            sol.centroids.values.tobytes(), sol.assignment.labels.tobytes())


def _sample_stacks(seed, low):
    """Samples of one support: (case, x, counts (R, n), config, seeds), the
    counts from low to 4 with every sample counting at least k rows, on
    random and integer-grid supports with duplicated rows."""
    rng = np.random.default_rng(seed)
    for case in range(30):
        n, p = int(rng.integers(3, 30)), int(rng.integers(1, 5))
        q, k = int(rng.integers(1, p + 1)), int(rng.integers(1, min(n, 5) + 1))
        x = rng.standard_normal((n, p)) if case % 2 else rng.integers(-2, 3, (n, p)) * 1.0
        x[: n // 4] = x[n // 4: 2 * (n // 4)]
        R = int(rng.integers(1, 6))
        counts = rng.integers(low, 5, (R, n))
        for row in counts:
            live = rng.choice(n, k, replace=False)
            row[live] = np.maximum(row[live], 1)
        config = SolverConfig(k=k, q=q, restarts=int(rng.integers(1, 8)))
        yield case, x, counts, config, rng.integers(0, 2**63, R).tolist()


def test_samples_with_positive_counts_are_their_fit_rkm_fits_bitwise():
    # a stack of samples whose counts are all positive: each sample's
    # solution is fit_rkm's at its counts and seed, bit for bit
    from rkmeans import solver

    for case, x, counts, config, seeds in _sample_stacks(20, low=1):
        sols = solver._fit_samples(DataMatrix(x), config, counts, seeds)
        assert len(sols) == len(counts)
        for sol, row, seed in zip(sols, counts, seeds):
            want = fit_rkm(DataMatrix(x), dataclasses.replace(config, seed=seed), counts=row)
            assert _solution_bits(sol) == _solution_bits(want), f"case {case}"


def test_each_sample_of_a_stack_is_its_lone_fit_at_every_batch_width(monkeypatch):
    # samples with zero counts: at batch widths 1, 2 and all, each sample's
    # solution is that of the entry called on it alone; a zero-count row
    # keeps its nearest-center label, as no repair moves it
    from rkmeans import _kernels, solver

    zeros = 0
    for case, x, counts, config, seeds in _sample_stacks(21, low=0):
        X = DataMatrix(x)
        lone = [_solution_bits(solver._fit_samples(X, config, counts[r:r + 1], seeds[r:r + 1])[0])
                for r in range(len(counts))]
        total = len(counts) * config.restarts
        for width in (1, 2, total):
            monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * X.n * config.k)
            sols = solver._fit_samples(X, config, counts, seeds)
            assert [_solution_bits(sol) for sol in sols] == lone, f"case {case}, width {width}"
        monkeypatch.undo()
        for sol, row in zip(sols, counts):
            idle = row == 0
            zeros += int(idle.sum())
            if idle.any():
                nearest = assign_clusters(DataMatrix(x[idle]), sol.loading, sol.centroids)
                assert np.array_equal(sol.assignment.labels[idle], nearest.labels), f"case {case}"
            assert np.all(np.bincount(sol.assignment.labels, row, minlength=config.k) > 0)
    assert zeros > 100


def test_a_sample_of_exactly_k_counted_rows_fits():
    # k counted rows for k clusters: every cluster holds one of them, and
    # the fit is that of the counted rows alone, to rounding
    from rkmeans import solver

    rng = np.random.default_rng(22)
    for case in range(20):
        n, k = 12, int(rng.integers(1, 5))
        x = rng.standard_normal((n, 2))
        counts = np.zeros((1, n), dtype=np.int64)
        live = rng.choice(n, k, replace=False)
        counts[0, live] = rng.integers(1, 4, k)
        sol, = solver._fit_samples(DataMatrix(x), SolverConfig(k=k, q=1, restarts=3),
                                   counts, [case])
        held = np.bincount(sol.assignment.labels, counts[0], minlength=k)
        assert np.all(held > 0), f"case {case}"
        full = DataMatrix(np.repeat(x, counts[0], axis=0))
        assert sol.loss == pytest.approx(rkm_objective(full, sol.loading, sol.centroids),
                                         rel=1e-12, abs=1e-15), f"case {case}"


def test_group_winners_break_ties_to_the_smallest_index(monkeypatch):
    # best_restart over g groups of restarts returns each group's lowest
    # final loss among its lone runs, ties to the smallest index in it
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    ties = 0
    for case, x, k, q, cap, R in _small_grid_cases(23):
        g = case % 3 + 1
        counts = np.random.default_rng(case).integers(1, 3, (g, len(x)))
        streams = spawn_streams(case, range(g * R))
        lone = [_kernels.sweep_restarts(x, None, k, streams[r:r + 1], cap, counts[r // R])[0]
                for r in range(g * R)]
        for width in (1, 2, g * R):
            monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * len(x) * k)
            winners = _kernels.best_restart(x, None, k, streams, cap, counts)
            assert len(winners) == g
            for group, (r, _, f, labels, trace) in enumerate(winners):
                losses = [run[3][-1] for run in lone[group * R:(group + 1) * R]]
                best = losses.index(min(losses))
                assert (r, trace) == (best, lone[group * R + best][3]), f"case {case}"
                assert f.tobytes() == lone[group * R + best][1].tobytes(), f"case {case}"
                ties += width == 1 and losses.count(min(losses)) > 1
    assert ties > 10, "too few groups had tied losses"


def test_samples_must_count_k_rows():
    from rkmeans import solver

    X = DataMatrix(np.arange(12.0).reshape(6, 2))
    counts = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 5]])
    with pytest.raises(ValueError, match="every sample must count at least k=2 rows"):
        solver._fit_samples(X, SolverConfig(k=2, q=1, restarts=2), counts, [0, 1])
