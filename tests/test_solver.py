"""Alternating least squares solver: block updates, descent, determinism."""
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

    def counted(y, f, labels, counts):
        before = len(repairs)
        result = finalize(y, f, labels, counts)
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

    if held:
        return None
    config = SolverConfig(k=k, q=q, restarts=R, seed=case)
    return solver._starts(config, _kernels.principal_axes(x, q), range(R))


def _seeding_streams(case, R):
    """Restart r's k-means++ stream, as both solvers draw it."""
    from rkmeans._seeds import spawn_rng

    return [spawn_rng(case, r) for r in range(R)]


@pytest.mark.parametrize("held", [False, True], ids=["rkm", "lloyd"])
def test_restart_batches_are_width_invariant(held, monkeypatch):
    # every restart's (A, F, labels, trace) must not depend on how many
    # restarts share its batch: widths 1, 2 and all of them
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_rng

    repair = _kernels.repair_empty_clusters
    repairs = []
    monkeypatch.setattr(_kernels, "repair_empty_clusters",
                        lambda *args: repairs.append(1) or repair(*args))
    for case, x, k, q, cap, R in _small_grid_cases(5 + held):
        a0 = _batch_loadings(held, case, x, k, q, R)
        runs = {}
        for width in (1, 2, R):
            results, rngs = [], _seeding_streams(case, R)
            for first in range(0, R, width):
                part = slice(first, first + width)
                results += _kernels.sweep_restarts(
                    x, None if held else a0[part], k, rngs[part], cap)
            runs[width] = [_run_bits(result) for result in results]
        assert runs[1] == runs[2] == runs[R], f"case {case}"
        if held:
            for r, (_, _, _, trace) in enumerate(results):
                centers, labels, loss, iterations = _kernels.lloyd_single(
                    x, k, spawn_rng(case, r), cap)
                assert runs[1][r][:3] == (None, centers.tobytes(), labels.tobytes())
                assert (repr(loss), iterations) == (repr(trace[-1]), len(trace) - 1)
    assert repairs, "no input exercised the empty-cluster repair"


def test_fit_is_the_best_width_one_run_at_every_batch_width(monkeypatch):
    # fit_rkm batches its restarts; at any batch width it must return the
    # lowest-loss restart of lone runs, ties going to the smallest index
    from rkmeans import _kernels, solver

    ties = 0
    for case, x, k, q, cap, R in _small_grid_cases(9):
        X = DataMatrix(x)
        config = SolverConfig(k=k, q=q, restarts=R, seed=case)
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        a0 = solver._starts(config, _kernels.principal_axes(x, q), range(R))
        lone = [_kernels.sweep_restarts(x, a0[r:r + 1], k, [rng], cap)[0]
                for r, rng in enumerate(_seeding_streams(case, R))]
        losses = [trace[-1] for _, _, _, trace in lone]
        best = losses.index(min(losses))
        ties += losses.count(min(losses)) > 1
        a, f, labels, trace = lone[best]
        for width in (1, 2, R):
            monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * x.shape[0] * k)
            sol = fit_rkm(X, config)
            assert (sol.restart_index, repr(sol.loss), sol.sweep_losses, sol.iterations) == \
                (best, repr(trace[-1]), tuple(trace), len(trace) - 1), \
                f"case {case}, width {width}"
            assert sol.loading.values.tobytes() == a.tobytes()
            assert sol.centroids.values.tobytes() == f.tobytes()
            assert np.array_equal(sol.assignment.labels, labels)
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
    # fit_rkm and kmeans_fit seed restart r's k-means++ from a fresh
    # spawn_rng(seed, r), once per restart and in restart order, across
    # batches too: the two solvers stay restart-for-restart comparable, and
    # a tracer can read each seeding as a restart boundary
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_rng

    def stream(rng):
        state = rng.bit_generator.state["state"]  # Philox: key and counter
        return state["key"].tolist(), state["counter"].tolist()

    seed_centers = _kernels.kmeans_pp_init
    seen = []

    def recording(y, k, rng):
        seen.append(stream(rng))
        return seed_centers(y, k, rng)

    monkeypatch.setattr(_kernels, "kmeans_pp_init", recording)
    n, k, R, seed = 30, 3, 7, 11
    X = DataMatrix(np.random.default_rng(4).standard_normal((n, 3)))
    want = [stream(spawn_rng(seed, r)) for r in range(R)]
    for width in (1, 3, R):
        monkeypatch.setattr(_kernels, "BATCH_DOUBLES", width * n * k)
        seen.clear()
        fit_rkm(X, SolverConfig(k=k, q=2, restarts=R, seed=seed))
        assert seen == want, f"fit_rkm, width {width}"
    seen.clear()
    kmeans_fit(X, k, restarts=R, seed=seed)
    assert seen == want, "kmeans_fit"


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
        assert np.array_equal(scaled_km.centers, km.centers * scale)
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
