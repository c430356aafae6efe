"""Baselines: Lloyd k-means, exact 1-D k-means, PCA, tandem pipeline."""
import math

import numpy as np
import pytest

from rkmeans import (
    Assignment,
    DataMatrix,
    DatasetSpec,
    DegenerateDataError,
    RkmSolution,
    adjusted_rand_index,
    generate_dataset,
    kmeans_1d_exact,
    kmeans_fit,
    pca_fit,
    rkm_objective,
    tandem_fit,
)


def test_kmeans_two_points():
    sol = kmeans_fit(DataMatrix([[0.0], [10.0]]), 2, restarts=4, seed=0)
    assert sol.loss == pytest.approx(0.0, abs=1e-18)
    assert sorted(sol.centroids.values.ravel()) == [0.0, 10.0]


def test_kmeans_symmetric_pairs():
    sol = kmeans_fit(DataMatrix([[0.0], [1.0], [10.0], [11.0]]), 2, restarts=8, seed=0)
    assert sorted(sol.centroids.values.ravel()) == [0.5, 10.5]
    assert sol.loss == pytest.approx(0.25, abs=1e-12)


def test_kmeans_loss_recomputes():
    rng = np.random.default_rng(0)
    X = DataMatrix(rng.standard_normal((50, 3)))
    sol = kmeans_fit(X, 4, restarts=5, seed=1)
    diff = X.values - sol.centroids.values[sol.assignment.labels]
    direct = float(np.sum(diff * diff) / X.n)
    assert sol.loss == pytest.approx(direct, rel=1e-9)


def test_kmeans_labels_are_the_nearest_center_argmin():
    # duplicate-heavy small inputs, k up to n and short iteration caps, so
    # runs stop before convergence and finalizing has labels to change; each
    # restart is checked on its own, not only a fit's winner
    from rkmeans import _kernels
    from rkmeans._seeds import spawn_streams

    rng = np.random.default_rng(5)
    for case in range(200):
        n = int(rng.integers(1, 13))
        p = int(rng.integers(1, 3))
        x = rng.integers(0, 3, (n, p)).astype(float)
        k = int(rng.integers(1, n + 1))
        cap = int(rng.integers(1, 6))
        for r in range(2):
            centers, labels, loss, _ = _kernels.lloyd_single(x, k, spawn_streams(case, [r]), cap)
            d = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            nearest = d.min(axis=1)
            near = d <= nearest[:, None] + 1e-9 * (1.0 + nearest[:, None])
            assert np.all(near[np.arange(n), labels])
            assert np.all(np.bincount(labels, minlength=k) > 0)
            # ties go to the smallest index, unless that would empty a cluster
            # (k above the number of distinct rows puts centers on top of each other)
            first = near.argmax(axis=1)
            if np.all(np.bincount(first, minlength=k) > 0):
                assert np.array_equal(labels, first)
            diff = x - centers[labels]
            assert loss == pytest.approx(np.sum(diff * diff) / n, rel=1e-9, abs=1e-12)


def test_kmeans_rejects_bad_arguments():
    X = DataMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        kmeans_fit(X, 0)
    with pytest.raises(ValueError):
        kmeans_fit(X, 4)  # k > n
    with pytest.raises(ValueError):
        kmeans_fit(X, 2, restarts=0)


def _brute_force_kmeans(pts: np.ndarray, k: int) -> float:
    """Exact optimum by enumerating every k^n assignment, vectorized."""
    n = pts.shape[0]
    codes = np.arange(k**n)
    digits = (codes[:, None] // k ** np.arange(n)[None, :]) % k  # (k^n, n)
    sq = np.sum(pts * pts, axis=1)
    total = np.zeros(codes.size)
    for c in range(k):
        mask = digits == c
        counts = mask.sum(axis=1)
        sums = mask.astype(np.float64) @ pts
        tot_sq = mask.astype(np.float64) @ sq
        norm = np.einsum("ij,ij->i", sums, sums)
        total += tot_sq - np.where(counts > 0, norm / np.maximum(counts, 1), 0.0)
    return float(total.min()) / n


def test_kmeans_matches_brute_force_on_subsample():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((40, 2)) * 2.0
    sub = DataMatrix(X[rng.choice(40, size=12, replace=False)])
    exact = _brute_force_kmeans(sub.values, 3)
    sol = kmeans_fit(sub, 3, restarts=50, seed=0)
    assert sol.loss >= exact - 1e-12
    assert sol.loss == pytest.approx(exact, rel=1e-9)


def test_1d_exact_hand_cases():
    sol = kmeans_1d_exact([0.0, 10.0], 2)
    assert sol.loss == pytest.approx(0.0, abs=1e-18)
    # {0,1,2} with k=2: {0,1}{2} at cost 0.5 beats {0}{1,2} only by tie-break
    sol = kmeans_1d_exact([0.0, 1.0, 2.0], 2)
    assert sol.assignment.labels.tolist() == [0, 0, 1]
    assert sol.loss == pytest.approx(0.5 / 3.0, rel=1e-12)
    assert sol.centroids.values.ravel().tolist() == [0.5, 2.0]


def test_1d_exact_rejects_unsorted():
    with pytest.raises(ValueError):
        kmeans_1d_exact([3.0, 1.0, 2.0], 2)
    with pytest.raises(ValueError):
        kmeans_1d_exact([1.0], 2)  # k > n
    with pytest.raises(ValueError, match="non-empty"):
        kmeans_1d_exact([], 1)
    with pytest.raises(ValueError, match="match values in length"):
        kmeans_1d_exact([1.0, 2.0], 1, weights=[1.0])
    for weights in ([1.0, -1.0, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="nonnegative with positive sum"):
            kmeans_1d_exact([1.0, 2.0, 3.0], 2, weights=weights)


@pytest.mark.parametrize("values, weights", [
    ([1.0, float("nan"), 3.0], None),
    ([1.0, 2.0, float("inf")], None),
    ([-float("inf"), 1.0, 2.0], None),
    ([1.0, 2.0, 3.0], [1.0, float("nan"), 1.0]),
    ([1.0, 2.0, 3.0], [1.0, float("inf"), 1.0]),
])
def test_1d_exact_rejects_non_finite(values, weights):
    # NaN passes the sortedness check and an infinity turns the prefix sums
    # into NaN, so either would come back as a silent loss=nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        kmeans_1d_exact(values, 2, weights=weights)


def _enumerate_contiguous(v: np.ndarray, k: int, w: np.ndarray | None = None) -> float:
    """Least weighted SSE over all partitions of sorted v into k contiguous
    blocks, per unit weight; each block is scored about its weighted mean."""
    import itertools

    n = v.size
    w = np.ones(n) if w is None else w
    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        cost = 0.0
        for a, b in zip(bounds, bounds[1:]):
            cost += _block_cost(v[a:b], w[a:b])
        best = min(best, cost)
    return best / float(w.sum())


def _block_cost(seg: np.ndarray, w: np.ndarray) -> float:
    if w.sum() <= 0:
        return 0.0
    mean = float(w @ seg) / float(w.sum())
    return float(w @ (seg - mean) ** 2)


def test_1d_exact_matches_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(4, n) + 1))
        v = np.sort(rng.uniform(-5, 5, n))
        sol = kmeans_1d_exact(v, k)
        assert sol.loss == pytest.approx(_enumerate_contiguous(v, k), rel=1e-11, abs=1e-14)


def test_1d_weighted_matches_enumeration():
    # zero weights and tied values included; the reference scores every
    # block directly about its weighted mean, without prefix sums
    rng = np.random.default_rng(23)
    for case in range(150):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, min(4, n) + 1))
        v = np.sort(rng.uniform(-5, 5, n))
        if case % 2:
            v = np.round(v)
        w = rng.uniform(0.0, 2.0, n)
        w[rng.random(n) < 0.3] = 0.0
        if w.sum() <= 0:
            w[int(rng.integers(n))] = 1.0
        sol = kmeans_1d_exact(v, k, weights=w)
        best = _enumerate_contiguous(v, k, w)
        assert sol.loss == pytest.approx(best, rel=1e-10, abs=1e-12)
        labels = sol.assignment.labels
        assert np.all(np.diff(labels) >= 0)
        assert np.array_equal(np.unique(labels), np.arange(k))
        own = sum(_block_cost(v[labels == j], w[labels == j]) for j in range(k))
        assert own / w.sum() == pytest.approx(best, rel=1e-10, abs=1e-12)
        for j in range(k):
            run = np.flatnonzero(labels == j)
            if w[run].sum() > 0:
                mean = float(w[run] @ v[run]) / float(w[run].sum())
                assert sol.centroids.values[j, 0] == pytest.approx(mean, rel=1e-12, abs=1e-12)
            else:
                assert sol.centroids.values[j, 0] == v[run[0]]


def test_1d_weighted_equals_repetition():
    v = np.array([0.0, 1.0, 4.0, 9.0])
    w = np.array([2.0, 1.0, 3.0, 1.0])
    weighted = kmeans_1d_exact(v, 2, weights=w)
    repeated = kmeans_1d_exact(np.repeat(v, [2, 1, 3, 1]), 2)
    assert weighted.loss == pytest.approx(repeated.loss, rel=1e-12)
    assert np.allclose(np.sort(weighted.centroids.values.ravel()), np.sort(repeated.centroids.values.ravel()))


@pytest.mark.parametrize("weight", [1e300, 1e308, 1e-320])
def test_1d_exact_weights_at_any_scale(weight):
    # the objective does not see the weights' scale: weights whose products
    # with the values overflow, whose sum overflows, or that are subnormal
    # must give the unit-weight optimum of [0, 1, 5, 6] at k = 2, with no
    # floating-point warning on the way
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = kmeans_1d_exact([0.0, 1.0, 5.0, 6.0], 2, weights=np.full(4, weight))
    assert sol.loss == pytest.approx(0.25, rel=1e-12)
    assert sol.centroids.values.ravel() == pytest.approx([0.5, 5.5], rel=1e-12)
    assert sol.assignment.labels.tolist() == [0, 0, 1, 1]


def test_1d_exact_runs_at_one_scale():
    # criterion 10's draws: the squares overflow at 2^514 and go subnormal
    # at 2^-514. A power of two carries through the DP exactly, and a loss
    # past the largest double is the solvers' named error
    named = 0
    for s in range(200):
        rng = np.random.default_rng(7000 + s)
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, min(4, n) + 1))
        v = np.sort(rng.uniform(-5, 5, n))
        base = kmeans_1d_exact(v, k)
        for e in (514, -514):
            try:
                loss = math.ldexp(base.loss, 2 * e)
            except OverflowError:
                with pytest.raises(ValueError, match="loss overflows a double"):
                    kmeans_1d_exact(v * 2.0**e, k)
                named += 1
                continue
            sol = kmeans_1d_exact(v * 2.0**e, k)
            assert np.array_equal(sol.assignment.labels, base.assignment.labels)
            assert np.array_equal(sol.centroids.values, base.centroids.values * 2.0**e)
            assert sol.loss == loss
    assert 0 < named < 200
    with pytest.raises(ValueError, match="loss overflows a double"):
        kmeans_1d_exact(np.array([-2.0, -1.0, 1.0, 3.0]) * 1e160, 2)


def test_1d_exact_is_translation_safe():
    # the sorted first column of a seed-0 Z, offset so far that the prefix
    # sums of squares would round at the offset's square: the labels are
    # the optimal cut and the loss is theirs, both to the docstring's
    # n * eps * spread^2 of a shifted DP, scored in longdouble on the values
    # less their middle one (an exact subtraction)
    z = np.sort(generate_dataset(DatasetSpec(K=4, q=2, p1=2, p2=5, p3=5, n=300)).Z.values[:, 0])
    n, eps = z.size, np.finfo(float).eps
    # every cut into three runs [0, a), [a, b), [b, n)
    a, b = np.triu_indices(n, 1)
    a, b = a[a > 0], b[a > 0]
    for offset in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        v = z + offset
        c = v.astype(np.longdouble) - v[n // 2]
        s1 = np.concatenate(([0.0], np.cumsum(c - c.mean())))
        s2 = np.concatenate(([0.0], np.cumsum((c - c.mean()) ** 2)))

        def sse(lo, hi):
            return (s2[hi] - s2[lo]) - (s1[hi] - s1[lo]) ** 2 / (hi - lo)

        optimum = np.min(sse(0, a) + sse(a, b) + sse(b, n)) / n
        tol = n * eps * float(np.var(c))
        sol = kmeans_1d_exact(v, 3)
        labels = sol.assignment.labels
        own = sum(np.sum((c[labels == j] - c[labels == j].mean()) ** 2) for j in range(3)) / n
        assert abs(own - optimum) <= tol, offset
        assert abs(sol.loss - own) <= tol, offset


def test_kmeans_dominates_1d_oracle():
    hits = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        v = np.sort(np.concatenate([rng.normal(-3, 1, 15), rng.normal(3, 1, 15)]))
        exact = kmeans_1d_exact(v, 3)
        lloyd = kmeans_fit(DataMatrix(v[:, None]), 3, restarts=20, seed=s)
        assert lloyd.loss >= exact.loss - 1e-12
        if lloyd.loss <= exact.loss * (1 + 1e-9) + 1e-15:
            hits += 1
    assert hits >= 95, f"Lloyd matched the exact optimum on only {hits}/100 instances"


def test_pca_sign_convention_and_orthonormality():
    rng = np.random.default_rng(2)
    X = DataMatrix(np.column_stack([rng.standard_normal(30) * 5, np.zeros(30), np.zeros(30)]))
    A = pca_fit(X, 1)
    assert np.allclose(A.values.ravel(), [1.0, 0.0, 0.0], atol=1e-12)
    # general data: columns orthonormal, pivot entries positive
    Y = DataMatrix(rng.standard_normal((40, 5)))
    B = pca_fit(Y, 3)
    assert np.allclose(B.values.T @ B.values, np.eye(3), atol=1e-10)
    for c in range(3):
        col = B.values[:, c]
        assert col[np.abs(col).argmax()] > 0


def test_pca_reconstruction_matches_trailing_spectrum():
    rng = np.random.default_rng(6)
    X = DataMatrix(rng.standard_normal((25, 6)))
    xc = X.values - X.values.mean(axis=0)
    svals = np.linalg.svd(xc, compute_uv=False)
    prev_err = np.inf
    for q in range(1, 7):
        A = pca_fit(X, q)
        resid = xc - xc @ A.values @ A.values.T
        err = float(np.sum(resid * resid) / X.n)
        assert err == pytest.approx(float(np.sum(svals[q:] ** 2) / X.n), rel=1e-9, abs=1e-12)
        assert err <= prev_err + 1e-12
        prev_err = err


def test_pca_rejects_impossible_q():
    X = DataMatrix(np.ones((5, 3)) + np.arange(5)[:, None])
    with pytest.raises(ValueError):
        pca_fit(X, 4)
    with pytest.raises(DegenerateDataError):
        pca_fit(DataMatrix([[1.0, 2.0, 3.0]]), 2)  # single row: rank 0 after centering


def test_tandem_recovers_aligned_clusters():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 2, 80)
    centers = np.array([[-10.0, 0.0], [10.0, 0.0]])
    X = DataMatrix(centers[labels] + 0.5 * rng.standard_normal((80, 2)))
    A, km = tandem_fit(X, 2, 1, restarts=10, seed=0)
    assert adjusted_rand_index(Assignment(labels, 2), km.assignment) == 1.0
    assert abs(A.values[0, 0]) > 0.99  # subspace is the separating axis


def test_tandem_full_dimension_equals_kmeans():
    rng = np.random.default_rng(4)
    X = DataMatrix(rng.standard_normal((60, 3)) + rng.integers(0, 3, 60)[:, None] * 4.0)
    _, tkm = tandem_fit(X, 3, 3, restarts=10, seed=5)
    km = kmeans_fit(X, 3, restarts=10, seed=5)
    assert tkm.loss == pytest.approx(km.loss, rel=1e-9)


def test_every_kmeans_fit_is_a_reduced_kmeans_solution():
    # k-means is reduced k-means with the loading held at the identity: each
    # k-means result carries that loading, and its loss is the objective of
    # its own (loading, centroids) on the data it clustered
    X = generate_dataset(DatasetSpec(K=4, q=2, p1=2, p2=5, p3=5, n=300, seed=0)).X
    A, tandem = tandem_fit(X, 4, 2, restarts=5)
    v = np.sort(X.values[:, 0])
    exact = kmeans_1d_exact(v, 3)
    for name, data, sol in [
        ("kmeans_fit", X.values, kmeans_fit(X, 4, restarts=5)),
        ("tandem_fit", (X.values - X.values.mean(axis=0)) @ A.values, tandem),
        ("kmeans_1d_exact", v[:, None], exact),
    ]:
        data = DataMatrix(data)
        assert isinstance(sol, RkmSolution), name
        assert sol.loading.values.tobytes() == np.eye(data.p).tobytes(), name
        assert sol.loss == pytest.approx(
            rkm_objective(data, sol.loading, sol.centroids), rel=1e-12, abs=0.0), name
    # the DP has no restarts and no sweeps
    assert (exact.restart_index, exact.sweep_losses, exact.iterations) == (0, (exact.loss,), 0)
