"""The kernels' bit contract: every pass runs along the n objects, yet each
result carries the bits of the numpy reductions over short axes it replaces.

Each reference below is the plain numpy form (row sums by ``np.sum``,
labels by ``argmin`` over a row-major (n, k) block, a per-restart start
loop); the fits' byte-identical output rests on these equalities.
"""
import numpy as np
import pytest

from rkmeans import CentroidSet, SolverConfig, _kernels, directed_hausdorff, solver
from rkmeans._seeds import spawn_rng, spawn_streams


def _row_major_nearest(y, centers):
    # the (..., n, k) expanded-form block, then argmin and the minima it picks
    cross = y @ np.swapaxes(centers, -1, -2)
    d = np.sum(y * y, axis=-1)[..., :, None] + np.sum(centers * centers, axis=-1)[..., None, :]
    cross *= 2.0
    d -= cross
    np.maximum(d, 0.0, out=d)
    labels = d.argmin(axis=-1)
    return d, labels, np.take_along_axis(d, labels[..., None], axis=-1)[..., 0]


def _lone_kmeans_pp(y, k, rng, counts):
    # k-means++ on the rows y (n, d) of one restart, its draws taken in turn
    # from rng: the first center a uniform copy of the N = sum(counts),
    # later ones by searchsorted on the cumulative counts * d2, and a
    # uniform copy again where that mass sums to 0
    cum = np.cumsum(counts)

    def any_row():
        return int(np.searchsorted(cum, int(rng.integers(int(cum[-1]))), side="right"))

    centers = np.empty((k, y.shape[1]))
    centers[0] = y[any_row()]
    if k == 1:
        return centers
    diff = y - centers[0]
    d2 = _kernels._row_sums(diff * diff)
    for j in range(1, k):
        mass = counts * d2
        total = float(mass.sum())
        if total > 0.0:
            idx = int(np.searchsorted(np.cumsum(mass), rng.random() * total, side="right"))
            # a pick past the end falls back to the last counted row
            idx = min(idx, int(np.flatnonzero(counts)[-1]))
        else:
            idx = any_row()
        centers[j] = y[idx]
        if j < k - 1:
            diff = y - centers[j]
            np.minimum(d2, _kernels._row_sums(diff * diff), out=d2)
    return centers


def _distance_cases(seed, scale=1.0):
    # (y, centers) stacks: random, integer-grid ties, duplicated rows, k = 1
    # and k = n, coordinates up to 16 and clusters up to 10, then large ones
    rng = np.random.default_rng(seed)
    for case in range(240):
        w, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        d = int(rng.integers(1, 17))
        k = (1, n, int(rng.integers(1, 11)))[case % 3]
        if case % 4 == 1:
            y = rng.integers(-2, 3, (w, n, d)).astype(float)
            centers = rng.integers(-2, 3, (w, k, d)).astype(float)
        else:
            y = rng.standard_normal((w, n, d))
            centers = rng.standard_normal((w, k, d))
        if case % 4 == 2:
            y[:, n // 2:] = y[:, : n - n // 2]
            centers = y[:, rng.integers(0, n, k)]
        yield case, y * scale, centers * scale
    # the sizes the fits run at, since BLAS may block a larger product
    # differently: consistency's and agreement's batches (held at d = p = 15),
    # then n = 20000 as in bigfit's fits and in held mode at wider p
    for case, (w, n, k, d) in enumerate([
            (20, 800, 2, 1), (5, 3200, 2, 1), (10, 400, 8, 1), (10, 400, 8, 7),
            (10, 400, 8, 15), (1, 20000, 8, 2), (1, 20000, 2, 2), (1, 20000, 8, 15),
            (1, 20000, 2, 25), (1, 20000, 8, 25), (1, 20000, 2, 64), (1, 20000, 8, 64)],
            start=240):
        y = rng.standard_normal((w, n, d))
        centers = y[:, rng.choice(n, k, replace=False)] + rng.standard_normal((w, k, d))
        yield case, y * scale, centers * scale


@pytest.mark.parametrize("d", range(1, 131))
def test_row_sums_are_numpy_row_sums_bitwise(d):
    # the canary if numpy changes its summation order: below 8 terms numpy
    # folds left from 0.0, longer rows run its pairwise lanes (eight of them
    # to 128 terms, then halves), which a left fold does not reproduce
    rng = np.random.default_rng(d)
    for shape in [(37, d), (3, 11, d)]:
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        v[0] = -0.0
        assert _kernels._row_sums(v).tobytes() == np.sum(v, axis=-1).tobytes(), shape


@pytest.mark.parametrize("d", range(1, 12))
def test_square_sums_are_the_row_sums_of_squares_bitwise(d):
    # the column fold below 8 columns forms no difference or square array,
    # yet adds as _row_sums of the squared differences does; from 8 columns
    # up it is that expression
    rng = np.random.default_rng(40 + d)
    for v_shape, c_shape in [((37, d), (37, d)), ((3, 11, d), (3, 1, d)), ((3, 11, d), (11, d))]:
        v = rng.standard_normal(v_shape) * 10.0 ** rng.integers(-6, 7, size=v_shape)
        c = rng.standard_normal(c_shape)
        v[0] = -0.0
        for args, diff in (((v,), v), ((v, c), v - c)):
            want = _kernels._row_sums(diff * diff)
            got = _kernels._square_sums(*args)
            assert got.shape == want.shape, v_shape
            assert got.tobytes() == want.tobytes(), (v_shape, c_shape, len(args))


def _matmul_block(y, centers):
    # the distance block with every cross product formed by matmul
    y_sq = _kernels._row_sums(y * y)
    d = np.empty((centers.shape[-2], *y.shape[:-1]))
    np.matmul(centers, np.swapaxes(y, -1, -2), out=np.moveaxis(d, 0, -2))
    d *= -2.0
    c_sq = _kernels._row_sums(centers * centers)
    for j in range(len(d)):
        d[j] += y_sq + c_sq[..., j, None]
    np.maximum(d, 0.0, out=d)
    return d


def test_one_column_distance_block_is_the_matmul_block_bitwise():
    # at d = 1 the block multiplies instead of calling matmul; each entry is
    # one product, so the bits agree, a zero score against a negative center
    # (a -0.0 product) included
    cases = [(y, c) for _, y, c in _distance_cases(12) if y.shape[-1] == 1]
    rng = np.random.default_rng(13)
    zeros = np.zeros((4, 9, 1))
    zeros[:, ::2] = -0.0
    cases += [(zeros, -np.abs(rng.standard_normal((4, 3, 1)))),
              (zeros, np.array([[[-1.0], [0.0], [-0.0]]] * 4)),
              (np.broadcast_to(rng.standard_normal((30, 1)), (5, 30, 1)),
               rng.standard_normal((5, 2, 1)))]
    assert len(cases) > 20
    for y, centers in cases:
        got = _kernels._distance_block(y, centers)
        assert got.tobytes() == _matmul_block(y, centers).tobytes()


def test_nearest_is_the_row_major_argmin_bitwise():
    ties = 0
    for case, y, centers in _distance_cases(0):
        d, labels, low = _row_major_nearest(y, centers)
        got_labels, got_low = _kernels._nearest(y, centers)
        assert got_labels.dtype == labels.dtype
        assert got_labels.tobytes() == labels.tobytes(), f"case {case}"
        assert got_low.tobytes() == low.tobytes(), f"case {case}"
        ties += int(np.sum(np.sum(d == low[..., None], axis=-1) > 1))
        for r in range(y.shape[0]):
            one_labels, one_low = _kernels._nearest(y[r], centers[r])
            assert one_labels.tobytes() == labels[r].tobytes(), f"case {case}"
            assert one_low.tobytes() == low[r].tobytes(), f"case {case}"
            assert _kernels.sq_distances(y[r], centers[r]).tolist() == d[r].tolist()
            assert _kernels.assign_to_nearest(y[r], centers[r]).tolist() == labels[r].tolist()
    assert ties > 100, "too few tied rows to pin the first-index rule"


def test_nearest_sq_is_the_scorers_difference_form_bitwise():
    # vr_hat sums the minima, the lab weighs them by @, and
    # directed_hausdorff took the sqrt before the min and the max
    rng = np.random.default_rng(1)
    zeros = ties = 0
    for q in range(1, 8):
        for k in range(1, 9):
            w = rng.random(30)
            for kind in ("normal", "grid", "duplicates"):
                if kind == "normal":
                    y, f = rng.standard_normal((30, q)), rng.standard_normal((k, q))
                else:
                    y = rng.integers(-2, 3, (30, q)).astype(float)
                    f = rng.integers(-2, 3, (k, q)).astype(float)
                if kind == "duplicates":
                    y[15:] = y[:15]
                    f = y[rng.integers(0, 30, k)]
                d = y[:, None, :] - f[None, :, :]
                block = np.sum(d * d, axis=2)
                old = block.min(axis=1)
                got = _kernels.nearest_sq(y, f)
                assert got.tobytes() == old.tobytes(), (q, k, kind)
                assert float(got.sum()) == float(old.sum())
                assert (w @ got).tobytes() == (w @ old).tobytes()
                hausdorff = np.sqrt(np.sum(d * d, axis=2)).min(axis=1).max()
                got_h = directed_hausdorff(CentroidSet(y), CentroidSet(f))
                assert np.float64(got_h).tobytes() == hausdorff.tobytes(), (q, k, kind)
                zeros += int(np.sum(got == 0.0))
                ties += int(np.sum(np.sum(block == old[:, None], axis=1) > 1))
    assert zeros > 500, "too few rows on a center to pin the exact zeros"
    assert ties > 500, "too few tied rows"


def test_weighted_vr_with_unit_weights_is_the_plain_ratio_bitwise():
    # the sample's ratio is the weighted one at unit weights: within-cluster
    # sum of nearest distances over the flat sum of squares about y.mean
    rng = np.random.default_rng(4)
    zeros = 0
    for q in range(1, 8):
        for kind in ("normal", "grid", "duplicates"):
            n, p = int(rng.integers(q + 1, 60)), q + int(rng.integers(0, 4))
            k = int(rng.integers(1, 9))
            if kind == "normal":
                x, f = rng.standard_normal((n, p)), rng.standard_normal((k, q))
            else:
                x = rng.integers(-2, 3, (n, p)).astype(float)
                f = rng.integers(-2, 3, (k, q)).astype(float)
            u, _, vh = np.linalg.svd(rng.standard_normal((p, q)), full_matrices=False)
            a = u @ vh
            if kind == "duplicates":
                x[n // 2:] = x[:n - n // 2]
                f = (x @ a)[rng.integers(0, n, k)]
            y = x @ a
            centered = y - y.mean(axis=0)
            plain = float(_kernels.nearest_sq(y, f).sum()) / float(np.sum(centered * centered))
            got = _kernels.weighted_vr(x, np.ones(n), a, f)
            assert np.float64(got).tobytes() == np.float64(plain).tobytes(), (q, kind)
            zeros += int(np.sum(_kernels.nearest_sq(y, f) == 0.0))
    assert zeros > 20, "too few rows on a centroid to pin the exact zeros"


def test_stacked_polar_is_the_row_major_product_bitwise():
    # M = (UF)'X must sum as the product over the row-major gather (w, n, q)
    rng = np.random.default_rng(2)
    for n, p, q, k, w in [(20000, 15, 2, 8, 1), (400, 15, 3, 8, 10), (400, 15, 7, 8, 4),
                          (50, 2, 1, 2, 30), (3200, 2, 1, 2, 5), (7, 4, 4, 7, 3),
                          (331, 10, 2, 2, 3), (1103, 10, 3, 3, 2), (2645, 11, 5, 7, 2)]:
        x = rng.standard_normal((n, p))
        labels = rng.integers(0, k, (w, n))
        f = rng.standard_normal((w, k, q))
        g = np.stack([f[r][labels[r]] for r in range(w)])
        u, _, vh = np.linalg.svd(np.swapaxes(g, -1, -2) @ x, full_matrices=False)
        want = np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)
        bins = _kernels._offset(labels, k)
        assert _kernels._stacked_polar(x, bins, f).tobytes() == want.tobytes(), (n, p, q, k)


def test_stacked_scores_are_the_per_restart_products_bitwise():
    # sweep_restarts forms every restart's scores x @ a[r] in one stacked
    # product written into its own buffer, from the starts' loadings and then
    # each sweep's; every slice must carry the bits of the lone 2-D product
    rng = np.random.default_rng(4)
    for n, p, q, w in [(400, 15, 1, 25), (400, 15, 2, 25), (400, 15, 7, 25), (400, 15, 4, 13),
                       (50, 2, 1, 20), (200, 2, 1, 20), (800, 2, 1, 20), (3200, 2, 1, 20),
                       (20000, 15, 2, 1), (7, 4, 4, 3), (331, 10, 3, 6)]:
        x = rng.standard_normal((n, p))
        a = rng.standard_normal((w, p, q))
        scores = np.empty((w + 2, n, q))
        got = np.matmul(x, a, out=scores[:w])
        for r in range(w):
            assert got[r].tobytes() == (x @ a[r]).tobytes(), (n, p, q, w, r)


def test_stacked_starts_are_the_per_restart_loop_bitwise(monkeypatch):
    # the starts' stacked SVD gives each restart the loading of its own, and
    # the engine seeds each restart's centers on its own x @ a, as a lone
    # k-means++ run from its own stream would
    seed_centers = _kernels.kmeans_pp_init
    seeded = []

    def recording(y, k, streams, counts):
        centers = seed_centers(y, k, streams, counts)
        seeded.extend(centers.copy())  # a repair may move the engine's copy
        return centers

    monkeypatch.setattr(_kernels, "kmeans_pp_init", recording)
    rng = np.random.default_rng(3)
    for case in range(40):
        n, p = int(rng.integers(2, 120)), int(rng.integers(1, 9))
        q, k = int(rng.integers(1, p + 1)), int(rng.integers(1, min(n, 8) + 1))
        x = rng.standard_normal((n, p))
        config = SolverConfig(k=k, q=q, restarts=int(rng.integers(1, 11)), seed=case)
        pca_a = _kernels.principal_axes(x, q)
        restarts = range(config.restarts)
        a0 = solver._starts(spawn_streams(case, restarts, 1), pca_a)
        seeded.clear()
        _kernels.sweep_restarts(x, a0, k, spawn_streams(case, restarts), 1)
        assert len(a0) == len(seeded) == config.restarts, f"case {case}"
        for r in restarts:
            if r == 0:
                a = pca_a
            else:
                u, _, vh = np.linalg.svd(spawn_rng(case, r, 1).standard_normal((p, q)),
                                         full_matrices=False)
                a = u @ vh
            f = _lone_kmeans_pp(x @ a, k, spawn_rng(case, r), np.ones(n, int))
            assert a0[r].tobytes() == a.tobytes(), f"case {case}, restart {r}"
            assert seeded[r].tobytes() == f.tobytes(), f"case {case}, restart {r}"


def _seeding_stacks(seed):
    """(y (w, n, d), counts or None, k) stacks for k-means++: random and
    integer-grid scores, k = 1..8, w = 1..25, and slices with fewer distinct
    rows than k (one distinct row among them) mixed into normal batches, so
    that some restarts run out of mass while others do not."""
    rng = np.random.default_rng(seed)
    for case in range(160):
        k, w = case % 8 + 1, int(rng.integers(1, 26))
        n, d = int(rng.integers(k, 40)), int(rng.integers(1, 10))
        y = rng.standard_normal((w, n, d)) if case % 2 else rng.integers(-2, 3, (w, n, d)) * 1.0
        for r in np.flatnonzero(rng.random(w) < 0.3):
            distinct = int(rng.integers(1, k + 1))
            y[r] = y[r][rng.integers(0, distinct, n)]
        counts = rng.integers(1, 6, n) if case % 3 else None
        yield case, y, counts, k


def test_stacked_kmeans_pp_is_the_lone_seeding_bitwise():
    # one stacked call seeds every restart of a batch as a lone run from its
    # own stream would, with and without counts, including restarts whose
    # mass sums to 0 part way (they re-draw from their stream's start)
    exhausted = 0
    for case, y, counts, k in _seeding_stacks(6):
        c = np.ones(y.shape[1], dtype=np.int64) if counts is None else counts
        w = len(y)
        got = _kernels.kmeans_pp_init(y, k, spawn_streams(case, range(w)), c)
        assert got.shape == (w, k, y.shape[2])
        for r in range(w):
            want = _lone_kmeans_pp(y[r], k, spawn_rng(case, r), c)
            assert got[r].tobytes() == want.tobytes(), f"case {case}, restart {r}"
            exhausted += len(np.unique(y[r], axis=0)) < k
    assert exhausted > 50, "too few restarts ran out of mass"


def test_stacked_kmeans_pp_seeds_a_shared_stack():
    # the held loading's zero-stride stack: every restart seeds on the same
    # rows, each from its own stream
    rng = np.random.default_rng(8)
    for case in range(20):
        n, d, k, w = 30, int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 26))
        x = rng.integers(-1, 2, (n, d)) * 1.0
        counts = rng.integers(1, 4, n)
        got = _kernels.kmeans_pp_init(np.broadcast_to(x, (w, n, d)), k,
                                      spawn_streams(case, range(w)), counts)
        for r in range(w):
            want = _lone_kmeans_pp(x, k, spawn_rng(case, r), counts)
            assert got[r].tobytes() == want.tobytes(), f"case {case}, restart {r}"


def test_stacked_kmeans_pp_never_draws_a_zero_count_row():
    # per-restart counts (w, n) with zeros: each restart seeds as a lone
    # run on its own counts would, and a row of count 0 has no copies and no
    # mass, so it is never a center, also where a restart's mass runs out
    rng = np.random.default_rng(14)
    exhausted = 0
    for case in range(120):
        k, w = case % 6 + 1, int(rng.integers(1, 20))
        n, d = int(rng.integers(k + 1, 30)), int(rng.integers(1, 4))
        y = rng.integers(-2, 3, (w, n, d)) * 1.0 if case % 2 else rng.standard_normal((w, n, d))
        counts = rng.integers(0, 4, (w, n)) * (rng.random((w, n)) < 0.6)
        for r in range(w):
            live = rng.choice(n, k, replace=False)
            counts[r, live] = np.maximum(counts[r, live], 1)
            if r % 3 == 0:
                # k counted rows, one of them repeated: the mass runs out
                y[r, live[1:]] = y[r, live[0]]
            # every zero-count row sits apart from every counted row
            y[r, counts[r] == 0] = 100.0 + np.arange(n)[counts[r] == 0, None]
        got = _kernels.kmeans_pp_init(y, k, spawn_streams(case, range(w)), counts)
        for r in range(w):
            want = _lone_kmeans_pp(y[r], k, spawn_rng(case, r), counts[r])
            assert got[r].tobytes() == want.tobytes(), f"case {case}, restart {r}"
            assert np.all(got[r] < 100.0), f"case {case}, restart {r}"
            exhausted += len(np.unique(y[r][counts[r] > 0], axis=0)) < k
    assert exhausted > 20, "too few restarts ran out of mass"


def test_a_repair_moves_no_zero_count_row():
    # cluster 1's only members have count 0, so it is empty: the repair
    # moves a counted row of a cluster with two counted rows, and the
    # zero-count rows keep their nearest-center labels
    y = np.array([[0.0], [0.2], [0.4], [5.0], [5.1]])
    weights = np.array([[1.0, 2.0, 1.0, 0.0, 0.0]])
    f = np.array([[[0.1], [5.0]]])
    means, labels, _, sizes = _kernels._means_step(y[None], f, weights)
    assert labels[0, 3:].tolist() == [1, 1]
    moved = np.flatnonzero(labels[0, :3] == 1)
    assert moved.tolist() == [2]  # the counted row farthest from its center
    assert sizes.tolist() == [[3.0, 1.0]]
    assert means[0, :, 0].tolist() == [(0.0 + 2 * 0.2) / 3, 0.4]
    # a sample of exactly k counted rows: each cluster keeps one
    weights = np.array([[0.0, 3.0, 0.0, 0.0, 1.0]])
    f = np.array([[[0.0], [0.2]]])
    _, labels, _, sizes = _kernels._means_step(y[None], f, weights)
    assert np.all(sizes > 0)
    assert sorted(labels[0, [1, 4]].tolist()) == [0, 1]
