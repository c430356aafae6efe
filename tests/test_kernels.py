"""The kernels' bit contract: every pass runs along the n objects, yet each
result carries the bits of the numpy reductions over short axes it replaces.

Each reference below is the plain numpy form (row sums by ``np.sum``,
labels by ``argmin`` over a row-major (n, k) block, a per-restart start
loop); the fits' byte-identical output rests on these equalities.
"""
import numpy as np
import pytest

from rkmeans import SolverConfig, _kernels, solver
from rkmeans._seeds import spawn_rng


def _row_major_nearest(y, centers):
    # the (..., n, k) expanded-form block, then argmin and the minima it picks
    cross = y @ np.swapaxes(centers, -1, -2)
    d = np.sum(y * y, axis=-1)[..., :, None] + np.sum(centers * centers, axis=-1)[..., None, :]
    cross *= 2.0
    d -= cross
    np.maximum(d, 0.0, out=d)
    labels = d.argmin(axis=-1)
    return d, labels, np.take_along_axis(d, labels[..., None], axis=-1)[..., 0]


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


def test_nearest_keeps_argmins_nan_rule_on_overflowing_data():
    # at 1e160 the squares overflow and inf - inf leaves NaN in the block;
    # argmin takes the first NaN of a row as its minimum
    nan_rows = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for case, y, centers in _distance_cases(1, scale=1e160):
            d, labels, low = _row_major_nearest(y, centers)
            got_labels, got_low = _kernels._nearest(y, centers)
            assert got_labels.tobytes() == labels.tobytes(), f"case {case}"
            assert got_low.tobytes() == low.tobytes(), f"case {case}"
            nan_rows += int(np.sum(np.isnan(low) & ~np.all(np.isnan(d), axis=-1)))
    assert nan_rows > 100, "too few rows mixing NaN with numbers"


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
        assert _kernels._stacked_polar(x, labels, f).tobytes() == want.tobytes(), (n, p, q, k)


def test_stacked_starts_are_the_per_restart_loop_bitwise():
    rng = np.random.default_rng(3)
    for case in range(40):
        n, p = int(rng.integers(2, 120)), int(rng.integers(1, 9))
        q, k = int(rng.integers(1, p + 1)), int(rng.integers(1, min(n, 8) + 1))
        x = rng.standard_normal((n, p))
        first, count = int(rng.integers(0, 3)), int(rng.integers(1, 9))
        config = SolverConfig(k=k, q=q, restarts=first + count, seed=case)
        pca_a = _kernels.principal_axes(x, q)
        restarts = range(first, first + count)
        a0, y0, f0 = solver._starts(x, config, pca_a, restarts)
        for j, r in enumerate(restarts):
            if r == 0:
                a = pca_a
            else:
                u, _, vh = np.linalg.svd(spawn_rng(case, r, 1).standard_normal((p, q)),
                                         full_matrices=False)
                a = u @ vh
            y = x @ a
            f = _kernels.kmeans_pp_init(y, k, spawn_rng(case, r))
            assert a0[j].tobytes() == a.tobytes(), f"case {case}, restart {r}"
            assert y0[j].tobytes() == y.tobytes(), f"case {case}, restart {r}"
            assert f0[j].tobytes() == f.tobytes(), f"case {case}, restart {r}"
