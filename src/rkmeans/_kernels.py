"""Array-level clustering kernels shared by the solvers.

Everything here operates on plain writable ndarrays with no validation;
the public wrappers in ``solver`` and ``baselines`` own the domain types.
Plain k-means is reduced k-means with the loading held at the identity, so
one sweep engine serves both. It runs a batch of restarts in lockstep on
stacked arrays, because the replication experiments run tens of thousands
of short restarts on one core and per-call overhead, not arithmetic, sets
their time.
"""
from __future__ import annotations

import numpy as np


# a batch of restarts is capped so its width x n x k distance block stays
# about this many doubles: wider batches save little more per-call overhead
# but raise peak memory
BATCH_DOUBLES = 1 << 15


def batch_width(n: int, k: int, restarts: int) -> int:
    """How many restarts to run in lockstep on an n-row input with k clusters."""
    return max(1, min(restarts, BATCH_DOUBLES // (n * k)))


def sq_distances(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of y (n x d) against centers (k x d).
    The sweep engine calls the stacked form directly; this 2-D entry point
    is the one the benchmark's traced run wraps and counts."""
    return _sq_distances(y, centers)


def _sq_distances(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """sq_distances over stacks: y (..., n, d) against centers (..., k, d)."""
    cross = y @ np.swapaxes(centers, -1, -2)
    y_sq = np.sum(y * y, axis=-1)
    c_sq = np.sum(centers * centers, axis=-1)
    # filled one center at a time: a broadcast add over the short k axis
    # pays numpy's per-row overhead n times
    d = np.empty(cross.shape)
    for j in range(d.shape[-1]):
        np.add(y_sq, c_sq[..., j, None], out=d[..., j])
    cross *= 2.0
    d -= cross
    np.maximum(d, 0.0, out=d)
    return d


def kmeans_pp_init(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of y, each drawn with probability proportional
    to squared distance from the centers already chosen."""
    n = y.shape[0]
    centers = np.empty((k, y.shape[1]))
    centers[0] = y[int(rng.integers(n))]
    if k == 1:
        return centers
    diff = y - centers[0]
    d2 = np.sum(diff * diff, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right"))
            idx = min(idx, n - 1)
        else:
            # remaining points coincide with chosen centers; any pick is as good
            idx = int(rng.integers(n))
        centers[j] = y[idx]
        if j < k - 1:
            diff = y - centers[j]
            np.minimum(d2, np.sum(diff * diff, axis=1), out=d2)
    return centers


def assign_to_nearest(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; ties go to the smallest center index."""
    return sq_distances(y, centers).argmin(axis=1)


def cluster_means(y: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster mean rows. Caller guarantees counts > 0 everywhere."""
    return _stacked_means(y[None], labels[None], counts[None])[0]


def _offset(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of a stack (w, n) shifted by k per slice, so one bincount or one
    gather over the flattened stack keeps the slices apart."""
    return labels + k * np.arange(labels.shape[0])[:, None]


def _stacked_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster sizes (w, k) of a stack of labels (w, n)."""
    w = labels.shape[0]
    return np.bincount(_offset(labels, k).ravel(), minlength=w * k).reshape(w, k)


def _stacked_means(y: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """cluster_means over a stack: y (w, n, d), labels (w, n), counts (w, k).
    One bincount per column serves the stack, and each bin still sums its
    members in row order, so every slice gets the bits a lone call would."""
    w, k = counts.shape
    d = y.shape[-1]
    flat = _offset(labels, k).ravel()
    sums = np.empty((w * k, d))
    for c in range(d):
        sums[:, c] = np.bincount(flat, weights=y[..., c].ravel(), minlength=w * k)
    sums = sums.reshape(w, k, d)
    sums /= counts[..., None]
    return sums


def repair_empty_clusters(
    y: np.ndarray, centers: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> None:
    """Give every empty cluster one point: a member of a cluster with at least
    two points, chosen farthest from its own center. Mutates centers, labels
    and counts; y is only read.

    Moving the point onto the empty center (distance zero) never increases the
    assigned loss, and a donor always exists when n >= k (pigeonhole), so the
    loop terminates with every cluster non-empty.
    """
    while True:
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return
        j = int(empty[0])
        diff = y - centers[labels]
        d_own = np.sum(diff * diff, axis=1)
        d_own[counts[labels] < 2] = -1.0
        i = int(d_own.argmax())
        counts[labels[i]] -= 1
        labels[i] = j
        counts[j] = 1
        centers[j] = y[i]


def polar_loading(x: np.ndarray, labels: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Loss-minimizing loading for fixed labels and centroids: the polar
    factor PQ' of the SVD QSP' of M = (UF)'X."""
    return _stacked_polar(x, labels[None], f[None])[0]


def _stacked_polar(x: np.ndarray, labels: np.ndarray, f: np.ndarray) -> np.ndarray:
    """polar_loading over a stack: labels (w, n), centroids f (w, k, q);
    returns the (w, p, q) loadings. Stacked matmul and SVD call BLAS and
    LAPACK once per slice."""
    w, k, q = f.shape
    g = f.reshape(w * k, q)[_offset(labels, k)]
    u, _, vh = np.linalg.svd(np.swapaxes(g, -1, -2) @ x, full_matrices=False)
    return np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)


def principal_axes(x: np.ndarray, q: int) -> np.ndarray:
    """Top-q principal directions of the column-centered x as p x q columns.
    With fewer than q rows the thin SVD has too few directions, so the full
    SVD's remaining basis pads them."""
    xc = x - x.mean(axis=0)
    _, _, vh = np.linalg.svd(xc, full_matrices=False)
    if vh.shape[0] < q:
        _, _, vh = np.linalg.svd(xc, full_matrices=True)
    return vh[:q].T.copy()


def _means_step(y: np.ndarray, f: np.ndarray) -> tuple:
    """Assign -> repair -> means for a stack of restarts: scores y (w, n, d)
    against centers f (w, k, d), which a repair mutates. Returns (cluster
    means, labels, counts)."""
    labels = _sq_distances(y, f).argmin(axis=-1)
    counts = _stacked_counts(labels, f.shape[1])
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        repair_empty_clusters(y[r], f[r], labels[r], counts[r])
    return _stacked_means(y, labels, counts), labels, counts


def sweep_restarts(
    x: np.ndarray,
    sx: float,
    a: np.ndarray | None,
    y: np.ndarray,
    f: np.ndarray,
    max_iterations: int,
    rel_tolerance: float,
) -> list:
    """Run a stack of w restarts in lockstep from centers f (w, k, d), each
    until its loss falls by at most rel_tolerance (relative) or
    max_iterations sweeps have run, then finalize them together.

    x is the data, sx = sum(x * x), and y (w, n, d) the restarts' scores. A
    loading stack ``a`` (w, p, q) with y[r] = x @ a[r] is free: an
    assign -> repair -> means step gives the labels, then each sweep refits
    the loading by the polar step before its own means step (reduced
    k-means). ``a = None`` holds the loading at the identity, so y[r] is x
    and each sweep is a Lloyd step (plain k-means).

    Restarts that stop leave the stack, so each one sees exactly the
    arithmetic of a run on its own: the result does not depend on w.
    Returns one (loss, a, f, labels, trace, iterations) per restart.
    Finalizing sets the labels to the nearest-center argmin for (a, f), ties
    to the smallest index, repairs any cluster that leaves empty, and
    reports the loss of those labels; at a fixed point it changes nothing.
    The trace holds each sweep's loss, then the final one.
    """
    n, w = x.shape[0], f.shape[0]
    held = a is None
    if held:
        sy = np.full(w, sx)
        y_end = y
    else:
        f, labels, _ = _means_step(y, f)
        a_end, y_end = np.empty_like(a), np.empty_like(y)
    f_end, sy_end = np.empty_like(f), np.empty(w)
    iterations = np.zeros(w, dtype=np.int64)
    traces = [[] for _ in range(w)]
    live = np.arange(w)
    prev = np.full(w, np.inf)
    for sweep in range(1, max_iterations + 1):
        if not held:
            a = _stacked_polar(x, labels, f)
            y = x @ a
            # row sums of the flattened squares add in the order np.sum
            # takes over one restart's n x q scores
            sy = np.sum((y * y).reshape(len(live), -1), axis=-1)
        f, labels, counts = _means_step(y, f)
        ff = np.sum(f * f, axis=-1)
        # one product per restart: a stacked one may sum in another order
        within = np.array([counts[j] @ ff[j] for j in range(len(live))])
        # orthogonal residual plus projected within-SS (ANOVA shortcut);
        # clamped because the two big terms cancel on zero-loss data
        loss = np.maximum((sx - sy + (sy - within)) / n, 0.0)
        for r, value in zip(live, loss.tolist()):
            traces[r].append(value)
        stop = np.isfinite(prev) & (
            prev - loss <= rel_tolerance * np.maximum(np.abs(prev), 1e-300)
        )
        if sweep == max_iterations:
            stop[:] = True
        prev = loss
        if not stop.any():
            continue
        done = live[stop]
        f_end[done], sy_end[done], iterations[done] = f[stop], sy[stop], sweep
        if not held:
            a_end[done], y_end[done] = a[stop], y[stop]
        keep = ~stop
        if not keep.any():
            break
        live, y, f, labels = live[keep], y[keep], f[keep], labels[keep]
        sy, prev = sy[keep], prev[keep]

    d = _sq_distances(y_end, f_end)
    nearest = d.argmin(axis=-1)
    counts = _stacked_counts(nearest, f_end.shape[1])
    d_sums = np.take_along_axis(d, nearest[..., None], axis=-1)[..., 0].sum(axis=-1)
    labels = list(nearest)
    # restarts whose nearest-center labels leave a cluster empty
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        labels[r], d_sums[r] = _finalize_repairs(y_end[r], f_end[r], nearest[r], counts[r])
    loss = np.maximum((sx - sy_end + d_sums) / n, 0.0).tolist()
    for r in range(w):
        traces[r].append(loss[r])
    return [
        (loss[r], None if held else a_end[r], f_end[r], labels[r], traces[r], int(iterations[r]))
        for r in range(w)
    ]


def _finalize_repairs(
    y: np.ndarray, f: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, float]:
    """Finalize of one restart whose nearest-center labels left a cluster
    empty: repair, retake the argmin, up to k more times, because a repair
    can empty another cluster under the next argmin. Returns the labels and
    the sum of their squared distances."""
    n, k = y.shape[0], f.shape[0]
    for _ in range(k):
        repair_empty_clusters(y, f, labels, counts)
        d = _sq_distances(y, f)
        labels = d.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if np.all(counts > 0):
            return labels, float(d[np.arange(n), labels].sum())
    # absurdly degenerate data (all projections equal); repair leaves every
    # cluster non-empty and all distances are zero-like, use assigned form
    repair_empty_clusters(y, f, labels, counts)
    diff = y - f[labels]
    return labels, float(np.sum(diff * diff))


def lloyd_single(
    y: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int,
    rel_tolerance: float,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Lloyd run on raw coordinates y: a k-means++ start, then a width-1
    sweep_restarts with the loading held. Returns (centers, labels, mean
    loss, iterations)."""
    loss, _, centers, labels, _, iterations = sweep_restarts(
        y, float(np.sum(y * y)), None, y[None], kmeans_pp_init(y, k, rng)[None],
        max_iterations, rel_tolerance,
    )[0]
    return centers, labels, loss, iterations
