"""Array-level clustering kernels shared by the solvers.

Everything here operates on plain writable ndarrays with no validation;
the public wrappers in ``solver`` and ``baselines`` own the domain types.
Plain k-means is reduced k-means with the loading held at the identity, so
one sweep loop serves both. Keeping these branch-lean matters: the
replication experiments run tens of thousands of sweeps on one core.
"""
from __future__ import annotations

import numpy as np


def sq_distances(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of y (n x d) against centers (k x d)."""
    d = np.sum(y * y, axis=1)[:, None] + np.sum(centers * centers, axis=1)[None, :]
    d -= 2.0 * (y @ centers.T)
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


def cluster_means(y: np.ndarray, labels: np.ndarray, k: int, counts: np.ndarray) -> np.ndarray:
    """Per-cluster mean rows. Caller guarantees counts > 0 everywhere."""
    sums = np.empty((k, y.shape[1]))
    for c in range(y.shape[1]):
        sums[:, c] = np.bincount(labels, weights=y[:, c], minlength=k)
    sums /= counts[:, None]
    return sums


def repair_empty_clusters(
    y: np.ndarray, centers: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> None:
    """Give every empty cluster one point: a member of a cluster with at least
    two points, chosen farthest from its own center. Mutates all arguments.

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
    m = f[labels].T @ x
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return vh.T @ u.T


def principal_axes(x: np.ndarray, q: int) -> np.ndarray:
    """Top-q principal directions of the column-centered x as p x q columns.
    With fewer than q rows the thin SVD has too few directions, so the full
    SVD's remaining basis pads them."""
    xc = x - x.mean(axis=0)
    _, _, vh = np.linalg.svd(xc, full_matrices=False)
    if vh.shape[0] < q:
        _, _, vh = np.linalg.svd(xc, full_matrices=True)
    return vh[:q].T.copy()


def means_step(
    y: np.ndarray, centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign -> repair -> means. Returns (cluster means, labels, counts)."""
    labels = assign_to_nearest(y, centers)
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        repair_empty_clusters(y, centers, labels, counts)
    return cluster_means(y, labels, k, counts), labels, counts


def sweep_loop(
    x: np.ndarray,
    sx: float,
    a: np.ndarray | None,
    y: np.ndarray,
    f: np.ndarray,
    labels: np.ndarray | None,
    max_iterations: int,
    rel_tolerance: float,
) -> tuple:
    """Sweep from centers f until the loss falls by at most rel_tolerance
    (relative) or max_iterations sweeps have run, then finalize.

    x is the data, sx = sum(x * x), and y = x @ a its scores. A loading ``a``
    is free: each sweep first refits it by the polar step from the current
    labels (reduced k-means). ``a = None`` holds the loading at the identity,
    so y is x and each sweep is a Lloyd step (plain k-means).

    Returns (loss, a, f, labels, trace, iterations). Finalizing sets the
    labels to the nearest-center argmin for (a, f), ties to the smallest
    index, repairs any cluster that leaves empty, and reports the loss of
    those labels; at a fixed point it changes nothing. The trace holds each
    sweep's loss, then the final one.
    """
    n, k = x.shape[0], f.shape[0]
    sy = sx if a is None else float(np.sum(y * y))
    trace = []
    prev = np.inf
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        if a is not None:
            a = polar_loading(x, labels, f)
            y = x @ a
            sy = float(np.sum(y * y))
        f, labels, counts = means_step(y, f, k)
        # orthogonal residual plus projected within-SS (ANOVA shortcut);
        # clamped because the two big terms cancel on zero-loss data
        loss = max((sx - sy + (sy - float(counts @ np.sum(f * f, axis=1)))) / n, 0.0)
        trace.append(loss)
        if np.isfinite(prev) and prev - loss <= rel_tolerance * max(abs(prev), 1e-300):
            break
        prev = loss

    # a repair can empty another cluster under the next argmin, so retry
    for _ in range(k + 1):
        d = sq_distances(y, f)
        labels = d.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if np.all(counts > 0):
            loss = max((sx - sy + float(d[np.arange(n), labels].sum())) / n, 0.0)
            break
        repair_empty_clusters(y, f, labels, counts)
    else:
        # absurdly degenerate data (all projections equal); repair left every
        # cluster non-empty and all distances are zero-like, use assigned form
        diff = y - f[labels]
        loss = max((sx - sy + float(np.sum(diff * diff))) / n, 0.0)
    trace.append(loss)
    return loss, a, f, labels, trace, iterations


def lloyd_single(
    y: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int,
    rel_tolerance: float,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Lloyd run on raw coordinates y: a k-means++ start, then the sweep
    loop with the loading held. Returns (centers, labels, mean loss,
    iterations)."""
    loss, _, centers, labels, _, iterations = sweep_loop(
        y, float(np.sum(y * y)), None, y, kmeans_pp_init(y, k, rng), None,
        max_iterations, rel_tolerance,
    )
    return centers, labels, loss, iterations
