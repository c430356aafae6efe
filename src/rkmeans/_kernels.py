"""Array-level clustering kernels shared by the solvers.

Everything here operates on plain writable ndarrays with no validation;
the public wrappers in ``solver`` and ``baselines`` own the domain types.
Plain k-means is reduced k-means with the loading held at the identity, so
one sweep engine serves both. It runs a batch of restarts in lockstep on
stacked arrays, because the replication experiments run tens of thousands
of short restarts on one core and per-call overhead, not arithmetic, sets
their time.

Layout rule: array passes run along the n objects, and the short k and q axes
are looped in Python rather than reduced by numpy at its per-row overhead. The
bits stay those of the replaced reductions: ``_row_sums`` adds in np.sum's
order, minima are exact in any order, and ``_nearest`` keeps argmin's choice.
"""
from __future__ import annotations

import math

import numpy as np


# a batch of restarts is capped so its width x n x k distance block stays
# about this many doubles. A lockstep batch runs until its slowest restart
# stops, so fewer, wider batches make fewer engine steps, but every per-sweep
# array grows with the width. Measured at the agreement shape (n = 400, k = 8,
# 50 restarts): 1 << 17 gives two batches of 25 for about -20% op time and
# +4% peak RSS over five batches of 10 at 1 << 15; 1 << 18 (one batch of 50)
# is faster still but costs +10% peak RSS.
BATCH_DOUBLES = 1 << 17

# a run stops once a sweep lowers its loss by at most this fraction; the
# reduced and the plain k-means fits stop by the same rule
REL_TOLERANCE = 1e-9

# the sweep cap of every fit, plain and reduced k-means alike
MAX_ITERATIONS = 300


def in_range(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2^-e, e): data whose squares would overflow or go subnormal (max
    |x| outside [2^-60, 2^60]) comes back with max |x| in [0.5, 1), other
    data as x itself with e = 0. Every step on the result carries 2^-e exactly."""
    top = float(np.max(np.abs(x)))
    e = 0 if 2.0**-60 <= top <= 2.0**60 else math.frexp(top)[1]
    return (np.ldexp(x, -e) if e else x), e


def scaled_loss(loss: float, e: int, x: np.ndarray) -> float:
    """loss * 4^e: the loss of the data 2^e * x, from the loss of the data x
    that in_range returned; one past the largest double is a ValueError."""
    try:
        return math.ldexp(loss, 2 * e)
    except OverflowError:
        top = math.ldexp(float(np.max(np.abs(x))), e)
        raise ValueError(f"the loss overflows a double (the data reach {top!r})") from None


def batch_width(n: int, k: int, restarts: int) -> int:
    """How many restarts to run in lockstep on an n-row input with k clusters:
    the fewest batches the cap allows, with the restarts split evenly over
    them."""
    batches = -(-restarts // max(1, BATCH_DOUBLES // (n * k)))
    return -(-restarts // batches)


def sq_distances(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of y (n x d) against centers (k x d),
    as an n x k view of _distance_block; the benchmark's trace counts it."""
    return _distance_block(y, centers).T


def _row_sums(v: np.ndarray) -> np.ndarray:
    """np.sum(v, axis=-1) bit for bit. Below 8 terms numpy folds left from
    its identity 0.0 (which turns -0.0 into 0.0); so do these whole-column
    passes. Longer rows amortize numpy's per-row overhead and stay with it."""
    if v.shape[-1] >= 8:
        return np.sum(v, axis=-1)
    total = v[..., 0] + 0.0
    for c in range(1, v.shape[-1]):
        total += v[..., c]
    return total


def _distance_block(
    y: np.ndarray, centers: np.ndarray, y_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances (|y|^2 + |c|^2) - 2 y'c clamped at 0, center-major:
    y (..., n, d) against centers (..., k, d) gives (k, ..., n). y_sq, if
    given, is _row_sums(y * y) already at hand."""
    if y_sq is None:
        y_sq = _row_sums(y * y)  # before d, so the squares are freed first
    d = np.empty((centers.shape[-2], *y.shape[:-1]))
    np.matmul(centers, np.swapaxes(y, -1, -2), out=np.moveaxis(d, 0, -2))
    d *= -2.0
    c_sq = _row_sums(centers * centers)
    for j in range(len(d)):
        d[j] += y_sq + c_sq[..., j, None]
    np.maximum(d, 0.0, out=d)
    return d


def _nearest(
    y: np.ndarray, centers: np.ndarray, y_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (..., n) and their squared distances, with
    argmin's choice: the first center at the minimum, or a row's first NaN."""
    d = _distance_block(y, centers, y_sq)
    low, labels = d[0], np.zeros(d.shape[1:], dtype=np.intp)
    for j in range(1, len(d)):
        # j tops every label so far, so a maximum writes it branch-free; the
        # strict test keeps the first center, and np.minimum carries NaN
        np.maximum(labels, (d[j] < low) * j, out=labels)
        low = np.minimum(low, d[j], out=None if j == 1 else low)
    if np.isnan(low).any():
        for j in range(len(d) - 1, -1, -1):
            np.copyto(labels, j, where=np.isnan(d[j]))
        low = np.take_along_axis(d, labels[None], axis=0)[0]
    return labels, low


def kmeans_pp_init(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of y, each drawn with probability proportional
    to squared distance from the centers already chosen."""
    n = y.shape[0]
    centers = np.empty((k, y.shape[1]))
    centers[0] = y[int(rng.integers(n))]
    if k == 1:
        return centers
    diff = y - centers[0]
    d2 = _row_sums(diff * diff)
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
            np.minimum(d2, _row_sums(diff * diff), out=d2)
    return centers


def assign_to_nearest(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; ties go to the smallest center index."""
    return _nearest(y, centers)[0]


def cluster_means(y: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster mean rows. Caller guarantees counts > 0 everywhere."""
    return _stacked_means(y[None], labels[None], counts[None])[0]


def _offset(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of a stack (w, n) shifted by k per slice and flattened, so one
    bincount over the stack keeps the slices apart."""
    return (labels + k * np.arange(labels.shape[0])[:, None]).ravel()


def _stacked_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster sizes (w, k) of a stack of labels (w, n)."""
    w = labels.shape[0]
    return np.bincount(_offset(labels, k), minlength=w * k).reshape(w, k)


def _stacked_means(y: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """cluster_means over a stack: y (w, n, d), labels (w, n), counts (w, k).
    One bincount per column serves the stack, and each bin still sums its
    members in row order, so every slice gets the bits a lone call would."""
    w, k = counts.shape
    d = y.shape[-1]
    flat = _offset(labels, k)
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
        d_own = _row_sums(diff * diff)
        d_own[counts[labels] < 2] = -1.0
        i = int(d_own.argmax())
        counts[labels[i]] -= 1
        labels[i] = j
        counts[j] = 1
        centers[j] = y[i]


def _stacked_polar(x: np.ndarray, labels: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Loss-minimizing loadings for fixed labels and centroids: the polar
    factor PQ' of the SVD QSP' of M = (UF)'X, over a stack: labels (w, n),
    centroids f (w, k, q) give the (w, p, q) loadings. (UF)' is gathered as
    q rows of n, one coordinate at a time; M = (X'(UF))' sums as the
    row-major (UF)'X did, where (UF)' @ X would not."""
    w, k, q = f.shape
    rows, flat = f.reshape(w * k, q), _offset(labels, k).reshape(labels.shape)
    gt = np.empty((w, q, labels.shape[1]))
    for c in range(q):
        np.take(rows[:, c], flat, out=gt[:, c])
    m = np.swapaxes(x.T @ np.swapaxes(gt, -1, -2), -1, -2)
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)


def principal_axes(x: np.ndarray, q: int) -> np.ndarray:
    """Top-q principal directions of the column-centered x as p x q columns,
    taken at in_range's scale. With fewer than q rows the thin SVD has too
    few directions, so the full SVD's remaining basis pads them."""
    x = in_range(x)[0]
    xc = x - x.mean(axis=0)
    _, _, vh = np.linalg.svd(xc, full_matrices=False)
    if vh.shape[0] < q:
        _, _, vh = np.linalg.svd(xc, full_matrices=True)
    return vh[:q].T.copy()


def _means_step(y: np.ndarray, f: np.ndarray, y_sq: np.ndarray) -> tuple:
    """Assign -> repair -> means for a stack of restarts: scores y (w, n, d),
    with y_sq = _row_sums(y * y) (one row of it when the w slices are one
    array), against centers f (w, k, d), which a repair mutates. Returns
    (cluster means, labels, counts)."""
    labels = _nearest(y, f, y_sq)[0]
    counts = _stacked_counts(labels, f.shape[1])
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        repair_empty_clusters(y[r], f[r], labels[r], counts[r])
    return _stacked_means(y, labels, counts), labels, counts


def sweep_restarts(
    x: np.ndarray, a: np.ndarray | None, k: int, rngs: list, max_iterations: int
) -> list:
    """Run a stack of restarts in lockstep, one per generator in rngs, each
    until its loss falls by at most REL_TOLERANCE (relative) or
    max_iterations sweeps have run, then finalize them together.

    x is the data. Restart j starts from kmeans_pp_init(scores, k, rngs[j])
    on its scores, seeded in restart order. A loading stack ``a`` (w, p, q)
    is free: the scores are x @ a[j], an assign -> repair -> means step on
    them gives the labels, then each sweep refits the loading by the polar
    step before its own means step (reduced k-means). ``a = None`` holds the
    loading at the identity, so every restart scores x itself and each sweep
    is a Lloyd step (plain k-means). x and a are only read.

    Restarts that stop leave the stack, so each one sees exactly the
    arithmetic of a run on its own: the result does not depend on w.
    Returns one (a, f, labels, trace) per restart. The trace holds each
    sweep's loss, then the final one: the loss of the finalized labels.
    Finalizing sets the labels to the nearest-center argmin for (a, f), ties
    to the smallest index, and repairs any cluster that leaves empty; at a
    fixed point it changes nothing. The engine runs on in_range's scale of
    x and scales f and the trace back.
    """
    n, w = x.shape[0], len(rngs)
    held = a is None
    x, e = in_range(x)
    squares = x * x
    sx = float(np.sum(squares))
    y_sq = _row_sums(squares) if held else None
    del squares  # freed before the scores buffer is taken
    if held:
        # a zero-stride stack: the restarts share x and never copy it
        y = y_end = np.broadcast_to(x, (w, *x.shape))
        sy = np.full(w, sx)
    else:
        # every x @ a goes here; a stacked product gives each restart the
        # bits of its own x @ a[r]
        scores = np.empty((w, n, a.shape[-1]))
        y = np.matmul(x, a, out=scores)
        a_end = np.empty_like(a)
    f = np.stack([kmeans_pp_init(y[j], k, rng) for j, rng in enumerate(rngs)])
    if not held:
        f, labels, _ = _means_step(y, f, _row_sums(y * y))
    f_end, sy_end = np.empty_like(f), np.empty(w)
    traces = [[] for _ in range(w)]
    live = np.arange(w)
    prev = np.full(w, np.inf)
    for sweep in range(1, max_iterations + 1):
        if not held:
            a = _stacked_polar(x, labels, f)
            y = np.matmul(x, a, out=scores[:len(live)])
            squares = y * y
            # row sums of the flattened squares add in the order np.sum
            # takes over one restart's n x q scores
            sy = np.sum(squares.reshape(len(live), -1), axis=-1)
            y_sq = _row_sums(squares)
            del squares  # not held through the distance block
        f, labels, counts = _means_step(y, f, y_sq)
        ff = _row_sums(f * f)
        # one product per restart: a stacked one may sum in another order
        within = np.array([counts[j] @ ff[j] for j in range(len(live))])
        # orthogonal residual plus projected within-SS (ANOVA shortcut);
        # clamped because the two big terms cancel on zero-loss data
        loss = np.maximum((sx - sy + (sy - within)) / n, 0.0)
        for r, value in zip(live, loss.tolist()):
            traces[r].append(value)
        stop = np.isfinite(prev) & (
            prev - loss <= REL_TOLERANCE * np.maximum(np.abs(prev), 1e-300)
        )
        if sweep == max_iterations:
            stop[:] = True
        prev = loss
        if not stop.any():
            continue
        done = live[stop]
        f_end[done], sy_end[done] = f[stop], sy[stop]
        if not held:
            a_end[done] = a[stop]
        keep = ~stop
        if not keep.any():
            break
        live, f, labels = live[keep], f[keep], labels[keep]
        sy, prev = sy[keep], prev[keep]
        if held:
            y = y[:len(live)]

    if not held:
        y_end = np.matmul(x, a_end, out=scores)
    nearest, low = _nearest(y_end, f_end)
    counts = _stacked_counts(nearest, f_end.shape[1])
    d_sums = low.sum(axis=-1)
    labels = list(nearest)
    # restarts whose nearest-center labels leave a cluster empty
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        labels[r], d_sums[r] = _finalize_repairs(y_end[r], f_end[r], nearest[r], counts[r])
    loss = np.maximum((sx - sy_end + d_sums) / n, 0.0).tolist()
    for r in range(w):
        traces[r].append(loss[r])
    if e:
        f_end = np.ldexp(f_end, e)
        traces = [[scaled_loss(v, e, x) for v in trace] for trace in traces]
    return [(None if held else a_end[r], f_end[r], labels[r], traces[r]) for r in range(w)]


def _finalize_repairs(
    y: np.ndarray, f: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, float]:
    """Finalize of one restart whose nearest-center labels left a cluster
    empty: repair, retake the argmin, up to k more times, because a repair
    can empty another cluster under the next argmin. Returns the labels and
    the sum of their squared distances."""
    k = f.shape[0]
    for _ in range(k):
        repair_empty_clusters(y, f, labels, counts)
        labels, low = _nearest(y, f)
        counts = np.bincount(labels, minlength=k)
        if np.all(counts > 0):
            return labels, float(low.sum())
    # every argmin left a cluster empty, as it must with fewer distinct
    # projected rows than k (equal rows share their argmin center); one more
    # repair leaves every cluster non-empty, and the loss is in assigned form
    repair_empty_clusters(y, f, labels, counts)
    diff = y - f[labels]
    return labels, float(np.sum(diff * diff))


def lloyd_single(
    y: np.ndarray, k: int, rng: np.random.Generator, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Lloyd run on raw coordinates y from a k-means++ start drawn from
    rng: a width-1 sweep_restarts with the loading held. Returns (centers,
    labels, mean loss, iterations)."""
    _, centers, labels, trace = sweep_restarts(y, None, k, [rng], max_iterations)[0]
    return centers, labels, trace[-1], len(trace) - 1
