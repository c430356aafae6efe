"""Array-level clustering kernels shared by the solvers.

Everything here operates on plain writable ndarrays with no validation;
the public wrappers (the solvers, the baselines, the scorers) own the
domain types. Plain k-means is reduced k-means with the loading held at
the identity, so one sweep engine serves both. It runs a batch of restarts
in lockstep on stacked arrays, because the replication experiments run tens
of thousands of short restarts on one core and per-call overhead, not
arithmetic, sets their time.

Layout rule: array passes run along the n objects, and the short k and q axes
are looped in Python rather than reduced by numpy at its per-row overhead. The
bits stay those of the replaced reductions: ``_row_sums`` adds in np.sum's
order, minima are exact in any order, and ``_nearest`` keeps argmin's choice.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDataError


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


def in_range(*arrays: np.ndarray) -> tuple:
    """(*arrays * 2^-e, e), one e for all the arrays a computation scores:
    where their joint max |x| lies outside [2^-60, 2^60], so that squares
    would overflow or go subnormal, they come back with that max in [0.5, 1),
    else as themselves with e = 0. Every step on them carries 2^-e exactly."""
    top = max(float(np.max(np.abs(x))) for x in arrays)
    e = 0 if 2.0**-60 <= top <= 2.0**60 else math.frexp(top)[1]
    return (*(np.ldexp(x, -e) if e else x for x in arrays), e)


def scaled_loss(loss: float, e: int, x: np.ndarray) -> float:
    """loss * 4^e: the loss of the data 2^e * x, from the loss of the data x
    that in_range returned; one past the largest double is a ValueError."""
    try:
        return math.ldexp(loss, 2 * e)
    except OverflowError:
        top = math.ldexp(float(np.max(np.abs(x))), e)
        raise ValueError(f"the loss overflows a double (the data reach {top!r})") from None


def reported_loss(loss: float, e: int, x: np.ndarray) -> float:
    """scaled_loss of a loss that a fit, a scorer or the oracle reports: a
    positive loss that scales back to 0.0 is a ValueError too."""
    scaled = scaled_loss(loss, e, x)
    if scaled == 0.0 < loss:
        top = math.ldexp(float(np.max(np.abs(x))), e)
        raise ValueError(f"the loss underflows a double (the data reach {top!r})")
    return scaled


def scaled_fit(f: np.ndarray, trace, e: int, x: np.ndarray) -> tuple:
    """(f * 2^e, trace * 4^e): the centroids and loss trace of a fit to the
    data 2^e * x, from those of the fit to the x that in_range returned. The
    final loss goes through reported_loss; an earlier sweep's loss past the
    largest double reads inf."""
    with np.errstate(over="ignore"):
        sweeps = np.ldexp(trace[:-1], 2 * e).tolist()
    return np.ldexp(f, e), [*sweeps, reported_loss(trace[-1], e, x)]


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


def _square_sums(v: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """_row_sums of the squares of v - c (of v when c is None), c
    broadcasting against v, bit for bit. Below 8 columns the left fold runs
    column by column, so no difference or square of v's shape is formed; a
    square is never -0.0, so the fold's leading 0.0 can go."""
    if v.shape[-1] >= 8:
        diff = v if c is None else v - c
        return _row_sums(diff * diff)
    total = None
    for col in range(v.shape[-1]):
        term = v[..., col] if c is None else v[..., col] - c[..., col]
        term = term * term
        if total is None:
            total = term
        else:
            total += term
    return total


def _distance_block(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (|y|^2 + |c|^2) - 2 y'c clamped at 0, center-major:
    y (..., n, d) against centers (..., k, d) gives (k, ..., n). Restarts
    that share one array (a zero-stride stack) share its row sums. At d = 1
    each y'c is one product, which np.multiply forms with the bits matmul
    gives it once the |y|^2 + |c|^2 add has turned a -0.0 into 0.0."""
    rows = y[:1] if y.ndim > 2 and y.strides[0] == 0 else y
    y_sq = _square_sums(rows)
    d = np.empty((centers.shape[-2], *y.shape[:-1]))
    product = np.multiply if y.shape[-1] == 1 else np.matmul
    product(centers, np.swapaxes(y, -1, -2), out=np.moveaxis(d, 0, -2))
    d *= -2.0
    c_sq = _row_sums(centers * centers)
    for j in range(len(d)):
        d[j] += y_sq + c_sq[..., j, None]
    np.maximum(d, 0.0, out=d)
    return d


def _nearest(y: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (..., n) and their squared distances, with
    argmin's choice: the first center at the minimum."""
    d = _distance_block(y, centers)
    low, labels = d[0], np.zeros(d.shape[1:], dtype=np.intp)
    for j in range(1, len(d)):
        # j tops every label so far, so a maximum writes it branch-free; the
        # strict test keeps the first center
        np.maximum(labels, (d[j] < low) * j, out=labels)
        low = np.minimum(low, d[j], out=None if j == 1 else low)
    return labels, low


def nearest_sq(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Squared distance from each row of y (n x q) to its nearest row of f
    (k x q), in the difference form: no cancellation, and 0.0 on a row of f."""
    d = y[:, None, :] - f[None, :, :]
    return np.sum(d * d, axis=2).min(axis=1)


def weighted_loss(x: np.ndarray, w: np.ndarray, a: np.ndarray, f: np.ndarray) -> float:
    """sum_i w_i min_j |x_i - a f_j|^2 for points x with weights w, a
    column-orthonormal loading a and centroids f, at in_range's one scale of
    x and f, scaled back. A sample weighs each of its n rows 1/n."""
    x, f, e = in_range(x, f)
    y = x @ a
    sq = np.sum(x * x, axis=1) - np.sum(y * y, axis=1)
    return reported_loss(float(w @ (sq + nearest_sq(y, f))), e, x)


def weighted_vr(x: np.ndarray, w: np.ndarray, a: np.ndarray, f: np.ndarray) -> float:
    """Weighted nearest projected distances over the weighted spread of the
    projections x @ a about their weighted mean, at in_range's one scale of
    x and f; unit weights give the sample's plain sums bit for bit. Raises
    DegenerateDataError on a zero spread."""
    x, f, _ = in_range(x, f)
    y = x @ a
    within = float(np.sum(w * nearest_sq(y, f)))
    centered = y - np.sum(w[:, None] * y, axis=0) / np.sum(w)
    total = float(np.sum(w[:, None] * (centered * centered)))
    if total <= 0.0:
        raise DegenerateDataError("the points project to a single point")
    return within / total


def kmeans_pp_init(y: np.ndarray, k: int, streams, counts: np.ndarray) -> np.ndarray:
    """k-means++ seeding of a stack of restarts: scores y (w, n, d), rows
    with non-negative integer counts, (n,) shared by every restart or (w, n)
    one row per restart, row i standing for counts[i] copies of itself, and
    restart j drawing from streams[j] (``_seeds.Streams``). Each restart
    gets k rows of its y (w, k, d), each drawn with probability proportional
    to squared distance from the centers already chosen. The first center is
    copy integers(N) of the N = sum(counts), later ones are drawn in
    proportion to counts * d2 by random(); a zero-count row has no copies
    and no mass, so it is never drawn.

    A lone restart's seeding takes its draws in turn. Here every restart
    first takes its integers(N) and k - 1 random() draws, in restart order,
    and the picks are stacked: (cumsum(mass) <= u * total).sum(-1) is
    searchsorted(side="right") on the non-decreasing cumsum, and a pick past
    the end, which rounding can give, falls back to the last counted row.
    Where a restart's mass sums to 0 at step s, its remaining rows coincide
    with chosen centers and every later pick is a uniform copy, so that
    restart re-draws its sequence from its stream's start with integers(N)
    from step s on."""
    w, n = y.shape[:2]
    cum = np.cumsum(np.broadcast_to(counts, (w, n)), axis=-1)
    copies = cum[:, -1].tolist()
    first = np.empty(w, dtype=np.int64)
    u = np.empty((w, k - 1))
    for j in range(w):
        rng = streams[j]
        first[j] = rng.integers(copies[j])
        u[j] = rng.random(k - 1)
    # the last row each restart counts: the first to reach its N
    last = np.argmax(cum == cum[:, -1:], axis=-1)
    lanes = np.arange(w)
    centers = np.empty((w, k, y.shape[2]))
    centers[:, 0] = y[lanes, (cum <= first[:, None]).sum(axis=-1)]
    # the step at which each restart's mass first sums to 0, 0 for none
    exhausted = np.zeros(w, dtype=np.intp)
    d2 = np.full((w, n), np.inf)
    for s in range(1, k):
        np.minimum(d2, _square_sums(y, centers[:, s - 1, None]), out=d2)
        mass = counts * d2
        total = mass.sum(axis=-1)
        picks = (np.cumsum(mass, axis=-1) <= (u[:, s - 1] * total)[:, None]).sum(axis=-1)
        centers[:, s] = y[lanes, np.minimum(picks, last)]
        exhausted[~(total > 0.0) & (exhausted == 0)] = s
    for j in np.flatnonzero(exhausted):
        s = int(exhausted[j])
        rng = streams[j]
        rng.integers(copies[j])
        rng.random(s - 1)
        drawn = rng.integers(copies[j], size=k - s)
        centers[j, s:] = y[j, np.searchsorted(cum[j], drawn, side="right")]
    return centers


def assign_to_nearest(y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; ties go to the smallest center index."""
    return _nearest(y, centers)[0]


def cluster_means(y: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-cluster mean rows. Caller guarantees sizes > 0 everywhere."""
    return _stacked_means(y[None], labels[None], sizes[None], np.ones(len(y)))[0]


def _offset(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of a stack (w, n) shifted by k per slice, so that slice r's
    cluster j is bin r * k + j of the whole stack: one bincount or gather
    over the stack keeps the slices apart. A single slice is its own
    offset."""
    return labels + k * np.arange(labels.shape[0])[:, None]


def _stacked_counts(bins: np.ndarray, k: int, weights: np.ndarray) -> np.ndarray:
    """The weight each cluster holds (w, k) in a stack of offset labels
    (w, n), for the contiguous row weights (w, n) of the stack."""
    w = bins.shape[0]
    return np.bincount(bins.ravel(), weights.ravel(), minlength=w * k).reshape(w, k)


def _stacked_means(
    y: np.ndarray, bins: np.ndarray, sizes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted cluster means over a stack: y (w, n, d), offset labels
    (w, n), row weights (w, n) or (n,) and the clusters' weight sums
    (w, k). One bincount per column serves the stack, and each bin still
    sums its members in row order, so every slice gets the bits a lone call
    would."""
    w, k = sizes.shape
    d = y.shape[-1]
    flat = bins.ravel()
    sums = np.empty((w * k, d))
    for c in range(d):
        sums[:, c] = np.bincount(flat, weights=(y[..., c] * weights).ravel(), minlength=w * k)
    sums = sums.reshape(w, k, d)
    sums /= sizes[..., None]
    return sums


def repair_empty_clusters(y: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> None:
    """Give every empty cluster one row: a member of a cluster with at least
    two rows, chosen farthest from its own center. A row counts once,
    whatever its weight. Mutates centers and labels; y is only read.

    Moving the row onto the empty center (distance zero) never increases the
    assigned loss, and a donor always exists when n >= k (pigeonhole), so the
    loop terminates with every cluster non-empty.
    """
    sizes = np.bincount(labels, minlength=len(centers))
    while True:
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return
        j = int(empty[0])
        d_own = _square_sums(y, centers[labels])
        d_own[sizes[labels] < 2] = -1.0
        i = int(d_own.argmax())
        sizes[labels[i]] -= 1
        labels[i] = j
        sizes[j] = 1
        centers[j] = y[i]


def _stacked_polar(x: np.ndarray, bins: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Loss-minimizing loadings for fixed labels and centroids: the polar
    factor PQ' of the SVD QSP' of M = (UF)'X, over a stack: x (n, p) shared
    or (w, n, p) per restart, offset labels (w, n) and centroids f (w, k, q)
    give the (w, p, q) loadings. (UF)' is
    gathered as q rows of n, one coordinate at a time; M = (X'(UF))' sums as
    the row-major (UF)'X did, where (UF)' @ X would not."""
    w, k, q = f.shape
    rows = f.reshape(w * k, q)
    gt = np.empty((w, q, bins.shape[1]))
    for c in range(q):
        np.take(rows[:, c], bins, out=gt[:, c])
    m = np.swapaxes(np.swapaxes(x, -1, -2) @ np.swapaxes(gt, -1, -2), -1, -2)
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)


def principal_axes(x: np.ndarray, q: int, counts: np.ndarray | None = None) -> np.ndarray:
    """Top-q principal directions of x as p x q columns, taken at in_range's
    scale: those of its rows repeated the positive integer counts times
    (default once each), from the SVD of sqrt(counts) times the rows less
    their weighted mean. With fewer than q rows the thin SVD has too few
    directions, so the full SVD's remaining basis pads them."""
    x = in_range(x)[0]
    c = np.ones((len(x), 1)) if counts is None else counts[:, None]
    xc = (x - np.sum(c * x, axis=0) / np.sum(c)) * np.sqrt(c)
    _, _, vh = np.linalg.svd(xc, full_matrices=False)
    if vh.shape[0] < q:
        _, _, vh = np.linalg.svd(xc, full_matrices=True)
    return vh[:q].T.copy()


def _repair_counted(
    y: np.ndarray, centers: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> None:
    """repair_empty_clusters on the rows of positive weight alone: a cluster
    is empty when its weight is 0, a donor needs two rows of positive
    weight, and a zero-weight row is never moved. Mutates centers and
    labels."""
    rows = np.flatnonzero(weights)
    counted = labels[rows]
    repair_empty_clusters(y[rows], centers, counted)
    labels[rows] = counted


def _means_step(y: np.ndarray, f: np.ndarray, weights: np.ndarray) -> tuple:
    """Assign -> repair -> means for a stack of restarts: scores y (w, n, d)
    with the contiguous row weights (w, n) against centers f (w, k, d), which
    a repair mutates. Returns (cluster means, labels, their offsets, the
    clusters' weight sums); the offsets are formed once, after any repair."""
    k = f.shape[1]
    labels = _nearest(y, f)[0]
    bins = _offset(labels, k)
    sizes = _stacked_counts(bins, k, weights)
    repaired = np.flatnonzero(np.any(sizes == 0, axis=1))
    for r in repaired:
        _repair_counted(y[r], f[r], labels[r], weights[r])
        sizes[r] = np.bincount(labels[r], weights[r], minlength=k)
    if repaired.size:
        bins = _offset(labels, k)
    return _stacked_means(y, bins, sizes, weights), labels, bins, sizes


def sweep_restarts(
    x: np.ndarray, a: np.ndarray | None, k: int, streams, max_iterations: int,
    counts: np.ndarray | None = None,
) -> list:
    """Run a stack of restarts in lockstep, one per stream of the batch
    ``streams`` (``_seeds.Streams``), each until its loss falls by at most
    REL_TOLERANCE (relative) or max_iterations sweeps have run, then
    finalize them together.

    x is the data. Restart j starts from the k-means++ centers that one
    kmeans_pp_init call over the stacked scores draws from streams[j]. A
    loading stack ``a`` (w, p, q) is free: the scores are x @ a[j], an
    assign -> repair -> means step on them gives the labels, then each sweep
    refits the loading by the polar step before its own means step (reduced
    k-means). ``a = None`` holds the loading at the identity, so every
    restart scores x itself and each sweep is a Lloyd step (plain k-means).
    x and a are only read.

    Integer ``counts`` make row i stand for counts[i] copies of itself, so
    the fit is that of the N = sum(counts) expanded rows: the seeding, the
    means, the polar step on (UF)'CX and every loss are count-weighted,
    while a repair still moves one whole row. They are (n,), shared by every
    restart and by default once each, or (w, n), one row per restart. A
    count may be 0 if every restart counts at least k rows: a zero-count
    row weighs 0 in every sum, is never a k-means++ center, is never moved
    by a repair and never keeps a cluster non-empty.

    Restarts that stop leave the stack, with their weights, |x|^2, N and
    CX, so each one sees exactly the arithmetic of a run on its own: the
    result does not depend on w or on the other restarts' counts.
    Returns one (a, f, labels, trace) per restart. The trace holds each
    sweep's loss, then the final one: the loss of the finalized labels. A
    sweep ends on a means step, so its loss is (|x|^2 - sum_j n_j |f_j|^2) / N
    for cluster sizes n_j, all count-weighted: with f_j the mean of its
    cluster's scores and a'a = I, the projected sum of squares |xa|^2
    cancels. Finalizing sets the labels to the nearest-center argmin for
    (a, f), ties to the smallest index, and repairs any cluster that leaves
    empty; at a fixed point it changes nothing. x must already be at
    in_range's scale; f and the trace stay at it.
    """
    n, w = x.shape[0], len(streams)
    held = a is None
    counts = np.ones(n, dtype=np.int64) if counts is None else counts
    # the rows' weights as doubles, one contiguous row per restart, so a
    # stack's bincount weights are a view; own is them in counts' shape
    weights = np.array(np.broadcast_to(counts, (w, n)), dtype=np.float64, order="C")
    own = weights if counts.ndim == 2 else weights[0]
    # each restart's N and count-weighted |x|^2: one sum for shared counts
    total = np.broadcast_to(counts.sum(axis=-1), (w,))
    squares = np.multiply(x, x, out=np.empty((*own.shape, x.shape[1])))
    squares *= own[..., None]
    sx = np.broadcast_to(np.sum(squares.reshape(*own.shape[:-1], -1), axis=-1), (w,))
    del squares  # freed before the scores buffer is taken
    if held:
        # a zero-stride stack: the restarts share x and never copy it
        y = y_end = np.broadcast_to(x, (w, *x.shape))
    else:
        # every x @ a goes here; a stacked product gives each restart the
        # bits of its own x @ a[r]
        scores = np.empty((w, n, a.shape[-1]))
        y = np.matmul(x, a, out=scores)
        a_end = np.empty_like(a)
        # the polar step's CX, formed once: (n, p), or (w, n, p) per restart
        cx = own[..., None] * x
    f = kmeans_pp_init(y, k, streams, counts)
    # the live restarts' weights, |x|^2 and N; the batch's serve the finalize
    live_weights, live_sx, live_total = weights, sx, total
    if not held:
        f, labels, bins, _ = _means_step(y, f, live_weights)
    f_end = np.empty_like(f)
    traces = [[] for _ in range(w)]
    live = np.arange(w)
    prev = np.full(w, np.inf)
    for sweep in range(1, max_iterations + 1):
        if not held:
            a = _stacked_polar(cx, bins, f)
            y = np.matmul(x, a, out=scores[:len(live)])
        f, labels, bins, sizes = _means_step(y, f, live_weights)
        # the means-step identity; clamped, as the terms cancel at zero loss
        within = _row_sums(sizes * _row_sums(f * f))
        loss = np.maximum((live_sx - within) / live_total, 0.0)
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
        f_end[done] = f[stop]
        if not held:
            a_end[done] = a[stop]
        keep = ~stop
        if not keep.any():
            break
        live, f, prev = live[keep], f[keep], prev[keep]
        live_weights, live_sx, live_total = live_weights[keep], live_sx[keep], live_total[keep]
        if held:
            y = y[:len(live)]
        else:
            if cx.ndim == 3:
                cx = cx[keep]
            # the kept slices move up the stack, so their offsets change
            bins = _offset(labels[keep], k)

    if not held:
        y_end = np.matmul(x, a_end, out=scores)
    # row sums of the flattened squares add in the order np.sum takes over
    # one restart's n x q scores
    squares = y_end * y_end
    squares *= weights[..., None]
    sy = np.sum(squares.reshape(w, -1), axis=-1)
    del squares  # freed before the distance block is taken
    nearest, low = _nearest(y_end, f_end)
    sizes = _stacked_counts(_offset(nearest, k), k, weights)
    d_sums = (low * weights).sum(axis=-1)
    labels = list(nearest)
    # restarts whose nearest-center labels leave a cluster empty
    for r in np.flatnonzero(np.any(sizes == 0, axis=1)):
        labels[r], d_sums[r] = _finalize_repairs(y_end[r], f_end[r], nearest[r], weights[r])
    # orthogonal residual plus projected nearest distances
    loss = np.maximum((sx - sy + d_sums) / total, 0.0).tolist()
    for r in range(w):
        traces[r].append(loss[r])
    return [(None if held else a_end[r], f_end[r], labels[r], traces[r]) for r in range(w)]


def _finalize_repairs(
    y: np.ndarray, f: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Finalize of one restart whose nearest-center labels left a cluster
    empty (of weight 0): repair, retake the argmin, up to k more times,
    because a repair can empty another cluster under the next argmin.
    Returns the labels and the sum of their squared distances, each times
    its row's weight."""
    k = f.shape[0]
    for _ in range(k):
        _repair_counted(y, f, labels, weights)
        labels, low = _nearest(y, f)
        if np.all(np.bincount(labels, weights, minlength=k) > 0):
            return labels, float((low * weights).sum())
    # every argmin left a cluster empty, as it must with fewer distinct
    # projected rows than k (equal rows share their argmin center); one more
    # repair leaves every cluster non-empty, and the loss is in assigned form
    _repair_counted(y, f, labels, weights)
    diff = y - f[labels]
    squares = diff * diff
    squares *= weights[:, None]
    return labels, float(np.sum(squares))


def best_restart(
    x: np.ndarray, a: np.ndarray | None, k: int, streams, max_iterations: int,
    counts: np.ndarray | None = None,
) -> list:
    """The best of the restarts sweep_restarts runs on x, one per stream of
    the batch ``streams``, with restart r starting from the loading a[r] (a
    = None holds it at the identity). The integer counts count the rows:
    (n,) for every restart (default once each), or (g, n), one row for each
    of g equal groups of consecutive restarts. The restarts run in
    batch_width's batches on in_range's scale of x; a batch may span
    groups. Returns the winner of each group (one group for (n,) counts) as
    (r, a, f, labels, trace), r its index within its group: the lowest final
    loss at that scale, ties to the smallest index. Only f and trace are
    scaled back, by scaled_fit."""
    x, e = in_range(x)
    shared = counts is None or counts.ndim == 1
    groups = 1 if shared else len(counts)
    size = len(streams) // groups
    width = batch_width(x.shape[0], k, len(streams))
    best = [None] * groups
    for first in range(0, len(streams), width):
        part = slice(first, first + width)
        batch = counts if shared else counts[np.arange(len(streams))[part] // size]
        results = sweep_restarts(x, None if a is None else a[part], k, streams[part],
                                 max_iterations, batch)
        for r, result in enumerate(results, start=first):
            g, i = divmod(r, size)
            # a restart's loss is the last entry of its trace
            if best[g] is None or result[3][-1] < best[g][4][-1]:
                best[g] = (i, *result)
    winners = []
    for r, a, f, labels, trace in best:
        f, trace = scaled_fit(f, trace, e, x)
        winners.append((r, a, f, labels, trace))
    return winners


def lloyd_single(
    y: np.ndarray, k: int, streams, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Lloyd run on raw coordinates y from a k-means++ start drawn from
    the one stream of the batch ``streams``: a width-1 best_restart with the
    loading held. Returns (centers, labels, mean loss, iterations)."""
    _, _, centers, labels, trace = best_restart(y, None, k, streams, max_iterations)[0]
    return centers, labels, trace[-1], len(trace) - 1
