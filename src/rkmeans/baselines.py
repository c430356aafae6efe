"""Comparison methods and oracle building blocks: Lloyd's k-means with
k-means++ starts, certified-exact 1-D k-means, PCA, and the two-step
tandem pipeline (PCA then k-means on the leading scores).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import _kernels
from ._seeds import spawn_streams
from .errors import DegenerateDataError
from .solver import SolverConfig, _solve
from .types import Assignment, CentroidSet, DataMatrix, LoadingMatrix, RkmSolution


def kmeans_fit(
    X: DataMatrix,
    k: int,
    restarts: int = 30,
    seed: int = 0,
) -> RkmSolution:
    """Best of ``restarts`` Lloyd runs from k-means++ starts, each stopped by
    fit_rkm's rule (``_kernels.REL_TOLERANCE``) or after
    ``_kernels.MAX_ITERATIONS`` sweeps: fit_rkm's driver with the loading held
    at the identity, which the solution carries.

    Each restart draws its RNG stream from (seed, restart index), so the
    winner is independent of execution order; loss ties keep the smallest
    restart index.
    """
    config = SolverConfig(k=int(k), q=X.p, restarts=restarts, seed=seed)
    config.validate_against(X)
    return _solve(X, config, spawn_streams(config.seed, range(config.restarts)))


# kmeans_1d_exact shifts its values by their mean where |mean| exceeds this
# many spreads; criterion 10's draws on [-5, 5] reach 30.8, so keep their bits
DP_SHIFT = 2.0**6


def kmeans_1d_exact(values, k: int, weights=None) -> RkmSolution:
    """Certified global optimum of 1-D k-means by dynamic programming, as a
    solution with the loading [[1.0]], restart_index 0 and the one-entry
    trace (loss,): the DP has no restarts and no sweeps.

    ``values`` must be sorted ascending: every optimal 1-D clustering uses
    contiguous runs, so the DP over split points is exhaustive. The optional
    nonnegative ``weights`` generalize the objective to
    sum_i w_i * (v_i - c_{label(i)})^2 / sum_i w_i. The DP runs at
    ``_kernels.in_range``'s scale of the values, and of the weights apart;
    the centers and the loss are scaled back.

    The DP's prefix sums of squares round at mean^2 + spread^2 (weighted, over
    n values), so its loss is off by about n * eps * (mean^2 + spread^2).
    Where |mean| exceeds DP_SHIFT = 2^6 spreads, it runs on the values less
    their mean and shifts the centers back; below that the error is at most
    about n * 2^12 * eps * spread^2 (3.9e-12 spread^2 measured at n = 300).
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n = v.size
    k = int(k)
    if n < 1:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError("values contain NaN or Inf entries")
    if np.any(np.diff(v) < 0):
        raise ValueError("values must be sorted ascending")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape != v.shape:
            raise ValueError("weights must match values in length")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain NaN or Inf entries")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be nonnegative with positive sum")

    # the objective does not see the weights' scale, so take them at
    # in_range's too: exact, and their products and sums stay doubles
    w = _kernels.in_range(w)[0]
    v, e = _kernels.in_range(v)
    mean = float(w @ v) / float(w.sum())
    var = float(w @ (v - mean) ** 2) / float(w.sum())
    shift = mean if mean * mean > DP_SHIFT * DP_SHIFT * var else 0.0
    t = v - shift
    prefix = weighted_prefix_sums(t[None, :], w[None, :])
    cost, split = kmeans_1d_dp(prefix, k, keep_splits=True)
    cw, cwv = prefix[0][0], prefix[1][0]
    labels = np.empty(n, dtype=np.int64)
    centers = np.zeros((k, 1))
    i = n
    for j in range(k, 0, -1):
        s = int(split[j, 0, i])
        labels[s:i] = j - 1
        sw = cw[i] - cw[s]
        centers[j - 1, 0] = (cwv[i] - cwv[s]) / sw if sw > 0 else t[s]
        i = s
    if shift:
        centers += shift
    loss = _kernels.scaled_loss(float(cost[0]) / float(w.sum()), e, v)
    return RkmSolution(LoadingMatrix(np.ones((1, 1))), CentroidSet(np.ldexp(centers, e)),
                       Assignment(labels, k), 0, (loss,))


def weighted_prefix_sums(ts: np.ndarray, ws: np.ndarray) -> tuple:
    """Row-wise prefix sums (cw, cwt, cwt2) of ws, ws*ts and ws*ts*ts for
    g x m arrays, each g x (m + 1) with a leading zero column."""
    g, m = ts.shape
    cw = np.zeros((g, m + 1))
    cwt = np.zeros((g, m + 1))
    cwt2 = np.zeros((g, m + 1))
    np.cumsum(ws, axis=1, out=cw[:, 1:])
    wt = ws * ts
    np.cumsum(wt, axis=1, out=cwt[:, 1:])
    wt *= ts  # ws * ts * ts, in the same order of operations
    np.cumsum(wt, axis=1, out=cwt2[:, 1:])
    return cw, cwt, cwt2


def kmeans_1d_dp(prefix: tuple, k: int, keep_splits: bool = False) -> tuple:
    """Exact 1-D k-means dynamic program over split points, batched across
    the rows of sorted values summarized by ``weighted_prefix_sums``.

    Returns (cost, split). cost is the (g,) vector of each row's least
    weighted SSE over k contiguous runs: the end cell i = m of the last
    layer, the only cell of that layer solved (layers 1..k-1 are filled for
    every prefix length i). With ``keep_splits``, split[j, r, i] is where the
    last run starts in the best cut of the first i values of row r into j
    runs, ties keeping the latest split (earlier clusters absorb ties); for
    j = k only i = m is set. Otherwise split is None. A cut's cost is
    accumulated run by run from the left, as an enumeration of contiguous
    partitions sums it, so the two agree bit for bit.
    """
    cw, cwt, cwt2 = prefix
    g, m = cw.shape[0], cw.shape[1] - 1

    def run_sse(lo: slice, hi: slice) -> np.ndarray:
        """Weighted SSE of the runs [lo, hi) about their weighted means; one
        slice has length 1 and broadcasts against the other."""
        sw = cw[:, hi] - cw[:, lo]
        s1 = cwt[:, hi] - cwt[:, lo]
        ratio = np.zeros_like(s1)
        np.divide(s1 * s1, sw, out=ratio, where=sw > 0)
        return np.maximum(cwt2[:, hi] - cwt2[:, lo] - ratio, 0.0)

    def candidates(j: int, i: int) -> np.ndarray:
        """Costs of cutting the first i values into j runs, one column per
        start s = j-1 .. i-1 of the last run [s, i); cost holds layer j-1."""
        return cost[:, j - 1 : i] + run_sse(slice(j - 1, i), slice(i, i + 1))

    # one cluster: the whole prefix [0, i)
    cost = np.full((g, m + 1), np.inf)
    cost[:, 0] = 0.0
    cost[:, 1:] = run_sse(slice(0, 1), slice(1, m + 1))
    split = np.zeros((k + 1, g, m + 1), dtype=np.int64) if keep_splits else None
    for j in range(2, k):
        new_cost = np.full((g, m + 1), np.inf)
        for i in range(j, m + 1):
            cand = candidates(j, i)
            new_cost[:, i] = cand.min(axis=1)
            if keep_splits:
                split[j, :, i] = i - 1 - cand[:, ::-1].argmin(axis=1)
        cost = new_cost
    if k == 1:
        return cost[:, m], split
    # the last layer is read only at its end cell: every value in k runs
    cand = candidates(k, m)
    if keep_splits:
        split[k, :, m] = m - 1 - cand[:, ::-1].argmin(axis=1)
    return cand.min(axis=1), split


def pca_fit(X: DataMatrix, q: int) -> LoadingMatrix:
    """Top-q principal loadings of the column-centered data.

    Sign convention: the largest-magnitude entry of each loading column is
    made positive, so results are reproducible across SVD implementations.
    """
    q = int(q)
    if not 1 <= q <= X.p:
        raise ValueError(f"need 1 <= q <= p, got q={q}, p={X.p}")
    if X.n < q:
        raise DegenerateDataError(
            f"data has rank at most {X.n}, cannot extract {q} loadings"
        )
    A = _kernels.principal_axes(X.values, q)
    for c in range(q):
        pivot = int(np.abs(A[:, c]).argmax())
        if A[pivot, c] < 0:
            A[:, c] = -A[:, c]
    return LoadingMatrix(A)


def tandem_fit(
    X: DataMatrix,
    k: int,
    q: int,
    restarts: int = 30,
    seed: int = 0,
) -> tuple[LoadingMatrix, RkmSolution]:
    """Two-step pipeline: PCA loadings, then k-means on the centered scores,
    taken at ``_kernels.in_range``'s scale of X and scaled back."""
    A = pca_fit(X, q)
    x, e = _kernels.in_range(X.values)
    km = kmeans_fit(DataMatrix((x - x.mean(axis=0)) @ A.values), k, restarts=restarts, seed=seed)
    f, trace = _kernels.scaled_fit(km.centroids.values, km.sweep_losses, e, x)
    return A, replace(km, centroids=CentroidSet(f), sweep_losses=trace)
