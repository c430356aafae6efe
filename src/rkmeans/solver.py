"""Reduced k-means by alternating least squares with multi-restart search.

One sweep updates, in order:

1. the loading A as the polar factor of the SVD of (UF)'X, which maximizes
   trace(A'X'UF) over column-orthonormal A,
2. the assignment by nearest projected centroid (ties to the smallest index),
   followed by empty-cluster repair,
3. the centroids as cluster means of the projected data XA,
4. the loss, tracked per sweep; the run stops when its relative decrease
   falls below the tolerance.

Each step minimizes the assigned loss |X - UFA'|^2 / n in its own block, so
the per-sweep loss trace is non-increasing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._seeds import spawn_rng
from .types import (
    Assignment,
    CentroidSet,
    DataMatrix,
    LoadingMatrix,
    RkmSolution,
    _check_assignment,
    _check_shapes,
)


@dataclass(frozen=True)
class SolverConfig:
    """Fit-time knobs: cluster count k, subspace dimension q, restart budget,
    iteration cap, relative-decrease stopping tolerance, and master seed."""

    k: int
    q: int
    restarts: int = 30
    max_iterations: int = 300
    rel_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")

    def validate_against(self, X: DataMatrix) -> None:
        if self.q > X.p:
            raise ValueError(f"q={self.q} exceeds data dimension p={X.p}")
        if self.k > X.n:
            raise ValueError(f"k={self.k} exceeds the number of objects n={X.n}")


def update_loading(X: DataMatrix, U: Assignment, F: CentroidSet) -> LoadingMatrix:
    """Loss-minimizing loading for fixed assignment and centroids: the polar
    factor PQ' of the SVD QSP' of M = (UF)'X. Rank-deficient or zero M is
    completed to an orthonormal frame by the SVD's deterministic basis."""
    _check_assignment(X, F, U)
    if F.q > X.p:
        raise ValueError(f"q={F.q} exceeds data dimension p={X.p}")
    return LoadingMatrix(_kernels.polar_loading(X.values, U.labels, F.values))


def assign_clusters(X: DataMatrix, A: LoadingMatrix, F: CentroidSet) -> Assignment:
    """Nearest projected centroid per object; ties to the smallest index.
    Equivalent to minimizing the full-space distance |x - A f_j|."""
    _check_shapes(X, A, F)
    y = X.values @ A.values
    return Assignment(_kernels.assign_to_nearest(y, F.values), F.k)


def update_centroids(X: DataMatrix, U: Assignment, A: LoadingMatrix) -> CentroidSet:
    """Cluster means of the projected data XA under the given assignment."""
    if U.n != X.n:
        raise ValueError(f"assignment has n={U.n} but data has n={X.n}")
    if A.p != X.p:
        raise ValueError(f"loading has p={A.p} but data has p={X.p}")
    counts = U.cluster_sizes()
    if np.any(counts == 0):
        raise RuntimeError(
            "empty cluster reached the centroid update; repair must run first"
        )
    y = X.values @ A.values
    return CentroidSet(_kernels.cluster_means(y, U.labels, counts))


def fit_rkm(X: DataMatrix, config: SolverConfig) -> RkmSolution:
    """Best of ``config.restarts`` alternating least squares runs.

    Restart 0 warm-starts the loading from the top-q principal directions of
    the column-centered data; later restarts use the polar factor of a random
    Gaussian p x q matrix. Centroids always start from k-means++ on XA. Each
    restart derives its RNG stream from (seed, restart index), so the outcome
    does not depend on execution order; loss ties keep the smallest index.
    Restarts run in lockstep batches (``_kernels.sweep_restarts``) whose
    width depends on the input's shape only; each restart's result is
    bitwise what it would be on its own.

    The returned solution is finalized so that its assignment is the nearest-
    centroid rule for its (loading, centroids) and its loss is exactly the
    min-based objective of that pair; it is a local, not certified global,
    minimizer.
    """
    config.validate_against(X)
    x = np.asarray(X.values)
    sx = float(np.sum(x * x))
    pca_a = _kernels.principal_axes(x, config.q)
    width = _kernels.batch_width(x.shape[0], config.k, config.restarts)
    best = None
    for first in range(0, config.restarts, width):
        chunk = range(first, min(first + width, config.restarts))
        results = _kernels.sweep_restarts(
            x, sx, *_starts(x, config, pca_a, chunk),
            config.max_iterations, config.rel_tolerance,
        )
        for r, result in zip(chunk, results):
            if best is None or result[0] < best[0]:
                best = result + (r,)
    loss, a, f, labels, trace, iterations, r = best
    return RkmSolution(
        loading=LoadingMatrix(a),
        centroids=CentroidSet(f),
        assignment=Assignment(labels, config.k),
        loss=loss,
        iterations=iterations,
        restart_index=r,
        seed=config.seed,
        sweep_losses=tuple(trace),
    )


def _starts(x: np.ndarray, config: SolverConfig, pca_a: np.ndarray, restarts: range) -> tuple:
    """Stacked starts (loadings, scores XA, k-means++ centroids) of the given
    restarts, as sweep_restarts takes them: restart 0 from the principal axes
    pca_a, later ones from the polar factor of their own stream's Gaussian."""
    p, k, q = x.shape[1], config.k, config.q
    g = [spawn_rng(config.seed, r, 1).standard_normal((p, q)) if r else pca_a for r in restarts]
    u, _, vh = np.linalg.svd(np.stack(g), full_matrices=False)
    a0 = u @ vh
    if restarts[0] == 0:
        a0[0] = pca_a  # its slot in the stacked SVD only held a place
    y0 = x @ a0
    # the centroid-seeding stream matches the plain k-means baseline so the
    # two solvers are restart-for-restart comparable when q == p; the
    # loading draw gets its own stream to keep that alignment
    f0 = np.stack([_kernels.kmeans_pp_init(y0[j], k, spawn_rng(config.seed, r))
                   for j, r in enumerate(restarts)])
    return a0, y0, f0


def project(X: DataMatrix, sol: RkmSolution) -> tuple[np.ndarray, np.ndarray]:
    """Low-dimensional object scores Y = XA and per-cluster mean rows G of Y
    under the solution's assignment (G equals the stored centroids once the
    solution has converged)."""
    if sol.loading.p != X.p:
        raise ValueError(f"solution has p={sol.loading.p} but data has p={X.p}")
    if sol.assignment.n != X.n:
        raise ValueError(f"solution has n={sol.assignment.n} but data has n={X.n}")
    y = X.values @ sol.loading.values
    counts = sol.assignment.cluster_sizes()
    if np.any(counts == 0):
        raise ValueError("assignment has an empty cluster; cluster means undefined")
    g = _kernels.cluster_means(y, sol.assignment.labels, counts)
    return y, g
