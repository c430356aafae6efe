"""Reduced k-means by alternating least squares with multi-restart search.

One sweep updates, in order:

1. the loading A as the polar factor of the SVD of (UF)'X, which maximizes
   trace(A'X'UF) over column-orthonormal A,
2. the assignment by nearest projected centroid (ties to the smallest index),
   followed by empty-cluster repair,
3. the centroids as cluster means of the projected data XA,
4. the loss, tracked per sweep; the run stops when its relative decrease
   falls to ``_kernels.REL_TOLERANCE`` or below.

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
    _check_shapes,
)


@dataclass(frozen=True)
class SolverConfig:
    """Fit-time knobs: cluster count k, subspace dimension q, restart budget,
    and master seed."""

    k: int
    q: int
    restarts: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @property
    def max_iterations(self) -> int:
        """The sweep cap of every restart, ``_kernels.MAX_ITERATIONS``."""
        return _kernels.MAX_ITERATIONS

    def validate_against(self, X: DataMatrix) -> None:
        if self.q > X.p:
            raise ValueError(f"q={self.q} exceeds data dimension p={X.p}")
        if self.k > X.n:
            raise ValueError(f"k={self.k} exceeds the number of objects n={X.n}")


def assign_clusters(X: DataMatrix, A: LoadingMatrix, F: CentroidSet) -> Assignment:
    """Nearest projected centroid per object; ties to the smallest index.
    Equivalent to minimizing the full-space distance |x - A f_j|."""
    _check_shapes(X, A, F)
    y = X.values @ A.values
    return Assignment(_kernels.assign_to_nearest(y, F.values), F.k)


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
    pca_a = _kernels.principal_axes(x, config.q)
    width = _kernels.batch_width(x.shape[0], config.k, config.restarts)
    best = None
    for first in range(0, config.restarts, width):
        chunk = range(first, min(first + width, config.restarts))
        # the centroid-seeding stream matches the plain k-means baseline so
        # the two solvers are restart-for-restart comparable when q == p;
        # the loading draw gets its own stream to keep that alignment
        results = _kernels.sweep_restarts(
            x, _starts(config, pca_a, chunk), config.k,
            [spawn_rng(config.seed, r) for r in chunk], config.max_iterations,
        )
        for r, (a, f, labels, trace) in zip(chunk, results):
            # a restart's loss is the last entry of its trace
            if best is None or trace[-1] < best[-1][-1]:
                best = (r, a, f, labels, trace)
    r, a, f, labels, trace = best
    return RkmSolution(
        loading=LoadingMatrix(a),
        centroids=CentroidSet(f),
        assignment=Assignment(labels, config.k),
        restart_index=r,
        sweep_losses=trace,
    )


def _starts(config: SolverConfig, pca_a: np.ndarray, restarts: range) -> np.ndarray:
    """Stacked starting loadings of the given restarts: restart 0 from the
    principal axes pca_a, later ones from the polar factor of their own
    stream's Gaussian."""
    g = [spawn_rng(config.seed, r, 1).standard_normal(pca_a.shape) if r else pca_a
         for r in restarts]
    u, _, vh = np.linalg.svd(np.stack(g), full_matrices=False)
    a0 = u @ vh
    if restarts[0] == 0:
        a0[0] = pca_a  # its slot in the stacked SVD only held a place
    return a0


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
