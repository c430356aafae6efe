"""Reduced k-means by alternating least squares with multi-restart search.

One sweep updates, in order:

1. the loading A as the polar factor of the SVD of (UF)'X, which maximizes
   trace(A'X'UF) over column-orthonormal A,
2. the assignment by nearest projected centroid (ties to the smallest index),
   followed by empty-cluster repair,
3. the centroids as cluster means of the projected data XA,
4. the loss, tracked per sweep; the run stops when its relative decrease
   falls to ``_kernels.REL_TOLERANCE`` or below. After the means step it is
   (|X|^2 - sum_j n_j |f_j|^2) / n for cluster sizes n_j, because A'A = I
   and each f_j is the mean of its cluster's scores.

Each step minimizes the assigned loss |X - UFA'|^2 / n in its own block, so
the per-sweep loss trace is non-increasing. With integer row counts every
sum above is count-weighted and n is their total: the fit of the rows
repeated counts times.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._seeds import Streams, check_seed, spawn_batches
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
        check_seed(self.seed)

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
    Equivalent to minimizing the full-space distance |x - A f_j|. X and F
    are scored at ``_kernels.in_range``'s one scale of both."""
    _check_shapes(X, A, F)
    x, f, _ = _kernels.in_range(X.values, F.values)
    return Assignment(_kernels.assign_to_nearest(x @ A.values, f), F.k)


def fit_rkm(
    X: DataMatrix, config: SolverConfig, counts: np.ndarray | None = None
) -> RkmSolution:
    """Best of ``config.restarts`` alternating least squares runs.

    Restart 0 warm-starts the loading from the top-q principal directions of
    the column-centered data; later restarts use the polar factor of a random
    Gaussian p x q matrix. Centroids always start from k-means++ on XA. Each
    restart derives its RNG stream from (seed, restart index), so the outcome
    does not depend on execution order; loss ties keep the smallest index.
    Restarts run in lockstep batches (``_kernels.best_restart``) whose
    width depends on the input's shape only; each restart's result is
    bitwise what it would be on its own.

    The optional ``counts`` are positive integers, one per row of X,
    totalling at most 2^53 (default once each): the fit is that of X with
    row i repeated counts[i] times, at the cost of X's n rows. Its loss,
    principal axes and k-means++ draws are the expanded sample's, and its
    assignment labels X's n rows. X must still have at least k rows. This
    is _fit_samples on the one sample.

    The returned solution is finalized so that its assignment is the nearest-
    centroid rule for its (loading, centroids) and its loss is exactly the
    min-based objective of that pair; it is a local, not certified global,
    minimizer.
    """
    config.validate_against(X)
    counts = np.ones(X.n, dtype=np.int64) if counts is None else np.asarray(counts)
    if counts.shape != (X.n,):
        raise ValueError(f"counts must hold one entry per row of the data (n={X.n}), "
                         f"got shape {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    if np.any(counts < 1):
        raise ValueError("counts must be positive")
    if (total := sum(counts.tolist())) > 2**53:
        raise ValueError(f"counts must total at most 2**53 (doubles weigh the rows), got {total}")
    return _fit_samples(X, config, counts[None], [config.seed])[0]


def _fit_samples(
    X: DataMatrix, config: SolverConfig, counts: np.ndarray, seeds
) -> list[RkmSolution]:
    """fit_rkm of R samples of one support in one best_restart run: sample r
    counts row i of X counts[r, i] >= 0 times (counts (R, n), each row at
    least k nonzero and totalling at most 2^53) and is fit with config at
    the seed seeds[r]. Its restart j seeds from the stream (seeds[r], j) and
    draws its loading from (seeds[r], j, 1); restart 0 starts from the
    principal axes at its counts. A row of count 0 weighs nothing, so the
    solution is the sample's fit, labelling every row of X."""
    config.validate_against(X)
    if np.any(np.count_nonzero(counts, axis=1) < config.k):
        raise ValueError(f"every sample must count at least k={config.k} rows")
    seeding, loading, pca = [], [], []
    for seed, row in zip(seeds, counts):
        # one key pass per sample derives both of its batches
        streams, draws = spawn_batches(seed, range(config.restarts), 1)
        seeding.append(streams.keys)
        loading.append(draws.keys)
        pca.append(_kernels.principal_axes(X.values, config.q, row))
    a0 = _starts(Streams(np.concatenate(loading)), np.stack(pca))
    winners = _kernels.best_restart(X.values, a0, config.k, Streams(np.concatenate(seeding)),
                                    config.max_iterations, counts)
    return [_solution(X, config.k, winner) for winner in winners]


def _solution(X: DataMatrix, k: int, winner: tuple) -> RkmSolution:
    """A best_restart winner (r, a, f, labels, trace) as a solution; a = None
    is the loading held at the identity."""
    r, a, f, labels, trace = winner
    return RkmSolution(
        loading=LoadingMatrix(np.eye(X.p) if a is None else a),
        centroids=CentroidSet(f),
        assignment=Assignment(labels, k),
        restart_index=r,
        sweep_losses=trace,
    )


def _starts(loading: Streams, pca: np.ndarray) -> np.ndarray:
    """Stacked starting loadings of R samples' restarts, one per stream of
    the batch ``loading``, sample-major: each sample's restart 0 from its
    principal axes pca[s] (pca is (R, p, q)), later ones from the polar
    factor of the Gaussian of their own stream. One stacked SVD serves all."""
    restarts = len(loading) // len(pca)
    g = [loading[j].standard_normal(pca.shape[1:]) if j % restarts else pca[j // restarts]
         for j in range(len(loading))]
    u, _, vh = np.linalg.svd(np.stack(g), full_matrices=False)
    a0 = u @ vh
    a0[::restarts] = pca  # their slots in the stacked SVD only held a place
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
