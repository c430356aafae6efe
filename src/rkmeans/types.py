"""Domain types and the loss/decomposition arithmetic shared by every module.

Conventions used throughout the package:

* losses are reported in mean-per-object form, ``(1/n) * sum(...)``; multiply
  by ``n`` to recover the total-sum form,
* cluster labels are 0-based integers; the binary membership matrix is never
  materialized,
* all types are immutable after construction (arrays are frozen), so values
  are safe to share across threads and operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

ORTHONORMALITY_TOL = 1e-10


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """n x p observation matrix; rows are objects, columns are variables."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2:
            raise ValueError(f"data matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"data matrix needs n >= 1 and p >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data matrix contains NaN or Inf entries")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LoadingMatrix:
    """p x q column-wise orthonormal basis of the clustering subspace."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2:
            raise ValueError(f"loading matrix must be 2-D, got shape {arr.shape}")
        p, q = arr.shape
        if not 1 <= q <= p:
            raise ValueError(f"loading matrix needs 1 <= q <= p, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("loading matrix contains NaN or Inf entries")
        gram_err = np.max(np.abs(arr.T @ arr - np.eye(q)))
        if gram_err > ORTHONORMALITY_TOL:
            raise ValueError(
                f"loading matrix columns are not orthonormal (max |A'A - I| = {gram_err:.3e})"
            )
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CentroidSet:
    """k x q matrix of cluster centers in the low-dimensional space."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2:
            raise ValueError(f"centroid matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("need at least one centroid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centroid matrix contains NaN or Inf entries")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Length-n vector of 0-based cluster labels, each below ``n_clusters``."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        arr = np.array(self.labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"labels must be a non-empty 1-D vector, got shape {arr.shape}")
        k = int(self.n_clusters)
        if k < 1:
            raise ValueError("n_clusters must be >= 1")
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError(f"labels must lie in [0, {k}), got range [{arr.min()}, {arr.max()}]")
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "n_clusters", k)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)


@dataclass(frozen=True)
class RkmSolution:
    """One fitted reduced k-means model.

    ``sweep_losses`` is the winning restart's loss after each sweep, then its
    final loss: ``loss``, the mean-per-object objective of (loading,
    centroids) on the training data. ``iterations`` counts the sweeps.
    """

    loading: LoadingMatrix
    centroids: CentroidSet
    assignment: Assignment
    restart_index: int
    sweep_losses: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sweep_losses", tuple(self.sweep_losses))
        if not self.sweep_losses:
            raise ValueError("sweep_losses must hold at least the final loss")
        if not self.loss >= 0:
            raise ValueError(f"loss must be nonnegative, got {self.loss}")
        if self.loading.q != self.centroids.q:
            raise ValueError("loading and centroids disagree on subspace dimension")

    @property
    def loss(self) -> float:
        return self.sweep_losses[-1]

    @property
    def iterations(self) -> int:
        return len(self.sweep_losses) - 1


def _check_shapes(X: DataMatrix, A: LoadingMatrix, F: CentroidSet) -> None:
    if A.p != X.p:
        raise ValueError(f"loading has p={A.p} but data has p={X.p}")
    if A.q != F.q:
        raise ValueError(f"loading has q={A.q} but centroids have q={F.q}")


def rkm_objective(X: DataMatrix, A: LoadingMatrix, F: CentroidSet) -> float:
    """Mean-per-object reduced k-means loss ``(1/n) sum_i min_j |x_i - A f_j|^2``.

    Because A is column-orthonormal the residual splits into an orthogonal
    part and a projected part, so the minimum over centroids is taken on the
    q-dimensional projections. The sums run at ``_kernels.in_range``'s scale
    of X, so a loss past the largest double is a ValueError.
    """
    _check_shapes(X, A, F)
    x, e = _kernels.in_range(X.values)
    y = x @ A.values
    ortho = np.sum(x * x) - np.sum(y * y)
    d = _kernels.sq_distances(y, np.ldexp(F.values, -e))
    return _kernels.scaled_loss(float((ortho + np.sum(d.min(axis=1))) / X.n), e, x)


def assigned_objective(X: DataMatrix, A: LoadingMatrix, F: CentroidSet, U: Assignment) -> float:
    """Mean-per-object loss ``(1/n) |X - U F A'|_F^2`` for a fixed assignment."""
    _check_shapes(X, A, F)
    _check_assignment(X, F, U)
    recon = F.values[U.labels] @ A.values.T
    diff = X.values - recon
    return float(np.sum(diff * diff) / X.n)


def decompose_objective(
    X: DataMatrix, A: LoadingMatrix, F: CentroidSet, U: Assignment
) -> tuple[float, float]:
    """Split the assigned loss into its subspace-residual and projected
    k-means terms: ``((1/n)|X - XAA'|_F^2, (1/n)|XA - UF|_F^2)``.

    The two terms sum to ``assigned_objective(X, A, F, U)``.
    """
    _check_shapes(X, A, F)
    _check_assignment(X, F, U)
    x = X.values
    y = x @ A.values
    resid = x - y @ A.values.T
    pca_term = float(np.sum(resid * resid) / X.n)
    dy = y - F.values[U.labels]
    km_term = float(np.sum(dy * dy) / X.n)
    return pca_term, km_term


def _check_assignment(X: DataMatrix, F: CentroidSet, U: Assignment) -> None:
    if U.n != X.n:
        raise ValueError(f"assignment has n={U.n} but data has n={X.n}")
    if U.n_clusters > F.k:
        raise ValueError(f"assignment references {U.n_clusters} clusters but only {F.k} centroids exist")
