"""Synthetic benchmark generator: cluster structure hidden in a low-dimensional
subspace of the first p1 variables, padded with p2 equicorrelated noise
variables and p3 independent noise variables.

Construction for each draw: an orthonormal p1 x q basis A* (polar factor of a
Gaussian matrix), K cluster centers uniform on [-CENTER_RANGE, CENTER_RANGE]^q,
equiprobable labels, and x_i = A f_{label(i)} + eps_i with A = [A*; 0] and
eps_i ~ N(0, Sigma), Sigma block-diagonal (I_p1, equicorrelated p2 block with
off-diagonal NOISE_CORR, I_p3). CENTER_RANGE = 15 and NOISE_CORR = 0.25 are
fixed. All draws come from one counter-based stream, so a spec equals a
dataset, bit for bit. Z, the column-normalized X, is always set. The matrix
the noise is added to is exactly centers_true[labels] @ loading_true.T.

The benchmark (Table 1) draws TABLE1_N = 400 objects in TABLE1_K = 8
clusters, in the geometries named in PRESETS.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import check_seed, spawn_rng
from .errors import DegenerateDataError
from .types import Assignment, CentroidSet, DataMatrix, LoadingMatrix

# half-width of the cube the cluster centers are drawn from
CENTER_RANGE = 15.0
# off-diagonal correlation of the p2 correlated-noise variables
NOISE_CORR = 0.25
TABLE1_K = 8
TABLE1_N = 400
# latent dimension q hidden among p1 informative + p2 correlated-noise + p3
# independent variables
PRESETS = {
    "table1-q2p5": dict(q=2, p1=5, p2=5, p3=5),
    "table1-q2p10": dict(q=2, p1=10, p2=10, p3=10),
    "table1-q3p5": dict(q=3, p1=5, p2=5, p3=5),
    "table1-q3p10": dict(q=3, p1=10, p2=10, p3=10),
}


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset; equal specs give equal data."""

    K: int
    q: int
    p1: int
    p2: int
    p3: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 1 <= self.q <= self.p1:
            raise ValueError(f"need 1 <= q <= p1, got q={self.q}, p1={self.p1}")
        if self.p2 < 0 or self.p3 < 0:
            raise ValueError("p2 and p3 must be >= 0")
        if self.n < self.K:
            raise ValueError(f"need n >= K, got n={self.n}, K={self.K}")
        check_seed(self.seed)

    @property
    def p(self) -> int:
        return self.p1 + self.p2 + self.p3


@dataclass(frozen=True)
class GeneratedDataset:
    """A drawn dataset with its ground truth. Z is the column-normalized copy
    of X."""

    X: DataMatrix
    Z: DataMatrix
    labels: Assignment
    loading_true: LoadingMatrix
    centers_true: CentroidSet


def generate_dataset(spec: DatasetSpec) -> GeneratedDataset:
    """Draw one dataset per the recipe above, deterministically in spec.seed."""
    rng = spawn_rng(spec.seed)
    g = rng.standard_normal((spec.p1, spec.q))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    a_star = u @ vh
    loading = np.zeros((spec.p, spec.q))
    loading[: spec.p1] = a_star
    centers = rng.uniform(-CENTER_RANGE, CENTER_RANGE, (spec.K, spec.q))
    labels = rng.integers(0, spec.K, spec.n)

    eps = rng.standard_normal((spec.n, spec.p))
    if spec.p2 >= 2:
        sigma = np.full((spec.p2, spec.p2), NOISE_CORR)
        np.fill_diagonal(sigma, 1.0)
        chol = np.linalg.cholesky(sigma)
        block = slice(spec.p1, spec.p1 + spec.p2)
        eps[:, block] = eps[:, block] @ chol.T
    x = DataMatrix(centers[labels] @ loading.T + eps)
    return GeneratedDataset(
        X=x,
        Z=normalize_columns(x),
        labels=Assignment(labels, spec.K),
        loading_true=LoadingMatrix(loading),
        centers_true=CentroidSet(centers),
    )


def normalize_columns(X: DataMatrix) -> DataMatrix:
    """Center each column and scale it to unit sample variance (divisor n-1)."""
    if X.n < 2:
        raise DegenerateDataError("normalization needs at least 2 rows")
    centered = X.values - X.values.mean(axis=0)
    sd = centered.std(axis=0, ddof=1)
    dead = np.flatnonzero(sd <= 0.0)
    if dead.size:
        raise DegenerateDataError(
            f"column {int(dead[0])} is constant; cannot scale to unit variance"
        )
    return DataMatrix(centered / sd)
