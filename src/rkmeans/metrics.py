"""Evaluation metrics and parameter-space distances.

Partition agreement uses the chance-corrected adjusted Rand index. Fitted
(centroids, loading) pairs are compared with a product distance: Frobenius
on loadings, symmetric Hausdorff on centroid rows, combined by max, always
after the orthogonal Procrustes alignment that removes the rotational
indeterminacy of the model.
"""
from __future__ import annotations

from math import comb, ldexp

import numpy as np

from . import _kernels
from .types import Assignment, CentroidSet, LoadingMatrix, _frozen_array


def adjusted_rand_index(a: Assignment, b: Assignment) -> float:
    """Hubert-Arabie adjusted Rand index in [-1, 1]; 1 means identical
    partitions up to relabeling, 0 is the chance level."""
    if a.n != b.n:
        raise ValueError(f"label vectors differ in length: {a.n} vs {b.n}")
    if a.n < 2:
        raise ValueError("need at least 2 objects")
    # dense label indices size the table by the labels in use, not the
    # largest label; the index is invariant to relabeling
    ia, ib = (np.unique(v.labels, return_inverse=True)[1] for v in (a, b))
    ka, kb = int(ia.max()) + 1, int(ib.max()) + 1
    table = np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb)
    # exact integer arithmetic until the final division
    sum_cells = sum(comb(int(c), 2) for c in table.ravel())
    sum_rows = sum(comb(int(c), 2) for c in table.sum(axis=1))
    sum_cols = sum(comb(int(c), 2) for c in table.sum(axis=0))
    pairs = comb(a.n, 2)
    expected = sum_rows * sum_cols / pairs
    maximal = (sum_rows + sum_cols) / 2
    if maximal == expected:
        # both partitions place all pairs identically (e.g. single cluster)
        return 1.0
    return float((sum_cells - expected) / (maximal - expected))


def directed_hausdorff(F: CentroidSet, G: CentroidSet) -> float:
    """max over rows f of F of the distance from f to the nearest row of G,
    taken at ``_kernels.in_range``'s one scale of F and G and scaled back."""
    if F.q != G.q:
        raise ValueError(f"centroid sets differ in dimension: {F.q} vs {G.q}")
    f, g, e = _kernels.in_range(F.values, G.values)
    # sqrt is monotone, so it can follow the min and the max
    return ldexp(float(np.sqrt(_kernels.nearest_sq(f, g).max())), e)


def symmetric_hausdorff(F: CentroidSet, G: CentroidSet) -> float:
    """max of the two directed Hausdorff distances."""
    return max(directed_hausdorff(F, G), directed_hausdorff(G, F))


def align_rotation(A1: LoadingMatrix, A2: LoadingMatrix) -> np.ndarray:
    """Orthogonal Procrustes: the q x q orthonormal R minimizing |A1 R - A2|_F,
    the polar factor of A1'A2."""
    if A1.p != A2.p or A1.q != A2.q:
        raise ValueError(
            f"loading shapes differ: {A1.p}x{A1.q} vs {A2.p}x{A2.q}"
        )
    u, _, vh = np.linalg.svd(A1.values.T @ A2.values)
    r = u @ vh
    return _frozen_array(r)


def param_distance(
    theta1: tuple[CentroidSet, LoadingMatrix],
    theta2: tuple[CentroidSet, LoadingMatrix],
) -> float:
    """Product distance max(|A1 - A2|_F, Hausdorff(F1, F2)) between two
    (centroids, loading) pairs, after theta1 is rotated onto theta2 by the
    Procrustes rotation R of the loadings; centroid rows rotate with the same
    R, which leaves the model's loss unchanged.
    """
    f1, a1 = theta1
    f2, a2 = theta2
    r = align_rotation(a1, a2)  # raises first on differing loading shapes
    if f1.q != a1.q or f2.q != a2.q:
        raise ValueError("centroids and loadings disagree on dimension")
    d_load = float(np.linalg.norm(a1.values @ r - a2.values))
    d_cent = symmetric_hausdorff(CentroidSet(f1.values @ r), f2)
    return max(d_load, d_cent)
