"""Subspace-dimension selection by the variance-ratio criterion.

For each candidate dimension q the model is refitted and scored by
VR(q) = projected within-cluster SSE / projected total SSE, a number in
[0, 1] that is invariant to rotations of the fit and to rescaling the data.
The selected q maximizes the second-order central difference of the VR
sequence (the sharpest elbow), with the boundary conventions VR(0) = 0 and
VR(q_max + 1) = VR(q_max).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._seeds import spawn_seed
from .errors import DegenerateDataError
from .solver import SolverConfig, fit_rkm
from .types import DataMatrix, RkmSolution


@dataclass(frozen=True)
class VrProfile:
    """Variance-ratio curve over q = 1..q_max, its second-difference profile,
    and the selected dimension. ``solutions`` keeps the per-q fits so callers
    can score them without refitting."""

    k: int
    vr: dict
    delta2: dict
    q_hat: int
    solutions: tuple = ()

    def __post_init__(self):
        qs = sorted(self.vr)
        if qs != list(range(1, len(qs) + 1)):
            raise ValueError("vr must be keyed by consecutive q starting at 1")
        for q, value in self.vr.items():
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"vr[{q}]={value} outside [0, 1]")
        if self.q_hat not in self.vr:
            raise ValueError(f"q_hat={self.q_hat} not among profiled dimensions")

    @property
    def q_max(self) -> int:
        return len(self.vr)


def vr_hat(X: DataMatrix, sol: RkmSolution) -> float:
    """Projected within-cluster SSE over projected total SSE about the
    projected sample mean. Both sums use the same normalization, so the
    ratio is scale- and normalization-free."""
    if sol.loading.p != X.p:
        raise ValueError(f"solution has p={sol.loading.p} but data has p={X.p}")
    y = X.values @ sol.loading.values
    d = y[:, None, :] - sol.centroids.values[None, :, :]
    within = float(np.sum(d * d, axis=2).min(axis=1).sum())
    centered = y - y.mean(axis=0)
    total = float(np.sum(centered * centered))
    if total <= 0.0:
        raise DegenerateDataError("all projected observations are identical")
    return within / total


def delta2_profile(vr: dict) -> dict:
    """Second-order central difference VR(q+1) - 2 VR(q) + VR(q-1) of the VR
    sequence at each q, with boundaries VR(0) = 0 and VR(q_max + 1) =
    VR(q_max). q_max is the largest key of vr, which must hold every q in
    1..q_max.
    """
    for q in vr:
        if not isinstance(q, (int, np.integer)):
            raise ValueError(f"vr keys must be integer dimensions q, got {q!r}")
    q_max = max(vr, default=0)
    if q_max < 1:
        raise ValueError("vr needs values for q = 1..q_max with q_max >= 1")
    missing = [q for q in range(1, q_max + 1) if q not in vr]
    if missing:
        raise ValueError(f"vr is missing values for q={missing}")
    ext = {0: 0.0, q_max + 1: float(vr[q_max])}
    ext.update({q: float(vr[q]) for q in range(1, q_max + 1)})
    return {q: ext[q + 1] - 2.0 * ext[q] + ext[q - 1] for q in range(1, q_max + 1)}


def argmax_delta2(delta2: dict) -> int:
    """Dimension with the largest second difference; ties keep the smallest q."""
    best_q = None
    best_v = -np.inf
    for q in sorted(delta2):
        if delta2[q] > best_v:
            best_q, best_v = q, delta2[q]
    return best_q


def select_dimension(
    X: DataMatrix,
    k: int,
    q_max: int | None = None,
    config: SolverConfig | None = None,
) -> VrProfile:
    """Fit the model for every q in 1..q_max, score each fit by vr_hat, and
    select the q maximizing the second-difference profile.

    q_max defaults to min(k - 1, p). Each per-q fit gets an independent seed
    derived from (seed, q). The default restart budget is higher than the
    plain solver's because selection quality hinges on near-global optima.
    """
    k = int(k)
    if k < 2:
        raise ValueError("dimension selection needs k >= 2")
    if q_max is None:
        q_max = min(k - 1, X.p)
    if not 1 <= q_max <= min(k - 1, X.p):
        raise ValueError(f"need 1 <= q_max <= min(k-1, p) = {min(k - 1, X.p)}")
    if config is None:
        config = SolverConfig(k=k, q=1, restarts=50)
    if config.k != k:
        raise ValueError(f"config.k={config.k} disagrees with k={k}")
    vr: dict = {}
    solutions = []
    for q in range(1, q_max + 1):
        cfg = replace(config, q=q, seed=spawn_seed(config.seed, q))
        sol = fit_rkm(X, cfg)
        vr[q] = vr_hat(X, sol)
        solutions.append(sol)
    delta2 = delta2_profile(vr)
    return VrProfile(
        k=k,
        vr=vr,
        delta2=delta2,
        q_hat=argmax_delta2(delta2),
        solutions=tuple(solutions),
    )
