"""Subspace-dimension selection by the variance-ratio criterion.

For each candidate dimension q the model is refitted and scored by
VR(q) = projected within-cluster SSE / projected total SSE, a number in
[0, 1] that is invariant to rotations of the fit and to rescaling the data.
The selected q maximizes the second-order central difference of the VR
sequence (the sharpest elbow), with the boundary conventions VR(0) = 0 and
VR(q_max + 1) = VR(q_max).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._seeds import spawn_seed
from .errors import DegenerateDataError
from .solver import SolverConfig, fit_rkm
from .types import DataMatrix, RkmSolution


@dataclass(frozen=True)
class VrProfile:
    """Variance-ratio curve over q = 1..q_max, its second-difference profile,
    and the selected dimension. ``solutions`` keeps the per-q fits so callers
    can score them without refitting. The profile and the selection are
    derived from vr."""

    vr: dict
    solutions: tuple = ()
    delta2: dict = field(init=False)
    q_hat: int = field(init=False)

    def __post_init__(self):
        for q, value in self.vr.items():
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"vr[{q}]={value} outside [0, 1]")
        object.__setattr__(self, "delta2", delta2_profile(self.vr))
        object.__setattr__(self, "q_hat", argmax_delta2(self.delta2))

    @property
    def q_max(self) -> int:
        return len(self.vr)


def vr_hat(X: DataMatrix, sol: RkmSolution) -> float:
    """Projected within-cluster SSE over projected total SSE about the
    projected sample mean. Both sums use the same normalization, so the
    ratio is scale- and normalization-free, and it is taken at
    ``_kernels.in_range``'s scale of X and the centroids."""
    if sol.loading.p != X.p:
        raise ValueError(f"solution has p={sol.loading.p} but data has p={X.p}")
    x, e = _kernels.in_range(X.values)
    y = x @ sol.loading.values
    d = y[:, None, :] - np.ldexp(sol.centroids.values, -e)[None, :, :]
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
    if len(vr) > q_max:
        raise ValueError(f"vr keys must be q = 1..{q_max}, got {sorted(vr)}")
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
    restarts: int = 50,
    seed: int = 0,
) -> VrProfile:
    """Fit the model for every q in 1..q_max, score each fit by vr_hat, and
    select the q maximizing the second-difference profile.

    q_max defaults to min(k - 1, p). The q-th fit runs ``restarts`` restarts
    from the independent seed spawn_seed(seed, q). The default restart
    budget is higher than the plain solver's because selection quality
    hinges on near-global optima.
    """
    k = int(k)
    if k < 2:
        raise ValueError("dimension selection needs k >= 2")
    if q_max is None:
        q_max = min(k - 1, X.p)
    if not 1 <= q_max <= min(k - 1, X.p):
        raise ValueError(f"need 1 <= q_max <= min(k-1, p) = {min(k - 1, X.p)}")
    vr: dict = {}
    solutions = []
    for q in range(1, q_max + 1):
        sol = fit_rkm(X, SolverConfig(k, q, restarts, seed=spawn_seed(seed, q)))
        vr[q] = vr_hat(X, sol)
        solutions.append(sol)
    return VrProfile(vr=vr, solutions=tuple(solutions))
