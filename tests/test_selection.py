"""Variance-ratio criterion, second-difference profile, dimension selector."""
import numpy as np
import pytest

from rkmeans import (
    Assignment,
    CentroidSet,
    DataMatrix,
    DatasetSpec,
    DegenerateDataError,
    LoadingMatrix,
    RkmSolution,
    SolverConfig,
    VrProfile,
    delta2_profile,
    fit_rkm,
    generate_dataset,
    select_dimension,
    vr_hat,
)
from rkmeans import selection
from rkmeans._seeds import spawn_seed
from rkmeans.selection import argmax_delta2


def _solution(A, F, labels, k):
    return RkmSolution(
        loading=LoadingMatrix(A),
        centroids=CentroidSet(F),
        assignment=Assignment(labels, k),
        restart_index=0,
        sweep_losses=(0.0,),
    )


def test_vr_hat_zero_when_points_sit_on_centroids():
    X = DataMatrix([[1.0, 0.0], [-1.0, 0.0]])
    sol = _solution([[1.0], [0.0]], [[1.0], [-1.0]], [0, 1], 2)
    assert vr_hat(X, sol) == 0.0


def test_vr_hat_one_for_single_cluster_at_mean():
    X = DataMatrix([[3.0, 1.0], [5.0, -2.0], [10.0, 0.5]])
    mean = X.values[:, 0].mean()
    sol = _solution([[1.0], [0.0]], [[mean]], [0, 0, 0], 1)
    assert vr_hat(X, sol) == pytest.approx(1.0, rel=1e-12)


def test_vr_hat_ignores_off_subspace_noise():
    eps = 0.3
    X = DataMatrix([[1.0, 0.0], [-1.0, 0.0], [1.0, eps], [-1.0, eps]])
    sol = _solution([[1.0], [0.0]], [[1.0], [-1.0]], [0, 1, 0, 1], 2)
    assert vr_hat(X, sol) == 0.0


def test_vr_hat_degenerate_projections():
    X = DataMatrix([[1.0, 5.0], [1.0, 7.0]])
    sol = _solution([[1.0], [0.0]], [[1.0]], [0, 0], 1)
    with pytest.raises(DegenerateDataError):
        vr_hat(X, sol)
    with pytest.raises(ValueError, match="solution has p=2 but data has p=3"):
        vr_hat(DataMatrix([[1.0, 5.0, 0.0], [1.0, 7.0, 0.0]]), sol)


def test_vr_hat_rotation_and_scale_invariance():
    rng = np.random.default_rng(3)
    X = DataMatrix(rng.standard_normal((40, 4)) + rng.integers(0, 3, 40)[:, None])
    sol = fit_rkm(X, SolverConfig(k=3, q=2, restarts=5, seed=0))
    base = vr_hat(X, sol)
    m = rng.standard_normal((2, 2))
    u, _, vh = np.linalg.svd(m)
    r = u @ vh
    rotated = _solution(sol.loading.values @ r, sol.centroids.values @ r,
                        sol.assignment.labels, sol.assignment.n_clusters)
    assert vr_hat(X, rotated) == pytest.approx(base, abs=1e-10)
    c = 3.7
    scaled = _solution(sol.loading.values, c * sol.centroids.values,
                       sol.assignment.labels, sol.assignment.n_clusters)
    assert vr_hat(DataMatrix(c * X.values), scaled) == pytest.approx(base, rel=1e-10)


def test_delta2_hand_cases():
    assert delta2_profile({1: 0.4}) == {1: pytest.approx(-0.4)}
    # affine sequence: zero curvature at interior points
    lin = {q: 0.1 * q for q in range(1, 5)}
    d2 = delta2_profile(lin)
    assert d2[2] == pytest.approx(0.0, abs=1e-15)
    assert d2[3] == pytest.approx(0.0, abs=1e-15)
    d2 = delta2_profile({1: 0.1, 2: 0.2, 3: 0.9})
    assert d2[2] == pytest.approx(0.6)
    assert d2[1] == pytest.approx(0.2 - 0.2 + 0.0)
    assert d2[3] == pytest.approx(0.9 - 1.8 + 0.2)  # VR(4) := VR(3)
    assert delta2_profile({1: 0.0, 2: 0.0}) == {1: 0.0, 2: 0.0}


def test_delta2_validation():
    with pytest.raises(ValueError):
        delta2_profile({})
    with pytest.raises(ValueError):
        delta2_profile({1: 0.1, 3: 0.2})


def test_delta2_rejects_non_integer_keys():
    with pytest.raises(ValueError, match="got 2.5"):
        delta2_profile({1: 0.1, 2.5: 0.2})
    with pytest.raises(ValueError, match="got '2'"):
        delta2_profile({1: 0.1, "2": 0.2})
    # numpy integers are integer dimensions
    assert delta2_profile({np.int64(1): 0.5, np.int64(2): 0.7}) == delta2_profile({1: 0.5, 2: 0.7})


def test_argmax_ties_prefer_smallest_q():
    assert argmax_delta2({1: 0.5, 2: 0.5, 3: 0.1}) == 1
    assert argmax_delta2({1: -0.2, 2: 0.7, 3: 0.7}) == 2


def test_vr_profile_validation():
    with pytest.raises(ValueError):
        VrProfile(vr={2: 0.5})
    with pytest.raises(ValueError):
        VrProfile(vr={0: 0.1, 1: 0.5})
    with pytest.raises(ValueError):
        VrProfile(vr={1: 1.5})
    # the profile and the selection come from vr, so none can contradict it
    with pytest.raises(TypeError):
        VrProfile(vr={1: 0.5, 2: 0.7}, delta2={1: 0.0, 2: -0.1}, q_hat=1)
    prof = VrProfile(vr={1: 0.5, 2: 0.7})
    assert prof.q_max == 2
    assert prof.delta2 == delta2_profile({1: 0.5, 2: 0.7})
    assert prof.q_hat == 2


def test_select_dimension_validation():
    X = DataMatrix(np.random.default_rng(0).standard_normal((30, 4)))
    with pytest.raises(ValueError):
        select_dimension(X, 1)
    with pytest.raises(ValueError):
        select_dimension(X, 3, q_max=3)  # exceeds k - 1


def test_zero_noise_vr_vanishes_everywhere():
    # with k centroids and k point-mass clusters, every projection separates
    # perfectly, so the whole VR curve is 0
    ds = generate_dataset(DatasetSpec(K=4, q=2, p1=3, p2=2, p3=2, n=120, seed=0))
    signal = ds.centers_true.values[ds.labels.labels] @ ds.loading_true.values.T
    prof = select_dimension(DataMatrix(signal), 4, restarts=20, seed=0)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in prof.vr.values())


def test_kinked_vr_curve_selects_the_kink():
    # slope small before q* and large after: the second difference peaks
    # exactly at the kink
    vr = {1: 0.02, 2: 0.04, 3: 0.5, 4: 0.9}
    d2 = delta2_profile(vr)
    assert d2[2] == pytest.approx(0.5 - 0.08 + 0.02)
    assert argmax_delta2(d2) == 2


def test_select_dimension_collinear_clusters():
    # three well-separated clusters on a line through the origin: q_true = 1
    rng0 = np.random.default_rng(99)
    v = np.array([1.0, -1.0, 2.0]) / np.sqrt(6)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = rng.choice([-20.0, 0.0, 20.0], size=90)
        X = DataMatrix(np.outer(t, v) + 0.05 * rng.standard_normal((90, 3)))
        prof = select_dimension(X, 3, restarts=10, seed=seed)
        assert prof.q_hat == 1
    del rng0


def test_select_dimension_deterministic():
    rng = np.random.default_rng(1)
    X = DataMatrix(rng.standard_normal((50, 5)) + rng.integers(0, 4, 50)[:, None])
    a = select_dimension(X, 4, restarts=10, seed=3)
    b = select_dimension(X, 4, restarts=10, seed=3)
    assert a.q_hat == b.q_hat and a.vr == b.vr and a.delta2 == b.delta2


def test_select_dimension_recovers_planted_q_on_benchmark():
    # wider-noise benchmark with 10 informative variables: the planted q = 2
    # should win in the clear majority of replications
    hits = 0
    for r in range(12):
        ds = generate_dataset(DatasetSpec(K=8, q=2, p1=10, p2=10, p3=10, n=400, seed=1000 + r))
        prof = select_dimension(ds.Z, 8, restarts=50, seed=r)
        hits += prof.q_hat == 2
    assert hits >= 11, f"selector found the planted dimension on only {hits}/12 runs"


def _assert_same_fit(a, b):
    assert a.loss == b.loss
    assert np.array_equal(a.loading.values, b.loading.values)
    assert np.array_equal(a.centroids.values, b.centroids.values)
    assert np.array_equal(a.assignment.labels, b.assignment.labels)
    assert (a.sweep_losses, a.restart_index) == (b.sweep_losses, b.restart_index)


def test_select_dimension_seeds_each_q_from_seed_and_q():
    # the q-th fit is fit_rkm with seed spawn_seed(seed, q), bit for bit
    rng = np.random.default_rng(7)
    X = DataMatrix(rng.standard_normal((40, 4)) + rng.integers(0, 3, 40)[:, None])
    prof = select_dimension(X, 4, restarts=6, seed=9)
    assert len(prof.solutions) == 3
    for q, sol in enumerate(prof.solutions, start=1):
        _assert_same_fit(sol, fit_rkm(X, SolverConfig(k=4, q=q, restarts=6,
                                                      seed=spawn_seed(9, q))))


def test_select_dimension_defaults_to_50_restarts_and_seed_0(monkeypatch):
    seen = []
    real = selection.fit_rkm
    monkeypatch.setattr(selection, "fit_rkm", lambda X, cfg: seen.append(cfg) or real(X, cfg))
    X = DataMatrix(np.random.default_rng(2).standard_normal((30, 3)))
    select_dimension(X, 3)
    assert seen == [SolverConfig(k=3, q=q, restarts=50, seed=spawn_seed(0, q)) for q in (1, 2)]


def test_select_dimension_refuses_a_negative_seed_before_any_fit(monkeypatch):
    monkeypatch.setattr(selection, "fit_rkm", lambda X, cfg: pytest.fail("fit ran"))
    X = DataMatrix(np.random.default_rng(2).standard_normal((30, 3)))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        select_dimension(X, 3, seed=-1)
