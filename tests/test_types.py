"""Domain type validation and the loss arithmetic they share."""
import dataclasses

import numpy as np
import pytest

from rkmeans import (
    ORTHONORMALITY_TOL,
    Assignment,
    CentroidSet,
    DataMatrix,
    LoadingMatrix,
    RkmSolution,
    assigned_objective,
    decompose_objective,
    rkm_objective,
)


def test_data_matrix_basics():
    X = DataMatrix([[1, 2], [3, 4], [5, 6]])
    assert X.n == 3 and X.p == 2
    assert X.values.dtype == np.float64
    assert not X.values.flags.writeable


def test_data_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DataMatrix(np.ones(3))  # 1-D
    with pytest.raises(ValueError):
        DataMatrix(np.empty((0, 2)))
    with pytest.raises(ValueError):
        DataMatrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        DataMatrix([[1.0, np.inf]])


def test_types_are_frozen():
    X = DataMatrix([[1.0]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        X.values = np.zeros((1, 1))
    with pytest.raises(ValueError):
        X.values[0, 0] = 2.0  # numpy read-only flag


def test_loading_matrix_orthonormality():
    A = LoadingMatrix(np.eye(3)[:, :2])
    assert A.p == 3 and A.q == 2
    with pytest.raises(ValueError):
        LoadingMatrix(np.full((3, 2), 0.5))
    # q > p is not a valid frame
    with pytest.raises(ValueError):
        LoadingMatrix(np.eye(2, 3))
    # just inside the documented tolerance is accepted
    eps = 0.5 * ORTHONORMALITY_TOL
    LoadingMatrix(np.array([[1.0, eps], [0.0, 1.0], [0.0, 0.0]]))


def test_assignment_checks_range():
    u = Assignment([0, 1, 1, 2], 3)
    assert u.n == 4
    assert u.labels.dtype == np.int64
    assert u.cluster_sizes().tolist() == [1, 2, 1]
    with pytest.raises(ValueError):
        Assignment([0, 3], 3)
    with pytest.raises(ValueError):
        Assignment([-1, 0], 2)
    with pytest.raises(ValueError):
        Assignment([], 1)


def test_centroid_set_validation():
    F = CentroidSet([[0.0, 1.0]])
    assert F.k == 1 and F.q == 2
    with pytest.raises(ValueError):
        CentroidSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        CentroidSet([[np.nan]])


def test_rkm_solution_invariants():
    A = LoadingMatrix(np.eye(2, 1))
    F = CentroidSet([[1.0], [-1.0]])
    U = Assignment([0, 1], 2)
    # the loss and the sweep count are read off the trace, so neither can
    # disagree with it
    sol = RkmSolution(A, F, U, restart_index=0, sweep_losses=[9.0, 0.7, 0.5, 0.5])
    assert (sol.loss, sol.iterations, sol.sweep_losses) == (0.5, 3, (9.0, 0.7, 0.5, 0.5))
    for field in ("loss", "iterations", "seed"):
        with pytest.raises(TypeError):
            RkmSolution(A, F, U, restart_index=0, sweep_losses=(0.5,), **{field: 0})
    with pytest.raises(ValueError, match="at least the final loss"):
        RkmSolution(A, F, U, restart_index=0, sweep_losses=())
    for loss in (-1e-9, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            RkmSolution(A, F, U, restart_index=0, sweep_losses=(1.0, loss))
    with pytest.raises(ValueError):
        RkmSolution(A, CentroidSet([[1.0, 0.0]]), U, restart_index=0, sweep_losses=(0.0,))


# hand instance: X = [[2,0],[0,3]], A = e1, F = {+1,-1} in the 1-D subspace.
# projections are (2, 0); orthogonal residual is 0^2 + 3^2 = 9.
def _hand_instance():
    X = DataMatrix([[2.0, 0.0], [0.0, 3.0]])
    A = LoadingMatrix([[1.0], [0.0]])
    F = CentroidSet([[1.0], [-1.0]])
    return X, A, F


def test_rkm_objective_hand_value():
    X, A, F = _hand_instance()
    # min-dists: (2-1)^2 = 1 and (0-(-1))^2 = 1 -> (9 + 1 + 1) / 2
    assert rkm_objective(X, A, F) == pytest.approx(5.5, abs=1e-12)


def test_assigned_objective_hand_values():
    X, A, F = _hand_instance()
    best = Assignment([0, 1], 2)
    worse = Assignment([1, 0], 2)
    assert assigned_objective(X, A, F, best) == pytest.approx(5.5, abs=1e-12)
    assert assigned_objective(X, A, F, worse) == pytest.approx(9.5, abs=1e-12)
    # the min-based objective equals the best assignment's loss
    assert rkm_objective(X, A, F) <= assigned_objective(X, A, F, worse)


def test_decomposition_hand_values():
    X, A, F = _hand_instance()
    pca, km = decompose_objective(X, A, F, Assignment([0, 1], 2))
    assert pca == pytest.approx(4.5, abs=1e-12)
    assert km == pytest.approx(1.0, abs=1e-12)


def test_decomposition_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        p = int(rng.integers(2, 8))
        q = int(rng.integers(1, p + 1))
        k = int(rng.integers(1, 5))
        X = DataMatrix(rng.standard_normal((n, p)))
        basis = np.linalg.qr(rng.standard_normal((p, q)))[0]
        A = LoadingMatrix(basis)
        F = CentroidSet(rng.standard_normal((k, q)))
        U = Assignment(rng.integers(0, k, n), k)
        total = assigned_objective(X, A, F, U)
        pca, km = decompose_objective(X, A, F, U)
        assert abs(total - (pca + km)) <= 1e-9 * max(total, 1e-12)


def test_shape_mismatch_errors():
    X, A, F = _hand_instance()
    with pytest.raises(ValueError):
        rkm_objective(DataMatrix([[1.0, 2.0, 3.0]]), A, F)
    with pytest.raises(ValueError):
        assigned_objective(X, A, F, Assignment([0], 1))  # n mismatch
    with pytest.raises(ValueError):
        assigned_objective(X, A, F, Assignment([0, 1, 2], 3))  # too many clusters
