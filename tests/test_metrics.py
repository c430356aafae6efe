"""ARI, Hausdorff distances, Procrustes alignment, product parameter distance."""
import numpy as np
import pytest

from rkmeans import (
    Assignment,
    CentroidSet,
    LoadingMatrix,
    adjusted_rand_index,
    directed_hausdorff,
    param_distance,
    symmetric_hausdorff,
)
from rkmeans.metrics import align_rotation


def test_ari_identical_and_permuted():
    a = Assignment([0, 0, 1, 1], 2)
    assert adjusted_rand_index(a, a) == 1.0
    flipped = Assignment([1, 1, 0, 0], 2)
    assert adjusted_rand_index(a, flipped) == 1.0


def test_ari_hand_value():
    # crossing partition: all cells 1, E = 2/3, M = 2 -> (0 - 2/3)/(2 - 2/3)
    a = Assignment([0, 0, 1, 1], 2)
    b = Assignment([0, 1, 0, 1], 2)
    assert adjusted_rand_index(a, b) == pytest.approx(-0.5, abs=1e-15)


def test_ari_degenerate_single_cluster():
    a = Assignment([0, 0, 0], 1)
    assert adjusted_rand_index(a, a) == 1.0  # M == E convention


def test_ari_errors():
    with pytest.raises(ValueError):
        adjusted_rand_index(Assignment([0, 1], 2), Assignment([0, 1, 1], 2))
    with pytest.raises(ValueError):
        adjusted_rand_index(Assignment([0], 1), Assignment([0], 1))


def _pair_counting_ari(x, y):
    """Independent oracle: O(n^2) pair bookkeeping and the 2(ad-bc) form."""
    x, y = np.asarray(x), np.asarray(y)
    a = b = c = d = 0
    n = x.size
    for i in range(n):
        for j in range(i + 1, n):
            sx, sy = x[i] == x[j], y[i] == y[j]
            if sx and sy:
                a += 1
            elif sx:
                b += 1
            elif sy:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        ka = int(rng.integers(1, 5))
        kb = int(rng.integers(1, 5))
        x = rng.integers(0, ka, n)
        y = rng.integers(0, kb, n)
        got = adjusted_rand_index(Assignment(x, ka), Assignment(y, kb))
        assert got == pytest.approx(_pair_counting_ari(x, y), abs=1e-12)


def test_ari_relabeling_invariance():
    rng = np.random.default_rng(8)
    x = rng.integers(0, 4, 50)
    y = rng.integers(0, 3, 50)
    base = adjusted_rand_index(Assignment(x, 4), Assignment(y, 3))
    perm = rng.permutation(4)
    again = adjusted_rand_index(Assignment(perm[x], 4), Assignment(y, 3))
    assert again == pytest.approx(base, abs=1e-15)


def test_ari_table_is_sized_by_the_labels_in_use():
    # a truth file's labels need not be dense: one label of 10**6 among 4
    # objects must not size a table by it
    import tracemalloc

    x = [0, 1, 1, 2]
    sparse = Assignment([0, 0, 1, 10**6], 10**6 + 1)
    tracemalloc.start()
    try:
        got = adjusted_rand_index(Assignment(x, 3), sparse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert got == adjusted_rand_index(Assignment(x, 3), Assignment([0, 0, 1, 2], 3))


def test_directed_hausdorff_hand_cases():
    F = CentroidSet([[0.0], [3.0]])
    G = CentroidSet([[0.0]])
    assert directed_hausdorff(F, F) == 0.0
    assert directed_hausdorff(F, G) == 3.0
    assert directed_hausdorff(G, F) == 0.0  # asymmetry witnessed
    assert symmetric_hausdorff(F, G) == symmetric_hausdorff(G, F) == 3.0
    with pytest.raises(ValueError):
        directed_hausdorff(F, CentroidSet([[0.0, 1.0]]))


def test_directed_hausdorff_runs_at_one_scale():
    # the squared differences overflow at 2^514 and go subnormal at 2^-514;
    # a power of two carries through exactly
    rng = np.random.default_rng(4)
    F, G = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    base = directed_hausdorff(CentroidSet(F), CentroidSet(G))
    for scale in (2.0**514, 2.0**-514):
        assert directed_hausdorff(CentroidSet(F * scale), CentroidSet(G * scale)) == base * scale


def _random_rotation(q, rng):
    m = rng.standard_normal((q, q))
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def test_align_rotation_recovers_known_rotation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A1 = LoadingMatrix(np.linalg.qr(rng.standard_normal((6, 3)))[0])
        r0 = _random_rotation(3, rng)
        A2 = LoadingMatrix(A1.values @ r0)
        r = align_rotation(A1, A2)
        assert np.allclose(r, r0, atol=1e-9)
        assert np.allclose(A1.values @ r, A2.values, atol=1e-9)


def test_align_rotation_beats_random_probes():
    rng = np.random.default_rng(13)
    A1 = LoadingMatrix(np.linalg.qr(rng.standard_normal((5, 2)))[0])
    A2 = LoadingMatrix(np.linalg.qr(rng.standard_normal((5, 2)))[0])
    r = align_rotation(A1, A2)
    resid = np.linalg.norm(A1.values @ r - A2.values)
    for _ in range(100):
        probe = _random_rotation(2, rng)
        assert resid <= np.linalg.norm(A1.values @ probe - A2.values) + 1e-12


def test_param_distance_rotation_classes():
    rng = np.random.default_rng(14)
    A = LoadingMatrix(np.linalg.qr(rng.standard_normal((5, 2)))[0])
    F = CentroidSet(rng.standard_normal((3, 2)))
    theta = (F, A)
    assert param_distance(theta, theta) == pytest.approx(0.0, abs=1e-12)
    r0 = _random_rotation(2, rng)
    rotated = (CentroidSet(F.values @ r0), LoadingMatrix(A.values @ r0))
    assert param_distance(theta, rotated) == pytest.approx(0.0, abs=1e-9)
    # invariance when theta1 is itself replaced by a rotated copy
    other = (CentroidSet(rng.standard_normal((3, 2))),
             LoadingMatrix(np.linalg.qr(rng.standard_normal((5, 2)))[0]))
    base = param_distance(theta, other)
    again = param_distance(rotated, other)
    assert again == pytest.approx(base, abs=1e-9)


def test_param_distance_shape_errors():
    A = LoadingMatrix(np.eye(3, 2))
    F = CentroidSet(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        param_distance((F, A), (F, LoadingMatrix(np.eye(4, 2))))
    with pytest.raises(ValueError):
        param_distance((CentroidSet(np.zeros((2, 1))), A), (F, A))
