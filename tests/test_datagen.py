"""Synthetic benchmark generator and column normalization."""
import numpy as np
import pytest

from rkmeans import (
    Assignment,
    DataMatrix,
    DatasetSpec,
    DegenerateDataError,
    SolverConfig,
    adjusted_rand_index,
    fit_rkm,
    generate_dataset,
    normalize_columns,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(K=0, q=1, p1=2, p2=0, p3=0, n=10)
    with pytest.raises(ValueError):
        DatasetSpec(K=2, q=3, p1=2, p2=0, p3=0, n=10)  # q > p1
    with pytest.raises(ValueError):
        DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=4)  # n < K
    spec = DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400)
    assert spec.p == 15
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=-1)


def test_generated_shapes_and_ranges():
    spec = DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=3)
    ds = generate_dataset(spec)
    assert ds.X.values.shape == (400, 15)
    assert ds.Z.values.shape == (400, 15)
    assert ds.labels.n == 400 and ds.labels.n_clusters == 8
    assert ds.loading_true.values.shape == (15, 2)
    assert ds.centers_true.values.shape == (8, 2)
    assert np.all(np.abs(ds.centers_true.values) <= 15.0)
    # informative block carries the whole loading, noise rows are zero
    assert np.all(ds.loading_true.values[5:] == 0.0)
    gram = ds.loading_true.values.T @ ds.loading_true.values
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_cluster_frequencies_concentrate():
    spec = DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=11)
    sizes = generate_dataset(spec).labels.cluster_sizes()
    mean = 400 / 8
    sd = np.sqrt(400 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(sizes - mean) <= 4 * sd)


def test_same_seed_bit_identical():
    spec = DatasetSpec(K=5, q=2, p1=4, p2=3, p3=2, n=100, seed=77)
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    assert np.array_equal(a.X.values, b.X.values)
    assert np.array_equal(a.Z.values, b.Z.values)
    assert np.array_equal(a.labels.labels, b.labels.labels)
    assert np.array_equal(a.loading_true.values, b.loading_true.values)
    assert np.array_equal(a.centers_true.values, b.centers_true.values)
    c = generate_dataset(DatasetSpec(K=5, q=2, p1=4, p2=3, p3=2, n=100, seed=78))
    assert not np.array_equal(a.X.values, c.X.values)


def test_normalized_copy_is_standardized():
    ds = generate_dataset(DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=5))
    z = ds.Z.values
    assert np.max(np.abs(z.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(z.std(axis=0, ddof=1) - 1.0)) <= 1e-12


def test_noise_block_correlation_monte_carlo():
    # the p2 block has pairwise correlation 0.25 by construction; the residual
    # empirical correlation over 20 seeds must land within +/-0.1
    vals = []
    for seed in range(20):
        spec = DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=seed)
        ds = generate_dataset(spec)
        resid = ds.X.values - ds.centers_true.values[ds.labels.labels] @ ds.loading_true.values.T
        block = resid[:, 5:10]
        corr = np.corrcoef(block.T)
        off = corr[~np.eye(5, dtype=bool)]
        vals.append(off.mean())
    assert abs(np.mean(vals) - 0.25) <= 0.1
    # independent block stays uncorrelated on average
    assert abs(np.mean(vals)) > 0.1  # sanity: the signal is visible at all


def test_independent_noise_block_uncorrelated():
    vals = []
    for seed in range(20):
        ds = generate_dataset(DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=seed))
        resid = ds.X.values - ds.centers_true.values[ds.labels.labels] @ ds.loading_true.values.T
        block = resid[:, 10:15]
        corr = np.corrcoef(block.T)
        vals.append(corr[~np.eye(5, dtype=bool)].mean())
    assert abs(np.mean(vals)) <= 0.05


def noise_free(ds) -> DataMatrix:
    """The dataset's signal, the matrix its noise is added to."""
    return DataMatrix(ds.centers_true.values[ds.labels.labels] @ ds.loading_true.values.T)


def test_zero_noise_embedding_is_exact():
    ds = generate_dataset(DatasetSpec(K=4, q=2, p1=3, p2=2, p3=2, n=60, seed=9))
    signal = noise_free(ds)
    # the signal lives in the p1 informative variables; the rest is noise
    assert np.all(signal.values[:, 3:] == 0.0)
    assert np.all(ds.X.values[:, 3:] != 0.0)
    # projecting back onto the true loading recovers the centers
    y = signal.values @ ds.loading_true.values
    assert np.allclose(y, ds.centers_true.values[ds.labels.labels], atol=1e-12)


def test_zero_noise_fits_recover_truth():
    for seed in range(10):
        ds = generate_dataset(DatasetSpec(K=4, q=2, p1=4, p2=2, p3=2, n=80, seed=seed))
        X = noise_free(ds)
        sol = fit_rkm(X, SolverConfig(k=4, q=2, restarts=10, seed=seed))
        assert adjusted_rand_index(ds.labels, sol.assignment) == 1.0
        assert sol.loss == pytest.approx(0.0, abs=1e-16)


def test_normalize_hand_case():
    out = normalize_columns(DataMatrix([[0.0], [2.0]]))
    assert np.allclose(out.values.ravel(), [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    assert out.values.std(ddof=1) == pytest.approx(1.0, rel=1e-15)


def test_normalize_idempotent_and_errors():
    rng = np.random.default_rng(0)
    X = DataMatrix(rng.standard_normal((30, 3)) * 4 + 2)
    once = normalize_columns(X)
    twice = normalize_columns(once)
    assert np.allclose(once.values, twice.values, atol=1e-12)
    with pytest.raises(DegenerateDataError):
        normalize_columns(DataMatrix([[1.0, 2.0], [1.0, 3.0]]))  # constant column
    with pytest.raises(DegenerateDataError):
        normalize_columns(DataMatrix([[1.0, 2.0]]))  # single row


def test_label_scoring_uses_raw_truth():
    # the documented protocol: cluster the normalized copy, score against the
    # labels that generated the raw matrix
    ds = generate_dataset(DatasetSpec(K=8, q=2, p1=5, p2=5, p3=5, n=400, seed=1))
    assert ds.labels.n == ds.Z.n
    ari = adjusted_rand_index(
        ds.labels,
        Assignment(np.zeros(400, dtype=int), 1),
    )
    assert ari == 0.0  # all-in-one clustering carries no information
