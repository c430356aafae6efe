"""Tests for the consistency laboratory: the angle-grid oracle, the
replication experiments, and the deviation-probability bound.

The four-atom population {(+-1, +-0.1)} with equal weights is the workhorse:
its k=2 line-projection optimum is known exactly (direction e1, centers +-1,
loss 0.01), and theta=0 lies on the angle grid, so the oracle must hit it
with no grid error at all.
"""
import csv
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rkmeans import (
    AgreementResult,
    CentroidSet,
    ConvergenceReport,
    DataMatrix,
    DatasetSpec,
    DegenerateDataError,
    LoadingMatrix,
    OracleSolution,
    PopulationSpec,
    SolverConfig,
    adjusted_rand_index,
    agreement_experiment,
    check_distinctness,
    consistency_experiment,
    fit_rkm,
    generate_dataset,
    oracle_global_min,
    population_risk,
    rate_bound,
    select_dimension,
    vr_hat,
)
from rkmeans import lab, selection
from rkmeans._seeds import spawn_rng, spawn_seed
from rkmeans.baselines import kmeans_1d_dp, kmeans_1d_exact, weighted_prefix_sums
from rkmeans.lab import _population_vr


def _assert_same_fit(a, b):
    assert a.loss == b.loss
    assert np.array_equal(a.loading.values, b.loading.values)
    assert np.array_equal(a.centroids.values, b.centroids.values)
    assert np.array_equal(a.assignment.labels, b.assignment.labels)
    assert (a.sweep_losses, a.restart_index) == (b.sweep_losses, b.restart_index)


def four_atom_pop() -> PopulationSpec:
    atoms = np.array([[1.0, 0.1], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.1]])
    return PopulationSpec(atoms=atoms, weights=np.full(4, 0.25))


class TestPopulationSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PopulationSpec(np.zeros((2, 2)), np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="nonnegative"):
            PopulationSpec(np.zeros((2, 2)), np.array([-0.1, 1.1]))
        with pytest.raises(ValueError, match="2-D"):
            PopulationSpec(np.zeros(3), np.array([1.0]))
        with pytest.raises(ValueError, match="one entry per atom"):
            PopulationSpec(np.zeros((3, 2)), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("atoms, weights, message", [
        ([[0.0, 1.0], [1.0, 0.0]], [float("nan"), 1.0], "weights contain NaN or Inf"),
        ([[0.0, 1.0], [1.0, 0.0]], [float("inf"), 1.0], "weights contain NaN or Inf"),
        ([[0.0, float("nan")], [1.0, 0.0]], [0.5, 0.5], "atoms contain NaN or Inf"),
        ([[0.0, float("inf")], [1.0, 0.0]], [0.5, 0.5], "atoms contain NaN or Inf"),
    ])
    def test_rejects_non_finite_entries(self, atoms, weights, message):
        # a NaN weight slips past the sum test (abs(nan - 1) > tol is False)
        with pytest.raises(ValueError, match=message):
            PopulationSpec(np.array(atoms), np.array(weights))

    def test_properties_and_immutability(self):
        pop = four_atom_pop()
        assert pop.m == 4
        assert pop.p == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            pop.m_field = 1  # type: ignore[attr-defined]
        with pytest.raises(ValueError):
            pop.atoms[0, 0] = 5.0


class TestOracle:
    def test_four_atom_optimum_is_exact(self):
        # theta=0 is the first grid angle, so no grid gap enters: the loss is
        # the projection residual 0.01 and the direction is exactly e1
        opt = oracle_global_min(four_atom_pop(), k=2)
        assert opt.loss == pytest.approx(0.01, rel=1e-12)
        assert opt.angle == 0.0
        assert opt.loading.values[0, 0] == 1.0
        assert opt.loading.values[1, 0] == 0.0
        assert sorted(opt.centroids.values[:, 0]) == [-1.0, 1.0]
        assert opt.grid_gap == pytest.approx(2.0 * 1.01 * math.pi / 2000, rel=1e-15)

    def test_single_on_axis_atom_is_lossless(self):
        pop = PopulationSpec(np.array([[2.0, 0.0]]), np.array([1.0]))
        opt = oracle_global_min(pop, k=1)
        assert opt.loss == 0.0
        assert opt.angle == 0.0

    def test_off_grid_atom_within_certified_gap(self):
        pop = PopulationSpec(np.array([[3.0, 4.0]]), np.array([1.0]))
        opt = oracle_global_min(pop, k=1)
        assert 0.0 <= opt.loss <= opt.grid_gap + 1e-12
        assert opt.grid_gap == pytest.approx(2.0 * 25.0 * math.pi / 2000, rel=1e-15)

    def test_collinear_atoms_one_center_each(self):
        pop = PopulationSpec(
            np.array([[1.0, 0.0], [2.0, 0.0], [5.0, 0.0]]), np.full(3, 1.0 / 3)
        )
        opt = oracle_global_min(pop, k=3)
        assert opt.loss == pytest.approx(0.0, abs=1e-12)
        assert sorted(opt.centroids.values[:, 0]) == pytest.approx([1.0, 2.0, 5.0], rel=1e-14)

    def test_data_matrix_equals_uniform_population(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((12, 2))
        from_data = oracle_global_min(DataMatrix(pts), k=3)
        from_pop = oracle_global_min(
            PopulationSpec(pts, np.full(12, 1.0 / 12)), k=3
        )
        assert from_data.loss == from_pop.loss
        assert from_data.angle == from_pop.angle

    def test_argument_validation(self):
        pop = four_atom_pop()
        with pytest.raises(ValueError, match="p=2"):
            oracle_global_min(PopulationSpec(np.zeros((2, 3)), [0.5, 0.5]), k=1)
        with pytest.raises(ValueError, match="1 <= k"):
            oracle_global_min(pop, k=0)
        with pytest.raises(ValueError, match="1 <= k"):
            oracle_global_min(pop, k=5)
        with pytest.raises(TypeError, match="DataMatrix or PopulationSpec"):
            oracle_global_min(np.zeros((3, 2)), k=1)

    def test_batched_dp_matches_exact_1d_solver(self):
        rng = np.random.default_rng(11)
        atoms = rng.standard_normal((9, 2)) * 2.0
        weights = rng.uniform(0.5, 2.0, 9)
        weights /= weights.sum()
        angles = rng.uniform(0.0, math.pi, 12)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        t = dirs @ atoms.T
        order = np.argsort(t, axis=1, kind="stable")
        ts = np.take_along_axis(t, order, axis=1)
        ws = weights[order]
        for k in range(1, 5):
            prefix = weighted_prefix_sums(ts, ws)
            batched = kmeans_1d_dp(prefix, k)[0] / prefix[0][:, -1]
            for g in range(len(angles)):
                exact = kmeans_1d_exact(ts[g], k, weights=ws[g]).loss
                assert batched[g] == pytest.approx(exact, rel=1e-10, abs=1e-12)


    def test_dp_end_cell_equals_enumeration(self):
        # the DP solves only the last layer's end cell; it must be the least
        # cost over every cut into k contiguous runs, each run scored from
        # the same prefix sums and summed from the left, bit for bit, on rows
        # with tied values, duplicate points and zero weights, up to k = m
        rng = np.random.default_rng(5)
        m = 5
        ts = np.sort(np.round(rng.uniform(-3.0, 3.0, (40, m)), 1), axis=1)
        ts[:8] = np.sort(rng.integers(-2, 3, (8, m)).astype(float), axis=1)
        ts[8] = 1.5
        ws = rng.uniform(0.0, 2.0, (40, m))
        ws[rng.random((40, m)) < 0.3] = 0.0
        ws[9] = 0.0
        prefix = weighted_prefix_sums(ts, ws)
        cw, cwt, cwt2 = prefix

        def run_sse(a, b):
            sw = cw[:, b] - cw[:, a]
            s1 = cwt[:, b] - cwt[:, a]
            ratio = np.zeros_like(s1)
            np.divide(s1 * s1, sw, out=ratio, where=sw > 0)
            return np.maximum(cwt2[:, b] - cwt2[:, a] - ratio, 0.0)

        for k in range(1, m + 1):
            best = np.full(40, np.inf)
            for cuts in itertools.combinations(range(1, m), k - 1):
                bounds = (0,) + cuts + (m,)
                cost = run_sse(0, bounds[1])
                for a, b in zip(bounds[1:], bounds[2:]):
                    cost = cost + run_sse(a, b)
                best = np.minimum(best, cost)
            end, split = kmeans_1d_dp(prefix, k)
            assert split is None
            assert end.shape == (40,)
            assert np.array_equal(end, best)
            # kmeans_1d_exact's call, which keeps the splits, reads the same
            assert np.array_equal(kmeans_1d_dp(prefix, k, keep_splits=True)[0], end)

    def test_k2_oracle_peak_memory_matches_k1(self):
        # the oracle reads one cell of the last DP layer; a k=2 solve that
        # fills that whole layer raises the peak about 15% over k=1
        rng = np.random.default_rng([7, 0])
        atoms = np.vstack([rng.normal((2.0, 0.5), 0.4, (100, 2)),
                           rng.normal((-2.0, -0.5), 0.4, (100, 2))])
        pop = PopulationSpec(atoms, np.full(200, 1.0 / 200))
        peaks = {}
        for k in (1, 2):
            tracemalloc.start()
            try:
                oracle_global_min(pop, k)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.02 * peaks[1], peaks


class TestPopulationRisk:
    def test_hand_value(self):
        pop = four_atom_pop()
        A = LoadingMatrix(np.array([[1.0], [0.0]]))
        F = CentroidSet(np.array([[-1.0], [1.0]]))
        assert population_risk(pop, A, F) == pytest.approx(0.01, rel=1e-12)

    def test_dimension_mismatch(self):
        pop = four_atom_pop()
        A3 = LoadingMatrix(np.array([[1.0], [0.0], [0.0]]))
        with pytest.raises(ValueError, match="p=3"):
            population_risk(pop, A3, CentroidSet(np.array([[0.0]])))

    def test_q_mismatch(self):
        # a 2 x 1 loading against 2-D centroids would broadcast to a number
        pop = four_atom_pop()
        A = LoadingMatrix(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="q=1 but centroids have q=2"):
            population_risk(pop, A, CentroidSet(np.array([[-1.0, 0.0], [1.0, 0.0]])))

    def test_population_vr_is_zero_at_the_optimum(self):
        pop = four_atom_pop()
        opt = oracle_global_min(pop, k=2)
        assert _population_vr(pop, opt) == 0.0

    def test_population_vr_degenerate_projection(self):
        pop = PopulationSpec(np.array([[0.0, 1.0], [0.0, 2.0]]), [0.5, 0.5])
        fake = OracleSolution(
            loss=0.0,
            centroids=CentroidSet(np.array([[0.0]])),
            angle=0.0,  # the loading [[1], [0]]
            grid_gap=0.0,
        )
        with pytest.raises(DegenerateDataError, match="single point"):
            _population_vr(pop, fake)


class TestCheckDistinctness:
    def test_strictly_decreasing_losses_pass(self):
        # k=1 loss is E||x||^2 = 1.01 at every angle (projections are
        # symmetric about 0), k=2 drops to the 0.01 residual
        losses = [opt.loss for opt in check_distinctness(four_atom_pop(), k=2)]
        assert losses[0] == pytest.approx(1.01, rel=1e-12)
        assert losses[1] == pytest.approx(0.01, rel=1e-12)

    def test_duplicate_atom_violation(self):
        pop = PopulationSpec(
            np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
            np.array([0.25, 0.25, 0.5]),
        )
        with pytest.raises(DegenerateDataError, match="strictly decreasing"):
            check_distinctness(pop, k=3)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_cluster_count_validated(self, k):
        with pytest.raises(ValueError, match="1 <= k <= 4 points"):
            check_distinctness(four_atom_pop(), k=k)


class TestConvergenceReport:
    def make(self, vr=(0.5, 0.25)):
        return ConvergenceReport(
            n_grid=(5,),
            losses={5: (0.1, 0.2)},
            distances={5: (0.0, 0.3)},
            vr_values={5: vr},
            population_risks={5: (0.1, 0.2)},
            oracle_loss=0.1,
        )

    def test_nan_vr_becomes_null_in_json(self):
        report = self.make(vr=(float("nan"), 0.5))
        doc = report.to_json_dict()
        assert doc["vr_values"]["5"] == [None, 0.5]
        assert doc["losses"]["5"] == [0.1, 0.2]
        assert doc["n_grid"] == [5]
        assert report.median("vr_values", 5) == 0.5

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="keyed exactly"):
            ConvergenceReport(
                n_grid=(5,),
                losses={4: (0.1,)},
                distances={5: (0.0,)},
                vr_values={5: (0.5,)},
                population_risks={5: (0.1,)},
                oracle_loss=0.1,
            )

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="negative loss"):
            ConvergenceReport(
                n_grid=(5,),
                losses={5: (-0.1,)},
                distances={5: (0.0,)},
                vr_values={5: (0.5,)},
                population_risks={5: (0.1,)},
                oracle_loss=0.1,
            )

    def test_risk_below_certified_optimum_rejected(self):
        with pytest.raises(ValueError, match="undercuts"):
            ConvergenceReport(
                n_grid=(5,),
                losses={5: (0.1,)},
                distances={5: (0.0,)},
                vr_values={5: (0.5,)},
                population_risks={5: (0.3,)},
                oracle_loss=0.5,
                oracle_gap=0.0,
            )

    def test_oracle_loss_is_required(self):
        # every report carries the certified optimum its risks are checked
        # against; there is no unchecked report
        with pytest.raises(TypeError, match="oracle_loss"):
            ConvergenceReport(
                n_grid=(5,),
                losses={5: (0.1,)},
                distances={5: (0.0,)},
                vr_values={5: (0.5,)},
                population_risks={5: (0.1,)},
            )

    def test_csv_round_trip(self, tmp_path):
        report = self.make(vr=(float("nan"), 0.5))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "rep", "loss", "distance", "vr", "population_risk"]
        assert len(rows) == 3
        assert rows[1][4] == ""  # NaN serializes as an empty cell
        assert float(rows[2][4]) == 0.5
        assert float(rows[1][2]) == 0.1
        assert report.reps(5) == 2


def _forbid_solves(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(lab, "oracle_global_min", unreachable)
    monkeypatch.setattr(lab, "fit_rkm", unreachable)
    monkeypatch.setattr(lab, "generate_dataset", unreachable)


class TestConsistencyExperiment:
    def run_small(self, seed=11):
        return consistency_experiment(
            four_atom_pop(),
            k=2,
            q=1,
            n_grid=(40, 160),
            reps=3,
            restarts=5,
            seed=seed,
        )

    def test_smoke_and_certified_sandwich(self):
        report = self.run_small()
        assert report.n_grid == (40, 160)
        assert report.oracle_loss == pytest.approx(0.01, rel=1e-12)
        assert report.oracle_vr == 0.0
        floor = report.oracle_loss - report.oracle_gap - 1e-9
        for n in report.n_grid:
            assert report.reps(n) == 3
            for r in range(3):
                assert report.losses[n][r] >= 0.0
                assert report.distances[n][r] >= 0.0
                assert report.population_risks[n][r] >= floor
                assert math.isfinite(report.vr_values[n][r])
        # with 160 draws from four atoms the fit should sit near the optimum
        assert report.median("losses", 160) < 0.05
        assert report.median("distances", 160) < 0.5
        summary = report.summary()
        assert set(summary) == {"loss", "distance", "vr", "population_risk"}
        assert set(summary["loss"]) == {40, 160}

    def test_bit_identical_reruns(self):
        assert self.run_small().to_json_dict() == self.run_small().to_json_dict()

    def test_oracle_solves_each_cluster_count_once(self, monkeypatch):
        # the distinctness check's k-cluster solution is the optimum itself
        solved = []
        oracle = lab.oracle_global_min
        monkeypatch.setattr(lab, "oracle_global_min",
                            lambda pop, k, **kw: solved.append(k) or oracle(pop, k, **kw))
        report = self.run_small()
        assert solved == [1, 2]
        optimum = oracle(four_atom_pop(), 2)
        assert (report.oracle_loss, report.oracle_gap) == (optimum.loss, optimum.grid_gap)

    def test_argument_validation(self):
        pop = four_atom_pop()
        pop3 = PopulationSpec(np.zeros((2, 3)) + np.eye(2, 3), [0.5, 0.5])
        with pytest.raises(ValueError, match="p=2, q=1"):
            consistency_experiment(pop3, k=2, q=1, n_grid=(10,), reps=1)
        with pytest.raises(ValueError, match="smaller than k"):
            consistency_experiment(pop, k=2, q=1, n_grid=(1,), reps=1)

    @pytest.mark.parametrize("n_grid, reps, message", [
        ((800, 1), 50, "n=1 is smaller than k=2"),
        ((10,), 0, "reps must be >= 1"),
        ((10,), -1, "reps must be >= 1"),
        ((), 3, "n_grid must hold at least one sample size"),
        ((20, 40, 20), 1, "n_grid repeats the sample size n=20"),
    ])
    def test_arguments_checked_before_any_solve(self, monkeypatch, n_grid, reps, message):
        _forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match=message):
            consistency_experiment(four_atom_pop(), k=2, q=1, n_grid=n_grid, reps=reps)

    @pytest.mark.parametrize("pop, q, message", [
        (PopulationSpec(np.eye(2, 3), [0.5, 0.5]), 1, "p=2, q=1, got p=3, q=1"),
        (four_atom_pop(), 2, "p=2, q=1, got p=2, q=2"),
    ], ids=["p=3", "q=2"])
    def test_oracle_shape_checked_before_any_solve(self, monkeypatch, pop, q, message):
        _forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match=message):
            consistency_experiment(pop, k=2, q=q, n_grid=(10,), reps=1)

    def test_restarts_checked_before_any_solve(self, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            consistency_experiment(four_atom_pop(), k=2, q=1, n_grid=(10,), reps=1, restarts=0)

    def test_each_rep_refits_its_own_sample_and_seed(self):
        # rep (n, r) samples with spawn_rng(seed, n, r) and fits with
        # spawn_seed(seed, n, r, 1), bit for bit
        pop = four_atom_pop()
        report = consistency_experiment(pop, k=2, q=1, n_grid=(12, 30), reps=2,
                                        restarts=3, seed=4)
        for n in (12, 30):
            for r in range(2):
                idx = spawn_rng(4, n, r).choice(pop.m, size=n, p=pop.weights)
                X = DataMatrix(pop.atoms[idx])
                sol = fit_rkm(X, SolverConfig(k=2, q=1, restarts=3, seed=spawn_seed(4, n, r, 1)))
                assert report.losses[n][r] == sol.loss
                assert report.vr_values[n][r] == vr_hat(X, sol)
                assert report.population_risks[n][r] == population_risk(
                    pop, sol.loading, sol.centroids)

    def test_defaults_to_20_restarts_and_seed_0(self, monkeypatch):
        seen = []
        real = lab.fit_rkm
        monkeypatch.setattr(lab, "fit_rkm", lambda X, cfg: seen.append(cfg) or real(X, cfg))
        consistency_experiment(four_atom_pop(), k=2, q=1, n_grid=(8,), reps=2)
        assert seen == [SolverConfig(k=2, q=1, restarts=20, seed=spawn_seed(0, 8, r, 1))
                        for r in range(2)]


class TestAgreementExperiment:
    def test_smoke_on_one_setting(self):
        results = agreement_experiment(
            settings=[(2, 5, 5, 5)],
            reps=2,
            restarts=3,
            seed=5,
        )
        assert len(results) == 1
        res = results[0]
        assert res.setting == (2, 5, 5, 5)
        assert res.reps == 2
        assert 0 <= res.hits <= 2
        assert res.rate == res.hits / 2
        assert len(res.picks) == 2
        for q_hat, q_best in res.picks:
            assert 1 <= q_hat <= 7
            assert 1 <= q_best <= 7

    def test_counts_come_from_the_picks(self):
        # reps and hits are the picks' count and agreements, so a result
        # cannot claim more hits than reps
        res = AgreementResult((2, 5, 5, 5), ((1, 2), (2, 2), (3, 3)))
        assert (res.reps, res.hits, res.rate) == (3, 2, 2 / 3)
        assert type(res.hits) is int
        with pytest.raises(TypeError):
            AgreementResult((2, 5, 5, 5), reps=5, hits=9, picks=((1, 2),))

    def test_reruns_are_deterministic(self):
        kwargs = dict(
            settings=[(2, 5, 5, 5)],
            reps=2,
            restarts=3,
            seed=5,
        )
        first = agreement_experiment(**kwargs)
        second = agreement_experiment(**kwargs)
        assert first[0].picks == second[0].picks
        assert first[0].hits == second[0].hits

    def test_each_rep_profiles_its_own_dataset_and_seed(self, monkeypatch):
        # rep r of setting si is select_dimension on the Table-1 shape
        # (n = 400, K = 8) seeded spawn_seed(seed, si, r, 0), with seed
        # spawn_seed(seed, si, r, 1)
        profiles = []
        real = lab.select_dimension
        monkeypatch.setattr(lab, "select_dimension",
                            lambda *a, **kw: profiles.append(real(*a, **kw)) or profiles[-1])
        settings = [(2, 3, 2, 1), (1, 3, 0, 2)]
        results = agreement_experiment(settings, reps=2, restarts=3, seed=5)
        assert len(profiles) == 4
        for si, (q_true, p1, p2, p3) in enumerate(settings):
            for r in range(2):
                ds = generate_dataset(DatasetSpec(K=8, q=q_true, p1=p1, p2=p2, p3=p3, n=400,
                                                  seed=spawn_seed(5, si, r, 0)))
                ref = select_dimension(ds.Z, 8, restarts=3, seed=spawn_seed(5, si, r, 1))
                got = profiles[2 * si + r]
                assert len(got.solutions) == len(ref.solutions) == p1 + p2 + p3
                for a, b in zip(got.solutions, ref.solutions):
                    _assert_same_fit(a, b)
                aris = [adjusted_rand_index(sol.assignment, ds.labels) for sol in ref.solutions]
                assert results[si].picks[r] == (ref.q_hat, 1 + int(np.argmax(aris)))

    def test_defaults_to_50_restarts_and_seed_0(self, monkeypatch):
        seen = []
        real = selection.fit_rkm
        monkeypatch.setattr(selection, "fit_rkm", lambda X, cfg: seen.append(cfg) or real(X, cfg))
        agreement_experiment([(1, 2, 0, 1)], reps=1)
        rep_seed = spawn_seed(0, 0, 0, 1)
        assert seen == [SolverConfig(k=8, q=q, restarts=50, seed=spawn_seed(rep_seed, q))
                        for q in (1, 2, 3)]

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_must_be_positive(self, reps):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            agreement_experiment(settings=[(2, 5, 5, 5)], reps=reps)

    def test_restarts_checked_before_any_dataset(self, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            agreement_experiment(settings=[(2, 5, 5, 5)], reps=1, restarts=0)

    def test_settings_checked_before_any_dataset(self, monkeypatch):
        # the second setting has q > p1; nothing is drawn for the first one
        _forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="need 1 <= q <= p1"):
            agreement_experiment([(1, 2, 0, 1), (3, 2, 0, 1)], reps=1, restarts=1)


class TestRateBound:
    def test_reference_value(self):
        # 8 * (2n)^{k(p+1)} e^{-n eps^2 / 512 B^2} at (2,1,1,1,16):
        # 8 * 4^2 * e^{-1} = 128/e, far above 1, so the bound clamps
        rb = rate_bound(2, 1, 1, 1.0, 16.0)
        assert rb.raw == pytest.approx(128.0 / math.e, rel=1e-12)
        assert rb.bound == 1.0

    def test_precondition_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            rate_bound(2, 1, 1, 1.0, 1.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="positive integers"):
            rate_bound(0, 1, 1, 1.0, 16.0)
        with pytest.raises(ValueError, match="positive"):
            rate_bound(2, 1, 1, 0.0, 16.0)
        with pytest.raises(ValueError, match="positive"):
            rate_bound(2, 1, 1, 1.0, -1.0)

    def test_decreasing_in_epsilon(self):
        loose = rate_bound(1000, 2, 3, 1.0, 4.0)
        tight = rate_bound(1000, 2, 3, 1.0, 6.0)
        assert tight.raw < loose.raw

    def test_vanishes_for_large_n(self):
        mid = rate_bound(10**5, 2, 3, 1.0, 1.0)
        big = rate_bound(2 * 10**5, 2, 3, 1.0, 1.0)
        assert big.raw < mid.raw < 1.0
        assert big.bound < 1e-40

    def test_overflow_clamps_cleanly(self):
        rb = rate_bound(10**6, 20, 50, 1.0, 0.1)
        assert rb.raw == math.inf
        assert rb.bound == 1.0
