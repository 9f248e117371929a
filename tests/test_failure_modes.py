"""Failure-injection and degenerate-input tests across the library.

A production system's behavior on hostile input matters as much as its
happy path: constant columns, duplicate-heavy data, NaN/inf
coordinates, single-point datasets, workloads larger than the data,
memory budgets at the edge of feasibility -- and, since the
fault-injection subsystem, disks that fail reads, tear writes, and
stall, with retries and graceful degradation across the prediction
methods.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.cutoff import CutoffModel
from repro.core.minindex import MiniIndexModel
from repro.core.predictor import IndexCostPredictor
from repro.core.resampled import ResampledModel
from repro.disk.accounting import IOCost
from repro.disk.device import SimulatedDisk
from repro.disk.faults import FaultInjector
from repro.disk.pagefile import PointFile
from repro.disk.retry import RetryPolicy
from repro.errors import (
    DegradedResultWarning,
    DiskError,
    InputValidationError,
    PredictionError,
    ReproError,
    TornWriteError,
    TransientReadError,
    validate_points,
)
from repro.ondisk.builder import OnDiskBuilder
from repro.ondisk.measure import measure_knn
from repro.rtree.rstar import RStarTree
from repro.rtree.tree import RTree
from repro.workload.queries import (
    KNNWorkload,
    density_biased_knn_workload,
    density_biased_range_workload,
    exact_knn_radii,
)


def fresh_file(points):
    return PointFile.from_points(SimulatedDisk(), points)


class TestDegenerateData:
    def test_constant_column(self, rng):
        points = rng.random((500, 4))
        points[:, 2] = 0.5
        tree = RTree.bulk_load(points, 16, 8)
        tree.validate()
        result = tree.knn(points[0], 5)
        assert result.distances[0] == 0.0

    def test_all_identical_points(self):
        points = np.tile([1.0, 2.0], (300, 1))
        tree = RTree.bulk_load(points, 16, 8)
        tree.validate()
        result = tree.knn(np.array([1.0, 2.0]), 3)
        assert np.allclose(result.distances, 0.0)

    def test_all_identical_ondisk_build(self):
        points = np.tile([1.0, 2.0, 3.0], (500, 1))
        index = OnDiskBuilder(16, 8, memory=64).build(fresh_file(points))
        index.tree.validate()

    def test_one_dimensional_data(self, rng):
        points = np.sort(rng.random(300))[:, None]
        tree = RTree.bulk_load(points, 8, 4)
        tree.validate()
        workload = density_biased_knn_workload(
            points, 10, 5, np.random.default_rng(0)
        )
        estimate = MiniIndexModel(8, 4).predict(
            points, workload, 0.5, np.random.default_rng(1)
        )
        measured = tree.leaf_accesses_for_radius(
            workload.queries, workload.radii
        ).mean()
        assert abs(estimate.mean_accesses - measured) / measured < 0.5

    def test_two_points(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = RTree.bulk_load(points, 8, 4)
        tree.validate()
        assert tree.knn(np.zeros(2), 2).point_ids.shape[0] == 2

    def test_duplicate_heavy_mixture(self, rng):
        base = rng.random((10, 3))
        points = base[rng.integers(0, 10, size=1000)]
        tree = RTree.bulk_load(points, 16, 8)
        tree.validate()
        rstar = RStarTree.build(points, 16, 8, shuffle_seed=0)
        rstar.validate()


class TestHostileInputs:
    def test_nan_rejected_by_workload(self):
        points = np.full((50, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            density_biased_knn_workload(points, 5, 2,
                                        np.random.default_rng(0))

    def test_inf_rejected_by_workload(self):
        points = np.ones((50, 2))
        points[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            density_biased_knn_workload(points, 50, 2,
                                        np.random.default_rng(0))

    def test_undrawn_bad_row_rejected_by_workload(self):
        # neither bad row is drawn as one of the 20 queries, so only an
        # up-front check catches them
        points = np.random.default_rng(0).random((500, 4))
        points[7, 0] = np.inf
        points[9, 2] = np.nan
        with pytest.raises(InputValidationError, match="finite"):
            density_biased_knn_workload(points, 20, 3,
                                        np.random.default_rng(1))

    def test_non_finite_rejected_by_range_workload(self):
        points = np.ones((50, 2))
        points[3, 1] = np.nan
        with pytest.raises(InputValidationError, match="finite"):
            density_biased_range_workload(points, 5, 0.1,
                                          np.random.default_rng(0))

    @pytest.mark.parametrize("bad", ["points", "query"])
    def test_non_finite_rejected_by_exact_radii(self, bad):
        # "points": an inf and a NaN in rows the five queries are
        # compared against, not in the queries themselves
        points = np.random.default_rng(0).random((500, 4))
        queries = points[20:25].copy()
        if bad == "points":
            points[7, 0] = np.inf
            points[9, 2] = np.nan
        else:
            queries[2, 1] = np.nan
        with pytest.raises(InputValidationError, match="finite"):
            exact_knn_radii(points, queries, 3)

    def test_inf_coordinates_rejected_by_bulk_load(self):
        points = np.ones((100, 2))
        points[0, 0] = np.inf
        # An infinity would silently poison every MBR above the point;
        # since the validation pass, bulk_load rejects it up front.
        with pytest.raises(InputValidationError, match="non-finite"):
            RTree.bulk_load(points, 8, 4)

    def test_nan_coordinates_rejected_by_bulk_load(self):
        points = np.ones((100, 2))
        points[5, 1] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            RTree.bulk_load(points, 8, 4)

    def test_empty_and_ragged_rejected_by_bulk_load(self):
        with pytest.raises(InputValidationError, match="non-empty"):
            RTree.bulk_load(np.empty((0, 4)), 8, 4)
        with pytest.raises(InputValidationError):
            RTree.bulk_load([[1.0, 2.0], [3.0]], 8, 4)

    def test_facade_rejects_nan_points(self, clustered_points):
        predictor = IndexCostPredictor(dim=16, memory=400, c_data=32,
                                       c_dir=16)
        workload = density_biased_knn_workload(
            clustered_points, 3, 2, np.random.default_rng(0)
        )
        bad = clustered_points.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            predictor.predict(bad, workload)
        with pytest.raises(InputValidationError, match="non-finite"):
            predictor.measure(bad, workload)

    def test_facade_rejects_empty_and_wrong_rank(self):
        predictor = IndexCostPredictor(dim=4, memory=100, c_data=16, c_dir=8)
        workload = KNNWorkload(
            k=1,
            query_ids=np.zeros(1, np.int64),
            queries=np.zeros((1, 4)),
            radii=np.ones(1),
        )
        with pytest.raises(InputValidationError, match="non-empty"):
            predictor.predict(np.empty((0, 4)), workload)
        with pytest.raises(InputValidationError, match="matrix"):
            predictor.predict(np.zeros(10), workload)
        # InputValidationError is also a ValueError for old callers.
        assert issubclass(InputValidationError, ValueError)
        assert issubclass(InputValidationError, ReproError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_points_counts_non_finite(self, bad):
        points = np.ones((40, 3))
        points[4, 1] = bad
        with pytest.raises(InputValidationError,
                           match=r"^pts contains 1 non-finite coordinate "
                                 r"\(NaN or inf\)$"):
            validate_points(points, name="pts")
        points[7] = bad
        with pytest.raises(InputValidationError,
                           match="contains 4 non-finite coordinates"):
            validate_points(points, name="pts")

    def test_validate_points_inf_and_minus_inf_count_both(self):
        points = np.zeros((5, 2))
        points[0, 0], points[3, 1] = np.inf, -np.inf
        with pytest.raises(InputValidationError,
                           match="contains 2 non-finite coordinates"):
            validate_points(points)

    def test_validate_points_passes_finite_matrix_whose_sum_overflows(self):
        huge = np.finfo(np.float64).max
        points = np.full((6, 4), huge)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(points, axis=None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checked = validate_points(points)
        assert checked is points

    def test_mismatched_workload_dimension(self, clustered_points):
        workload = KNNWorkload(
            k=1,
            query_ids=np.zeros(1, np.int64),
            queries=np.zeros((1, 3)),
            radii=np.ones(1),
        )
        predictor = IndexCostPredictor(dim=16, memory=400, c_data=32, c_dir=16)
        with pytest.raises((ValueError, IndexError)):
            predictor.predict(clustered_points, workload, method="mini",
                              sampling_fraction=0.5)


class TestDimensionAgreement:
    """The points, the predictor's ``dim`` and the workload must agree:
    a kernel fed 8-d queries against 6-d pages ignores two dimensions
    and answers wrongly without a word."""

    @pytest.fixture(scope="class")
    def setup(self):
        gen = np.random.default_rng(5)
        points = gen.random((600, 6))
        predictor = IndexCostPredictor(dim=8, memory=200, c_data=16, c_dir=8)
        wide = gen.random((600, 8))
        workload = density_biased_knn_workload(wide, 10, 5, gen)
        return points, predictor, workload

    def test_predict(self, setup):
        points, predictor, workload = setup
        for method in ("resampled", "cutoff", "mini"):
            with pytest.raises(InputValidationError, match="dimensionality"):
                predictor.predict(points, workload, method=method,
                                  degrade=False)

    def test_predict_radius_grid(self, setup):
        points, predictor, workload = setup
        with pytest.raises(InputValidationError, match="dimensionality"):
            predictor.predict_radius_grid(
                points, workload, np.array([0.1, 0.2])
            )

    def test_make_workload(self, setup):
        points, predictor, _ = setup
        with pytest.raises(InputValidationError, match="dimensionality"):
            predictor.make_workload(points, 10, 5)

    def test_measure(self, setup):
        points, predictor, workload = setup
        with pytest.raises(InputValidationError, match="dimensionality"):
            predictor.measure(points, workload)
        # agreeing predictor and points, disagreeing workload
        matched = IndexCostPredictor(dim=6, memory=200, c_data=16, c_dir=8)
        with pytest.raises(InputValidationError, match="dimensionality"):
            matched.measure(points, workload)

    def test_measure_knn(self, setup):
        points, _, workload = setup
        index = IndexCostPredictor(dim=6, memory=200, c_data=16,
                                   c_dir=8).build_ondisk(points)
        with pytest.raises(InputValidationError, match="8-d"):
            measure_knn(index, workload)

    def test_measure_knn_rejects_k_above_n(self, rng):
        points = rng.random((30, 3))
        index = IndexCostPredictor(dim=3, memory=100, c_data=8,
                                   c_dir=4).build_ondisk(points)
        workload = KNNWorkload(
            k=31,
            query_ids=np.zeros(2, np.int64),
            queries=points[:2],
            radii=np.ones(2),
        )
        with pytest.raises(InputValidationError, match="k=31"):
            measure_knn(index, workload)


class TestEdgeBudgets:
    def test_workload_larger_than_dataset(self, rng):
        points = rng.random((30, 3))
        workload = density_biased_knn_workload(points, 100, 2, rng)
        estimate = MiniIndexModel(8, 4).predict(
            points, workload, 1.0, np.random.default_rng(0)
        )
        assert estimate.per_query.shape == (100,)

    def test_memory_of_one_point_phased(self, clustered_points, rng):
        workload = density_biased_knn_workload(
            clustered_points, 5, 2, np.random.default_rng(0)
        )
        model = CutoffModel(32, 16, memory=1)
        result = model.predict(fresh_file(clustered_points), workload,
                               np.random.default_rng(1))
        assert result.per_query.shape == (5,)

    def test_resampled_tiny_memory_survives(self, clustered_points):
        workload = density_biased_knn_workload(
            clustered_points, 5, 2, np.random.default_rng(0)
        )
        model = ResampledModel(32, 16, memory=8)
        result = model.predict(fresh_file(clustered_points), workload,
                               np.random.default_rng(1))
        # Heavily degraded but well-defined.
        assert np.all(result.per_query >= 0)

    def test_k_equals_n(self, rng):
        points = rng.random((40, 2))
        workload = density_biased_knn_workload(points, 3, 40, rng)
        tree = RTree.bulk_load(points, 8, 4)
        counts = tree.leaf_accesses_for_radius(workload.queries,
                                               workload.radii)
        assert np.all(counts == tree.n_leaves)

    def test_single_query(self, clustered_points):
        workload = density_biased_knn_workload(
            clustered_points, 1, 21, np.random.default_rng(0)
        )
        predictor = IndexCostPredictor(dim=16, memory=400, c_data=32,
                                       c_dir=16)
        result = predictor.predict(clustered_points, workload,
                                   method="resampled")
        assert result.per_query.shape == (1,)


class TestFaultInjection:
    """The fault-injection disk layer and its retry/degradation story."""

    @pytest.fixture
    def workload(self, clustered_points):
        return density_biased_knn_workload(
            clustered_points, 10, 5, np.random.default_rng(0)
        )

    def test_zero_rate_is_zero_overhead(self, clustered_points, workload):
        """Rate 0 + retries enabled == bare disk, bit for bit."""
        model = ResampledModel(32, 16, memory=400)
        bare = model.predict(
            PointFile.from_points(SimulatedDisk(), clustered_points),
            workload, np.random.default_rng(9),
        )
        injector = FaultInjector(SimulatedDisk())  # all rates zero
        wrapped = PointFile.from_points(
            injector, clustered_points, retry=RetryPolicy()
        )
        faulty = model.predict(wrapped, workload, np.random.default_rng(9))
        assert np.array_equal(bare.per_query, faulty.per_query)
        assert bare.io_cost == faulty.io_cost
        assert faulty.io_cost.retries == 0
        assert faulty.io_cost.faults_seen == 0

    def test_zero_rate_facade_matches_all_methods(
        self, clustered_points, workload
    ):
        plain = IndexCostPredictor(dim=16, memory=400, c_data=32, c_dir=16)
        injected = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            fault_rate=0.0, fault_seed=123,  # injector config but inert
        )
        for method in ("mini", "cutoff", "resampled"):
            a = plain.predict(clustered_points, workload, method=method)
            b = injected.predict(clustered_points, workload, method=method)
            assert np.array_equal(a.per_query, b.per_query), method
            assert a.io_cost == b.io_cost, method

    def test_deterministic_replay(self, clustered_points, workload):
        """A fixed fault seed replays the exact same fault sequence."""
        runs = []
        for _ in range(2):
            predictor = IndexCostPredictor(
                dim=16, memory=400, c_data=32, c_dir=16,
                fault_rate=0.1, fault_seed=42,
            )
            runs.append(
                predictor.predict(clustered_points, workload,
                                  method="cutoff")
            )
        assert np.array_equal(runs[0].per_query, runs[1].per_query)
        assert runs[0].io_cost == runs[1].io_cost
        assert runs[0].io_cost.faults_seen > 0  # the scenario has teeth

    def test_retry_recovers_same_estimate(self, clustered_points, workload):
        """Retried transient reads cost I/O but never change the data."""
        clean = IndexCostPredictor(dim=16, memory=400, c_data=32, c_dir=16)
        faulty = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            fault_rate=0.05, fault_seed=7,
        )
        a = clean.predict(clustered_points, workload, method="resampled")
        b = faulty.predict(clustered_points, workload, method="resampled")
        assert np.array_equal(a.per_query, b.per_query)
        assert b.io_cost.retries > 0
        assert b.io_cost.faults_seen > 0
        # Retries are priced: the survivor paid more than the clean run.
        assert b.io_cost.seconds() > a.io_cost.seconds()

    def test_retry_exhaustion_raises_transient_read_error(
        self, clustered_points
    ):
        injector = FaultInjector(SimulatedDisk(), read_fault_rate=1.0)
        file = PointFile.from_points(
            injector, clustered_points, retry=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientReadError) as excinfo:
            file.read_range(0, 64)
        assert excinfo.value.attempts == 3
        # Two retry rounds were charged before giving up.
        assert injector.cost.retries == 2
        assert injector.cost.faults_seen == 3

    def test_no_retry_policy_fails_fast(self, clustered_points):
        injector = FaultInjector(SimulatedDisk(), read_fault_rate=1.0)
        file = PointFile.from_points(injector, clustered_points)
        with pytest.raises(TransientReadError):
            file.read_range(0, 64)
        assert injector.cost.retries == 0

    def test_degradation_lands_on_cutoff_when_spill_killed(
        self, clustered_points, workload
    ):
        """Torn writes kill resampled's spill phase; cutoff never
        writes, so the chain stops there."""
        predictor = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            torn_write_rate=1.0, fault_seed=3,
        )
        with pytest.warns(DegradedResultWarning):
            result = predictor.predict(clustered_points, workload,
                                       method="resampled")
        record = result.detail["degradation"]
        assert record["method_requested"] == "resampled"
        assert record["method_used"] == "cutoff"
        assert record["attempts"][0]["method"] == "resampled"
        assert "TornWriteError" in record["attempts"][0]["error"]
        assert record["faults_seen"] > 0
        # The estimate matches a direct cutoff run on a clean disk.
        clean = IndexCostPredictor(dim=16, memory=400, c_data=32, c_dir=16)
        direct = clean.predict(clustered_points, workload, method="cutoff")
        assert np.array_equal(result.per_query, direct.per_query)

    def test_degrade_false_propagates_the_fault(
        self, clustered_points, workload
    ):
        predictor = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            torn_write_rate=1.0, fault_seed=3,
        )
        with pytest.raises(TornWriteError):
            predictor.predict(clustered_points, workload,
                              method="resampled", degrade=False)

    def test_two_percent_faults_all_methods_complete(self, uniform_points):
        """Acceptance scenario: 2% transient read faults on the uniform
        workload; every method completes via retry or documented
        degradation."""
        predictor = IndexCostPredictor(
            dim=6, memory=500, c_data=32, c_dir=16,
            fault_rate=0.02, fault_seed=11,
        )
        workload = predictor.make_workload(uniform_points, 10, 5, seed=2)
        for method in ("mini", "cutoff", "resampled"):
            result = predictor.predict(uniform_points, workload,
                                       method=method)
            assert np.all(result.per_query >= 0), method
            degradation = result.detail.get("degradation")
            if degradation is not None:
                assert degradation["method_used"] in (
                    "mini", "cutoff", "resampled", "baseline"
                )

    def test_baseline_is_last_resort(self, uniform_points):
        """With reads always failing, every disk-touching method dies
        and the closed-form baseline answers."""
        predictor = IndexCostPredictor(
            dim=6, memory=500, c_data=32, c_dir=16,
            fault_rate=1.0, fault_seed=0,
            retry=RetryPolicy(max_attempts=2),
        )
        workload = density_biased_knn_workload(
            uniform_points, 5, 3, np.random.default_rng(1)
        )
        with pytest.warns(DegradedResultWarning):
            result = predictor.predict(uniform_points, workload,
                                       method="resampled")
        record = result.detail["degradation"]
        # mini runs in memory on the raw array, so it succeeds before
        # the chain ever reaches the closed-form baseline.
        assert record["method_used"] == "mini"
        assert [a["method"] for a in record["attempts"]] == [
            "resampled", "cutoff"
        ]
        assert np.all(result.per_query >= 0)

    def test_injector_validates_rates(self):
        with pytest.raises(ValueError, match="read_fault_rate"):
            FaultInjector(SimulatedDisk(), read_fault_rate=1.5)

    def test_spill_resumes_recorded(self, clustered_points, workload):
        """A torn-write rate low enough for the bucket checkpoints to
        absorb shows up in the detail instead of degrading."""
        predictor = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            torn_write_rate=0.05, fault_seed=5,
        )
        result = predictor.predict(clustered_points, workload,
                                   method="resampled")
        detail = result.detail
        if "n_spill_resumes" in detail:
            assert detail["n_spill_resumes"] >= 0


class TestDeviceCapacity:
    def test_allocate_beyond_capacity_raises(self):
        disk = SimulatedDisk(capacity_pages=10)
        disk.allocate(8)
        with pytest.raises(DiskError, match="capacity"):
            disk.allocate(3)
        # The failed allocation must not move the allocation pointer.
        assert disk.allocated_pages == 8
        assert disk.allocate(2) == 8

    def test_unbounded_by_default(self):
        disk = SimulatedDisk()
        assert disk.allocate(10**9) == 0

    def test_negative_allocation_still_valueerror(self):
        with pytest.raises(ValueError):
            SimulatedDisk().allocate(-1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDisk(capacity_pages=-1)


class TestIOCostResilienceCounters:
    def test_add_and_sub_round_trip(self):
        a = IOCost(seeks=2, transfers=5, retries=1, faults_seen=3)
        b = IOCost(seeks=1, transfers=1, retries=2, faults_seen=1)
        total = a + b
        assert total == IOCost(3, 6, 3, 4)
        assert total - b == a

    def test_scaled_carries_counters(self):
        assert IOCost(1, 2, 3, 4).scaled(2) == IOCost(2, 4, 6, 8)

    def test_repr_round_trips(self):
        cost = IOCost(seeks=7, transfers=9, retries=2, faults_seen=1)
        assert eval(repr(cost)) == cost  # noqa: S307 - controlled input

    def test_seconds_ignores_event_counters(self):
        assert IOCost(1, 1, 5, 5).seconds() == IOCost(1, 1).seconds()

    def test_is_zero_includes_counters(self):
        assert IOCost().is_zero
        assert not IOCost(retries=1).is_zero

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            IOCost(retries=-1)


class TestCLIErrorMapping:
    def test_validation_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        bad = np.ones((50, 4))
        bad[0, 0] = np.nan
        path = tmp_path / "bad.npy"
        np.save(path, bad)
        code = main(["predict", "--input", str(path), "--queries", "3",
                     "--memory", "100"])
        assert code == 3
        err = capsys.readouterr().err
        assert "InputValidationError" in err
        assert "Traceback" not in err

    def test_fault_flags_accepted(self, capsys):
        from repro.cli import main

        assert main([
            "predict", "--dataset", "TEXTURE48", "--scale", "0.05",
            "--queries", "5", "--memory", "500",
            "--fault-rate", "0.02", "--fault-seed", "9",
        ]) == 0
        assert "predicted leaf accesses" in capsys.readouterr().out


class TestBudgetFaultInterplay:
    """Budget-triggered and fault-triggered downgrades in one chain."""

    @pytest.fixture
    def workload(self, clustered_points):
        return density_biased_knn_workload(
            clustered_points, 10, 5, np.random.default_rng(0)
        )

    def test_degradation_records_appear_in_causal_order(
        self, clustered_points, workload
    ):
        """Resampled dies on a fault, cutoff is refused by the budget,
        mini answers: the attempt log tells that story in order, each
        entry tagged with its cause."""
        from repro.runtime import Budget

        # 140 ops admits resampled (10 query reads + 125 pages + 1) but
        # what its aborted attempt burns before the torn write leaves
        # too little for cutoff's admission bound.
        predictor = IndexCostPredictor(
            dim=16, memory=400, c_data=32, c_dir=16,
            torn_write_rate=1.0, fault_seed=3,
        )
        with pytest.warns(DegradedResultWarning):
            result = predictor.predict(
                clustered_points, workload, method="resampled",
                budget=Budget(max_io_ops=140),
            )
        record = result.detail["degradation"]
        assert record["method_used"] == "mini"

        attempts = record["attempts"]
        assert [a["method"] for a in attempts] == ["resampled", "cutoff"]
        # First downgrade: a disk fault, after real spend.
        assert attempts[0]["cause"] == "fault"
        assert "TornWriteError" in attempts[0]["error"]
        assert not attempts[0].get("skipped")
        # Second downgrade: the governor refused admission up front.
        assert attempts[1]["cause"] == "budget"
        assert attempts[1]["skipped"]
        assert "BudgetExceededError" in attempts[1]["error"]

        # The spend report accounts for the aborted attempt's I/O and
        # attributes it to resampled's phases.
        report = result.detail["budget"]
        assert report["spent_io_ops"] > 0
        assert any(phase.startswith("resampled")
                   for phase in report["phase_spend"])
        assert report["exhausted"]["resource"] == "io_ops"

    def test_pure_budget_chain_orders_skips(
        self, clustered_points, workload
    ):
        """With no faults and a budget below every disk method's
        admission bound, the skips appear in fallback order."""
        from repro.runtime import Budget

        predictor = IndexCostPredictor(dim=16, memory=400,
                                       c_data=32, c_dir=16)
        with pytest.warns(DegradedResultWarning):
            result = predictor.predict(
                clustered_points, workload, method="resampled",
                budget=Budget(max_io_ops=5),
            )
        record = result.detail["degradation"]
        assert record["method_used"] == "mini"
        assert [a["method"] for a in record["attempts"]] == [
            "resampled", "cutoff"
        ]
        assert all(a["cause"] == "budget" and a["skipped"]
                   for a in record["attempts"])
        # Nothing was spent: admission beat abortion.
        assert result.detail["budget"]["spent_io_ops"] == 0
        assert result.detail["budget"]["within_budget"]
