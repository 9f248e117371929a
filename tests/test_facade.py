"""Tests for the IndexCostPredictor facade and the experiments runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictor import IndexCostPredictor
from repro.disk.accounting import DiskParameters
from repro.experiments.runner import get_setup, pearson_correlation
from repro.experiments.tables import (
    format_seconds,
    format_signed_percent,
    format_table,
)


class TestFacade:
    @pytest.fixture(scope="class")
    def predictor(self):
        return IndexCostPredictor(dim=16, memory=400, c_data=32, c_dir=16)

    @pytest.fixture(scope="class")
    def workload(self, predictor, clustered_points):
        return predictor.make_workload(clustered_points, 20, 21, seed=4)

    def test_capacities_default_from_geometry(self):
        predictor = IndexCostPredictor(dim=60)
        assert (predictor.c_data, predictor.c_dir) == (34, 16)

    def test_capacity_override(self, predictor):
        assert predictor.c_data == 32 and predictor.c_dir == 16

    def test_all_methods_run(self, predictor, clustered_points, workload):
        for method in ("mini", "cutoff", "resampled"):
            result = predictor.predict(clustered_points, workload, method=method)
            assert result.mean_accesses > 0

    def test_unknown_method(self, predictor, clustered_points, workload):
        with pytest.raises(ValueError):
            predictor.predict(clustered_points, workload, method="psychic")

    def test_reproducible(self, predictor, clustered_points, workload):
        a = predictor.predict(clustered_points, workload, method="resampled",
                              seed=7)
        b = predictor.predict(clustered_points, workload, method="resampled",
                              seed=7)
        assert a.mean_accesses == b.mean_accesses

    def test_measure_ground_truth(self, predictor, clustered_points, workload):
        measurement = predictor.measure(clustered_points, workload)
        assert measurement.mean_accesses > 0
        assert measurement.io_cost.transfers > 0

    def test_predict_close_to_measure(self, predictor, clustered_points,
                                      workload):
        measurement = predictor.measure(clustered_points, workload)
        estimate = predictor.predict(clustered_points, workload,
                                     method="resampled")
        assert abs(estimate.relative_error(measurement.mean_accesses)) < 0.3

    def test_reuse_prebuilt_index(self, predictor, clustered_points, workload):
        index = predictor.build_ondisk(clustered_points)
        a = predictor.measure(clustered_points, workload, index=index)
        b = predictor.measure(clustered_points, workload, index=index)
        assert np.array_equal(a.per_query, b.per_query)

    def test_ground_truth_independent_of_memory(self, predictor,
                                                clustered_points, workload):
        # M sets how much of the bulk load runs on disk, not the tree:
        # below one data page, at one page and at ten pages the queries
        # read the same leaves
        per_query = [
            IndexCostPredictor(dim=16, memory=memory, c_data=32, c_dir=16)
            .measure(clustered_points, workload).per_query
            for memory in (20, predictor.c_data, 10 * predictor.c_data)
        ]
        np.testing.assert_array_equal(per_query[0], per_query[1])
        np.testing.assert_array_equal(per_query[1], per_query[2])

    def test_mini_with_fraction(self, predictor, clustered_points, workload):
        result = predictor.predict(
            clustered_points, workload, method="mini", sampling_fraction=0.5
        )
        assert result.detail["zeta"] == pytest.approx(0.5, abs=0.01)

    def test_predict_radius_grid_rows_match_per_row_predict(
        self, predictor, clustered_points, workload
    ):
        grid = np.stack([workload.radii * s for s in (0.5, 1.0, 1.5)])
        fused = predictor.predict_radius_grid(
            clustered_points, workload, grid, seed=3
        )
        assert len(fused) == 3
        for r, result in enumerate(fused):
            solo = predictor.predict(
                clustered_points, workload.with_radii(grid[r]),
                method="mini", seed=3,
            )
            np.testing.assert_array_equal(result.per_query, solo.per_query)
            assert result.detail["grid_row"] == r
            assert result.detail["grid_rows"] == 3

    def test_predict_radius_grid_broadcasts_scalars(
        self, predictor, clustered_points, workload
    ):
        fused = predictor.predict_radius_grid(
            clustered_points, workload, np.array([0.0, 0.4]), seed=3
        )
        # a (g,) grid broadcasts one radius per row; row 0 (radius 0)
        # only counts leaves containing the query point, so counts grow
        # monotonically with the row radius
        assert np.all(fused[1].per_query >= fused[0].per_query)
        solo = predictor.predict(
            clustered_points,
            workload.with_radii(np.full(workload.n_queries, 0.4)),
            method="mini", seed=3,
        )
        np.testing.assert_array_equal(fused[1].per_query, solo.per_query)

    def test_topology_accessor(self, predictor, clustered_points):
        topo = predictor.topology(clustered_points.shape[0])
        assert topo.n_points == clustered_points.shape[0]

    def test_custom_disk_parameters(self, clustered_points):
        predictor = IndexCostPredictor(
            dim=16, memory=400,
            disk_parameters=DiskParameters(page_bytes=4096),
        )
        assert predictor.c_data == 4096 // (16 * 4)


class TestExperimentsRunner:
    def test_setup_builds_consistent_context(self):
        setup = get_setup("TEXTURE48", scale=0.05, n_queries=10)
        assert setup.points.shape[1] == 48
        assert setup.workload.n_queries == 10
        assert setup.measured_mean > 0
        assert setup.build_cost.transfers > 0
        assert setup.ondisk_total_cost.transfers > setup.build_cost.transfers

    def test_setup_cached(self):
        a = get_setup("TEXTURE48", scale=0.05, n_queries=10)
        b = get_setup("TEXTURE48", scale=0.05, n_queries=10)
        assert a is b

    def test_pearson_perfect(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_pearson_inverse(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_pearson_constant_series(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(2), np.ones(3))


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_seconds(self):
        assert format_seconds(4460.1934) == "4,460.193 s"

    def test_format_signed_percent(self):
        assert format_signed_percent(-0.32) == "-32%"
        assert format_signed_percent(0.03) == "+3%"
