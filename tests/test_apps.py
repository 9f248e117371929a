"""Tests for the tuning applications (Sections 6.1 and 6.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.dimensions import sweep_index_dimensions
from repro.apps.pagesize import sweep_page_sizes
from repro.disk.accounting import DiskParameters
from repro.workload.queries import density_biased_knn_workload


@pytest.fixture(scope="module")
def small_data():
    from repro.data import datasets

    return datasets.texture48(scale=0.15, seed=2)  # ~4k x 48


@pytest.fixture(scope="module")
def workload(small_data):
    return density_biased_knn_workload(small_data, 30, 21,
                                       np.random.default_rng(5))


class TestPageSizeSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_data, workload):
        return sweep_page_sizes(
            small_data, workload, memory=500,
            page_sizes=(4096, 8192, 32768, 131072),
            measure=True,
        )

    def test_accesses_decrease_with_page_size(self, sweep):
        predicted = [p.predicted_accesses for p in sweep.points]
        assert all(a >= b for a, b in zip(predicted, predicted[1:]))

    def test_prediction_tracks_measurement(self, sweep):
        """Figure 13: the model resembles the measured cost closely."""
        for point in sweep.points:
            assert point.measured_accesses is not None
            if point.measured_accesses >= 2:
                error = abs(point.predicted_accesses - point.measured_accesses)
                assert error / point.measured_accesses < 0.35

    def test_optima_agree(self, sweep):
        """The predicted optimal page size matches the measured one
        (the application's headline claim)."""
        assert sweep.measured_optimum is not None
        assert sweep.predicted_optimum.page_bytes == sweep.measured_optimum.page_bytes

    def test_capacities_scale_with_page(self, sweep):
        c_datas = [p.c_data for p in sweep.points]
        assert all(a < b for a, b in zip(c_datas, c_datas[1:]))

    def test_seconds_pricing_uses_scaled_transfer(self, small_data, workload):
        sweep = sweep_page_sizes(
            small_data, workload, memory=500, page_sizes=(8192,),
            base_disk=DiskParameters(t_seek=0.0, t_xfer=0.001),
        )
        point = sweep.points[0]
        assert point.predicted_seconds == pytest.approx(
            point.predicted_accesses * 0.001
        )

    def test_no_measurement_by_default(self, small_data, workload):
        sweep = sweep_page_sizes(small_data, workload, memory=500,
                                 page_sizes=(8192,))
        assert sweep.points[0].measured_accesses is None
        assert sweep.measured_optimum is None


class TestDimensionSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_data, workload):
        return sweep_index_dimensions(
            small_data, workload, (4, 12, 24, 48),
            memory=500, measure=True, candidates=True,
        )

    def test_accesses_increase_with_dimensions(self, sweep):
        """Figure 14: more indexed dimensions -> smaller pages -> more
        index page accesses."""
        predicted = [p.predicted_accesses for p in sweep.points]
        assert predicted[-1] > predicted[0]

    def test_prediction_tracks_measurement(self, sweep):
        for point in sweep.points:
            assert point.measured_accesses is not None
            if point.measured_accesses >= 2:
                error = abs(point.predicted_accesses - point.measured_accesses)
                assert error / point.measured_accesses < 0.35

    def test_candidates_decrease_with_dimensions(self, sweep):
        """More indexed dimensions filter better: fewer object-server
        candidates."""
        candidates = [p.measured_candidates for p in sweep.points]
        assert candidates[-1] < candidates[0]

    def test_candidate_prediction_tracks_measurement(self, sweep):
        for point in sweep.points:
            assert point.predicted_candidates == pytest.approx(
                point.measured_candidates, rel=0.3
            )

    def test_full_dim_filter_is_knn(self, sweep, workload):
        # Indexing all dimensions: candidates == points within the k-NN
        # radius, i.e. about k (floating-point ties at the radius can
        # drop a candidate).
        assert sweep.points[-1].measured_candidates >= workload.k - 1

    def test_invalid_dimension(self, small_data, workload):
        with pytest.raises(ValueError):
            sweep_index_dimensions(small_data, workload, (0,), memory=500)
        with pytest.raises(ValueError):
            sweep_index_dimensions(small_data, workload, (999,), memory=500)
