"""Tests for query workload construction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.kernels import MEMORY_CAP_ENV_VAR
from repro.kernels.geometry import ordered_sum_sq
from repro.workload.queries import (
    KNNWorkload,
    RangeWorkload,
    density_biased_knn_workload,
    density_biased_range_workload,
    exact_knn_radii,
    search_kth_sq,
)


class TestExactRadii:
    def test_matches_naive(self, rng):
        points = rng.random((300, 5))
        queries = rng.random((7, 5))
        radii = exact_knn_radii(points, queries, k=4)
        for i, q in enumerate(queries):
            dists = np.sort(np.linalg.norm(points - q, axis=1))
            assert radii[i] == pytest.approx(dists[3])

    def test_chunked_matches_unchunked(self, rng):
        """Bit for bit, with query counts and a point count that no
        tile size divides."""
        points = rng.random((1000, 3))
        for n_queries in (1, 37, 87):
            queries = rng.random((n_queries, 3))
            radii = [
                exact_knn_radii(points, queries, 10, chunk_rows=chunk)
                for chunk in (1, 7, 64, 65536, 10**6)
            ]
            for other in radii[1:]:
                assert np.array_equal(radii[0], other)

    def test_equals_one_whole_matrix_scan(self, rng):
        """The blocked scan keeps the per-element arithmetic of one
        unblocked ``(q.q + p.p) - 2 (q.p)`` pass, bit for bit."""
        points = rng.random((1000, 3))
        queries = rng.random((87, 3))
        dists_sq = (
            np.einsum("qd,qd->q", queries, queries)[:, None]
            + np.einsum("nd,nd->n", points, points)[None, :]
            - 2.0 * (queries @ points.T)
        )
        np.maximum(dists_sq, 0.0, out=dists_sq)
        expected = np.sqrt(np.partition(dists_sq, 9, axis=1)[:, 9])
        assert np.array_equal(exact_knn_radii(points, queries, 10), expected)

    def test_peak_memory_is_a_few_blocks(self):
        points = np.random.default_rng(0).random((20_000, 32))
        queries = points[:500].copy()
        tracemalloc.start()
        try:
            exact_knn_radii(points, queries, 21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_query_in_dataset_includes_self(self, rng):
        points = rng.random((50, 3))
        radii = exact_knn_radii(points, points[:3], k=1)
        assert np.allclose(radii, 0.0)

    def test_k_equals_n(self, rng):
        points = rng.random((20, 2))
        radii = exact_knn_radii(points, points[:1], k=20)
        dists = np.linalg.norm(points - points[0], axis=1)
        assert radii[0] == pytest.approx(dists.max())

    def test_invalid_k(self, rng):
        points = rng.random((20, 2))
        with pytest.raises(ValueError):
            exact_knn_radii(points, points[:1], k=0)
        with pytest.raises(ValueError):
            exact_knn_radii(points, points[:1], k=21)

    def test_single_query_1d_input(self, rng):
        points = rng.random((30, 4))
        radii = exact_knn_radii(points, points[0], k=3)
        assert radii.shape == (1,)


class TestSearchKthSq:
    def test_bitwise_across_chunk_sizes(self, rng, monkeypatch):
        """Every chunking -- one row, a few rows, the default, all rows
        at once -- gives the k-th ordered sum of one whole pass."""
        points = rng.random((400, 37))
        queries = np.concatenate([points[:20], rng.random((13, 37))])
        whole = ordered_sum_sq(points[None, :, :] - queries[:, None, :])
        expected = np.sort(whole, axis=1)[:, 9]
        for cap in (1, 8 * 37 * 3, 8 * 37 * 64 + 5, 2 << 20, 1 << 40):
            monkeypatch.setenv(MEMORY_CAP_ENV_VAR, str(cap))
            got = search_kth_sq(points, queries, 10)
            assert got.tobytes() == expected.tobytes(), cap

    def test_peak_memory_does_not_grow_with_dimension(self):
        """At 617-d (ISOLET617's width) the re-measure of the candidates
        stays within a few tile budgets, as the blocked scan does."""
        gen = np.random.default_rng(0)
        points = gen.random((2_000, 617))
        queries = points[gen.choice(2_000, 500, replace=False)].copy()
        tracemalloc.start()
        try:
            search_kth_sq(points, queries, 21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak:,} bytes"


class TestKNNWorkload:
    def test_density_biased_queries_come_from_data(self, clustered_points, rng):
        workload = density_biased_knn_workload(clustered_points, 20, 5, rng)
        assert workload.n_queries == 20
        for i in range(20):
            assert np.allclose(
                workload.queries[i], clustered_points[workload.query_ids[i]]
            )

    def test_radii_are_exact(self, clustered_points, rng):
        workload = density_biased_knn_workload(clustered_points, 5, 21, rng)
        check = exact_knn_radii(clustered_points, workload.queries, 21)
        assert np.array_equal(workload.radii, check)

    def test_more_queries_than_points(self, rng):
        points = rng.random((10, 2))
        workload = density_biased_knn_workload(points, 50, 2, rng)
        assert workload.n_queries == 50

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            density_biased_knn_workload(rng.random((10, 2)), 0, 1, rng)
        with pytest.raises(ValueError):
            KNNWorkload(
                k=0,
                query_ids=np.zeros(1, np.int64),
                queries=np.zeros((1, 2)),
                radii=np.zeros(1),
            )
        with pytest.raises(ValueError):
            KNNWorkload(
                k=1,
                query_ids=np.zeros(2, np.int64),
                queries=np.zeros((1, 2)),
                radii=np.zeros(1),
            )


class TestRangeWorkload:
    def test_boxes_centered_on_data(self, clustered_points, rng):
        workload = density_biased_range_workload(clustered_points, 10, 0.2, rng)
        assert workload.n_queries == 10
        centers = (workload.lower + workload.upper) / 2.0
        # each center must be a data point
        for c in centers:
            assert np.min(np.linalg.norm(clustered_points - c, axis=1)) < 1e-9

    def test_per_dimension_sides(self, rng):
        points = rng.random((50, 3))
        side = np.array([0.1, 0.2, 0.4])
        workload = density_biased_range_workload(points, 5, side, rng)
        assert np.allclose(workload.upper - workload.lower,
                           np.broadcast_to(side, (5, 3)))

    def test_negative_side_rejected(self, rng):
        with pytest.raises(ValueError):
            density_biased_range_workload(rng.random((10, 2)), 2, -0.1, rng)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            RangeWorkload(lower=np.ones((1, 2)), upper=np.zeros((1, 2)))
