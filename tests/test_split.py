"""Tests for split-strategy primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.split import (
    max_extent_dimension,
    max_variance_dimension,
    midpoint_rank,
    partition_ids_at_rank,
)


class TestDimensionRules:
    def test_max_variance_picks_spread_dim(self, rng):
        points = rng.random((200, 3))
        points[:, 1] *= 10.0
        assert max_variance_dimension(points) == 1

    @given(st.integers(1, 60), st.integers(1, 70), st.integers(0, 10_000),
           st.integers(-6, 6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_max_variance_equals_numpy_var(self, n, d, seed, scale, coarse):
        points = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** scale
        if coarse:  # ties between dimensions
            points = np.round(points, 1 - scale)
        assert max_variance_dimension(points) == int(
            np.argmax(np.var(points, axis=0)))

    def test_max_extent_picks_wide_dim(self, rng):
        points = rng.random((200, 3)) * 0.1
        points[0, 2] = 5.0  # one outlier stretches dim 2
        assert max_extent_dimension(points) == 2

    def test_empty_input_defaults_to_zero(self):
        empty = np.empty((0, 4))
        assert max_variance_dimension(empty) == 0
        assert max_extent_dimension(empty) == 0

    def test_rules_agree_on_axis_aligned_box(self, rng):
        # Under uniformity, max variance == max extent (the cutoff
        # tree's key assumption, Section 4.3).
        points = rng.random((5000, 4)) * np.array([1.0, 3.0, 0.5, 2.0])
        assert max_variance_dimension(points) == max_extent_dimension(points) == 1


class TestPartitionAtRank:
    def test_matches_sorted_cut(self, rng):
        points = rng.random((100, 3))
        ids = np.arange(100, dtype=np.int64)
        left, right = partition_ids_at_rank(points, ids, dim=1, rank=40)
        assert left.shape[0] == 40 and right.shape[0] == 60
        assert points[left, 1].max() <= points[right, 1].min()
        assert set(left) | set(right) == set(range(100))

    def test_rank_edges(self, rng):
        points = rng.random((10, 2))
        ids = np.arange(10, dtype=np.int64)
        left, right = partition_ids_at_rank(points, ids, 0, 0)
        assert left.shape[0] == 0 and right.shape[0] == 10
        left, right = partition_ids_at_rank(points, ids, 0, 10)
        assert left.shape[0] == 10 and right.shape[0] == 0

    def test_out_of_range_rank_rejected(self, rng):
        points = rng.random((10, 2))
        ids = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError):
            partition_ids_at_rank(points, ids, 0, 11)
        with pytest.raises(ValueError):
            partition_ids_at_rank(points, ids, 0, -1)

    def test_subset_ids(self, rng):
        points = rng.random((100, 2))
        ids = np.array([5, 17, 42, 63, 80], dtype=np.int64)
        left, right = partition_ids_at_rank(points, ids, 0, 2)
        assert set(left) | set(right) == set(ids.tolist())
        assert points[left, 0].max() <= points[right, 0].min()

    def test_duplicate_coordinates(self):
        points = np.zeros((8, 2))
        ids = np.arange(8, dtype=np.int64)
        left, right = partition_ids_at_rank(points, ids, 0, 3)
        assert left.shape[0] == 3 and right.shape[0] == 5

    @given(st.integers(2, 200), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, d, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((n, d))
        ids = np.arange(n, dtype=np.int64)
        rank = int(gen.integers(0, n + 1))
        dim = int(gen.integers(0, d))
        left, right = partition_ids_at_rank(points, ids, dim, rank)
        assert left.shape[0] == rank
        if 0 < rank < n:
            assert points[left, dim].max() <= points[right, dim].min()
        assert np.array_equal(np.sort(np.concatenate([left, right])), ids)


class TestMidpointRank:
    def test_uniform_splits_near_half(self, rng):
        points = rng.random((10000, 1))
        ids = np.arange(10000, dtype=np.int64)
        rank = midpoint_rank(points, ids, 0)
        assert abs(rank - 5000) < 500

    def test_skewed_data_splits_off_center(self, rng):
        values = np.concatenate([rng.random(900) * 0.1, 0.9 + rng.random(100) * 0.1])
        points = values[:, None]
        ids = np.arange(1000, dtype=np.int64)
        rank = midpoint_rank(points, ids, 0)
        assert rank == 900  # midpoint of extent falls in the gap
