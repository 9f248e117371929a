"""Tests for the shared tree topology."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topology import (
    Topology,
    page_capacities,
    split_child_counts,
    subtree_capacity,
    tree_height,
)


class TestTreeHeight:
    def test_single_leaf(self):
        assert tree_height(10, c_data=32, c_dir=16) == 1
        assert tree_height(32, c_data=32, c_dir=16) == 1

    def test_two_levels(self):
        assert tree_height(33, c_data=32, c_dir=16) == 2
        assert tree_height(32 * 16, c_data=32, c_dir=16) == 2

    def test_three_levels(self):
        assert tree_height(32 * 16 + 1, c_data=32, c_dir=16) == 3

    def test_empty(self):
        assert tree_height(0, c_data=32, c_dir=16) == 0

    def test_paper_texture60_height(self):
        # N=275,465 with the 8 KB / 60-d capacities gives height 5 as in
        # Section 5 of the paper.
        c_data, c_dir = page_capacities(8192, 60)
        assert (c_data, c_dir) == (34, 16)
        assert tree_height(275_465, c_data, c_dir) == 5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tree_height(-1, 32, 16)
        with pytest.raises(ValueError):
            tree_height(10, 0, 16)
        with pytest.raises(ValueError):
            tree_height(10, 32, 1)


class TestSubtreeCapacity:
    def test_levels(self):
        assert subtree_capacity(1, 32, 16) == 32
        assert subtree_capacity(2, 32, 16) == 512
        assert subtree_capacity(3, 32, 16) == 8192

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            subtree_capacity(0, 32, 16)


class TestSplitChildCounts:
    def test_even_split(self):
        left, right = split_child_counts(100, 2, 64)
        assert left + right == 100
        assert left == 50

    def test_odd_fanout_proportional(self):
        left, right = split_child_counts(90, 3, 64)
        assert left + right == 90
        assert left == pytest.approx(30, abs=1)

    def test_capacity_respected(self):
        left, right = split_child_counts(100, 2, 60)
        assert left <= 60 and right <= 60

    def test_overfull_rejected(self):
        with pytest.raises(ValueError):
            split_child_counts(129, 2, 64)

    def test_single_child_rejected(self):
        with pytest.raises(ValueError):
            split_child_counts(10, 1, 64)

    @given(
        st.integers(2, 32),          # fanout
        st.integers(1, 500),         # child capacity
        st.integers(0, 10_000),      # extra points beyond the minimum
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, fanout, cap, extra):
        n = min(fanout + extra, fanout * cap)
        f_left = fanout // 2
        f_right = fanout - f_left
        left, right = split_child_counts(n, fanout, cap)
        assert left + right == n
        assert left <= f_left * cap
        assert right <= f_right * cap
        assert left >= f_left    # at least one point per child
        assert right >= f_right


class TestTopologyStructure:
    def test_node_counts_root_and_leaves(self):
        topo = Topology(500, c_data=32, c_dir=16)
        assert topo.height == 2
        assert topo.nodes_at_level(topo.height) == 1
        assert topo.n_leaves == topo.nodes_at_level(1)

    @given(st.integers(1, 60_000), st.integers(1, 60), st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_node_counts_equal_a_per_node_walk(self, n, c_data, c_dir):
        topo = Topology(n, c_data, c_dir)
        counts = [0] * topo.height
        stack = [(topo.height, n)]
        while stack:
            level, size = stack.pop()
            counts[level - 1] += 1
            if level > 1:
                stack.extend((level - 1, part)
                             for part in topo.partition_sizes(level, size))
        assert topo.nodes_per_level == tuple(counts)

    def test_node_counts_monotone(self):
        topo = Topology(100_000, c_data=32, c_dir=16)
        counts = topo.nodes_per_level
        assert all(counts[i] > counts[i + 1] for i in range(len(counts) - 1))

    def test_leaf_count_bounds(self):
        topo = Topology(100_000, c_data=32, c_dir=16)
        assert topo.n_leaves >= math.ceil(100_000 / 32)
        # VAMSplit balances, so leaves stay reasonably full.
        assert topo.c_eff_data > 32 / 2

    def test_pts_identities(self):
        topo = Topology(50_000, c_data=34, c_dir=16)
        assert topo.pts(topo.height) == 50_000
        assert topo.pts(1) == pytest.approx(topo.c_eff_data)

    def test_fanout_bounds(self):
        topo = Topology(50_000, c_data=34, c_dir=16)
        for level in range(2, topo.height + 1):
            assert 1 <= topo.fanout(level) <= 16

    def test_fanout_level_validation(self):
        topo = Topology(1000, c_data=32, c_dir=16)
        with pytest.raises(ValueError):
            topo.fanout(1)

    def test_level_validation(self):
        topo = Topology(1000, c_data=32, c_dir=16)
        with pytest.raises(ValueError):
            topo.nodes_at_level(0)
        with pytest.raises(ValueError):
            topo.nodes_at_level(topo.height + 1)

    def test_partition_sizes_conserve_points(self):
        topo = Topology(50_000, c_data=34, c_dir=16)
        parts = topo.partition_sizes(topo.height, 50_000)
        assert sum(parts) == 50_000
        cap = subtree_capacity(topo.height - 1, 34, 16)
        assert all(1 <= p <= cap for p in parts)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Topology(0, 32, 16)
        with pytest.raises(ValueError):
            Topology(100, 0, 16)

    @given(st.integers(1, 200_000), st.integers(2, 64), st.integers(2, 32))
    @settings(max_examples=50, deadline=None)
    def test_counts_consistent_with_capacity(self, n, c_data, c_dir):
        topo = Topology(n, c_data, c_dir)
        for level in range(1, topo.height + 1):
            nodes = topo.nodes_at_level(level)
            # Enough nodes to hold all points at this level's capacity.
            assert nodes * subtree_capacity(level, c_data, c_dir) >= n
        assert topo.nodes_at_level(topo.height) == 1


class TestUpperTreeParameters:
    def test_sigma_upper(self):
        topo = Topology(10_000, 32, 16)
        assert topo.sigma_upper(1_000) == pytest.approx(0.1)
        assert topo.sigma_upper(20_000) == 1.0

    def test_sigma_lower_caps_at_one(self):
        topo = Topology(100_000, 34, 16)
        h_min, h_max = topo.h_upper_bounds(10_000)
        assert topo.sigma_lower(h_max, 10**9) == 1.0

    def test_paper_texture60_sigmas(self):
        # Table 3: N=275,465, M=10,000 -> sigma_upper = 0.0363 and
        # sigma_lower = 1 at h_upper = 3.
        topo = Topology(275_465, 34, 16)
        assert topo.sigma_upper(10_000) == pytest.approx(0.0363, abs=1e-4)
        assert topo.sigma_lower(3, 10_000) == 1.0
        assert topo.sigma_lower(2, 10_000) < 1.0

    def test_h_bounds_ordering(self):
        topo = Topology(275_465, 34, 16)
        h_min, h_max = topo.h_upper_bounds(10_000)
        assert 2 <= h_min <= h_max <= topo.height - 1

    def test_best_h_targets_memory(self):
        topo = Topology(275_465, 34, 16)
        best = topo.best_h_upper(10_000)
        h_min, h_max = topo.h_upper_bounds(10_000)
        assert h_min <= best <= h_max
        # The heuristic: lower trees' unsampled size closest to M.
        level = topo.upper_leaf_level(best)
        others = [
            abs(math.log(topo.pts(topo.upper_leaf_level(h)) / 10_000))
            for h in range(h_min, h_max + 1)
        ]
        assert abs(math.log(topo.pts(level) / 10_000)) == min(others)

    def test_short_tree_rejected(self):
        topo = Topology(100, 32, 16)  # height 2
        with pytest.raises(ValueError):
            topo.h_upper_bounds(50)

    def test_upper_leaf_level(self):
        topo = Topology(275_465, 34, 16)
        assert topo.upper_leaf_level(1) == topo.height
        assert topo.upper_leaf_level(topo.height) == 1

    def test_n_upper_leaves_grows_with_h(self):
        topo = Topology(275_465, 34, 16)
        ks = [topo.n_upper_leaves(h) for h in range(2, topo.height)]
        assert all(a < b for a, b in zip(ks, ks[1:]))


class TestPageCapacities:
    def test_paper_values_60d(self):
        assert page_capacities(8192, 60) == (34, 16)

    def test_small_page_floor(self):
        c_data, c_dir = page_capacities(1024, 617)
        assert c_data == 2 and c_dir == 2  # floored at the minimum

    def test_scaling_with_page_size(self):
        small = page_capacities(8192, 32)
        large = page_capacities(65536, 32)
        assert large[0] >= 8 * small[0] - 8
        assert large[1] > small[1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            page_capacities(0, 60)
        with pytest.raises(ValueError):
            page_capacities(8192, 0)
