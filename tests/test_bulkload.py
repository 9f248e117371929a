"""Tests for the top-down bulk loader."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topology import Topology
from repro.rtree.bulkload import BulkLoadConfig, build_subtree, build_tree
from repro.rtree.split import max_extent_dimension, max_variance_dimension
from repro.rtree.tree import RTree
from .bulkload_oracle import (
    assert_same_graph,
    assert_same_layout,
    build_subtree_recursive,
)


class TestFullBuild:
    def test_validates_on_clustered_data(self, clustered_points):
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16)
        tree.validate()

    def test_validates_on_uniform_data(self, uniform_points):
        tree = RTree.bulk_load(uniform_points, c_data=20, c_dir=8)
        tree.validate()

    def test_single_leaf_tree(self, tiny_points):
        tree = RTree.bulk_load(tiny_points, c_data=64, c_dir=16)
        assert tree.height == 1
        assert tree.n_leaves == 1
        tree.validate()

    def test_single_point(self):
        tree = RTree.bulk_load(np.array([[0.5, 0.5]]), c_data=4, c_dir=4)
        assert tree.height == 1
        assert tree.root.n_points == 1
        tree.validate()

    def test_leaf_order_partitions_split_dimension(self, rng):
        # With strongly 1-d data, consecutive leaves should occupy
        # consecutive intervals (VAMSplit cuts the dominant dimension).
        points = np.sort(rng.random(1024))[:, None] * np.array([[1.0, 0.001]])
        tree = RTree.bulk_load(points, c_data=32, c_dir=4)
        tree.validate()
        maxes = [tree.points[l.point_ids, 0].max() for l in tree.leaves]
        mins = [tree.points[l.point_ids, 0].min() for l in tree.leaves]
        for i in range(len(maxes) - 1):
            assert maxes[i] <= mins[i + 1] + 1e-12

    def test_midpoint_mode_still_partitions(self, clustered_points):
        config = BulkLoadConfig(rank_mode="midpoint")
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16,
                               config=config)
        # Midpoint splits may violate the exact VAMSplit node counts but
        # must still cover every point exactly once within capacities.
        ids = np.sort(np.concatenate([l.point_ids for l in tree.leaves]))
        assert np.array_equal(ids, np.arange(clustered_points.shape[0]))
        assert all(l.n_points <= 32 for l in tree.leaves)

    def test_max_extent_rule(self, clustered_points):
        config = BulkLoadConfig(dimension_rule=max_extent_dimension)
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16,
                               config=config)
        tree.validate()

    def test_invalid_rank_mode(self):
        with pytest.raises(ValueError):
            BulkLoadConfig(rank_mode="bogus")

    def test_non_2d_points_rejected(self):
        topo = Topology(10, 4, 4)
        with pytest.raises(ValueError):
            build_tree(np.zeros(10), topo)

    def test_more_points_than_virtual_rejected(self, tiny_points):
        topo = Topology(10, 4, 4)
        with pytest.raises(ValueError):
            build_tree(tiny_points, topo)


class TestMiniIndexBuild:
    def test_topology_imposed_exactly(self, clustered_points, rng):
        n = clustered_points.shape[0]
        sample = clustered_points[rng.choice(n, n // 10, replace=False)]
        mini = RTree.bulk_load(sample, c_data=32, c_dir=16, virtual_n=n)
        full_topo = Topology(n, 32, 16)
        assert mini.height == full_topo.height
        for level in range(1, mini.height + 1):
            assert len(mini.nodes_at_level(level)) == full_topo.nodes_at_level(level)

    def test_mini_validate(self, clustered_points, rng):
        n = clustered_points.shape[0]
        sample = clustered_points[rng.choice(n, n // 5, replace=False)]
        mini = RTree.bulk_load(sample, c_data=32, c_dir=16, virtual_n=n)
        mini.validate()

    def test_tiny_sample_allows_empty_leaves(self, clustered_points, rng):
        n = clustered_points.shape[0]
        sample = clustered_points[rng.choice(n, 20, replace=False)]
        mini = RTree.bulk_load(sample, c_data=32, c_dir=16, virtual_n=n)
        mini.validate()  # empty leaves are legal in a mini-index
        total = sum(l.n_points for l in mini.leaves)
        assert total == 20

    def test_sample_points_partitioned(self, clustered_points, rng):
        n = clustered_points.shape[0]
        m = n // 8
        sample = clustered_points[rng.choice(n, m, replace=False)]
        mini = RTree.bulk_load(sample, c_data=32, c_dir=16, virtual_n=n)
        ids = np.sort(np.concatenate([l.point_ids for l in mini.leaves]))
        assert np.array_equal(ids, np.arange(m))


class TestStopLevel:
    def test_upper_tree_leaf_level(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        assert topo.height >= 3
        root = build_tree(clustered_points, topo, stop_level=2)
        leaves = list(root.iter_leaves())
        assert all(l.level == 2 for l in leaves)
        assert len(leaves) == topo.nodes_at_level(2)

    def test_virtual_counts_sum_to_total(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        root = build_tree(clustered_points, topo, stop_level=2)
        assert sum(l.virtual_n for l in root.iter_leaves()) == topo.n_points

    def test_stop_at_root(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        root = build_tree(clustered_points, topo, stop_level=topo.height)
        assert root.is_leaf
        assert root.n_points == clustered_points.shape[0]

    def test_invalid_stop_level(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        with pytest.raises(ValueError):
            build_tree(clustered_points, topo, stop_level=0)
        with pytest.raises(ValueError):
            build_tree(clustered_points, topo, stop_level=topo.height + 1)


class TestBuildSubtree:
    def test_subtree_matches_partition_counts(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        n = 400
        ids = np.arange(n, dtype=np.int64)
        root = build_subtree(clustered_points[:n], ids, 2, n, topo).graph()
        assert root.level == 2
        assert root.n_points == n
        leaf_sizes = [l.n_points for l in root.iter_leaves()]
        assert sum(leaf_sizes) == n
        assert all(size <= 32 for size in leaf_sizes)


class TestBuildProperties:
    @given(st.integers(2, 800), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_any_shape_validates(self, n, d, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((n, d))
        tree = RTree.bulk_load(points, c_data=8, c_dir=4)
        tree.validate()

    @given(st.integers(50, 500), st.floats(0.05, 0.9), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_any_sample_rate_validates(self, n, rate, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((n, 3))
        m = max(1, int(n * rate))
        sample = points[gen.choice(n, m, replace=False)]
        mini = RTree.bulk_load(sample, c_data=8, c_dir=4, virtual_n=n)
        mini.validate()


def _grid_points(draw, n, d):
    """Points on a coarse grid (ties, repeated points, zero extents) or
    spread over a continuous range, with signed zeros mixed in."""
    if draw(st.booleans()):
        values = st.integers(-6, 6).map(lambda v: v / 4)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = st.one_of(values, st.just(-0.0))
    flat = draw(st.lists(values, min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=np.float64).reshape(n, d)


@st.composite
def _subtree_case(draw):
    c_data = draw(st.integers(2, 6))
    c_dir = draw(st.integers(2, 4))
    n = draw(st.integers(0, 120))
    d = draw(st.integers(1, 4))
    points = _grid_points(draw, n, d)
    # a sampled build imposes a larger virtual count on the same points
    n_virtual = max(1, n) * draw(st.sampled_from([1, 1, 3, 20]))
    topology = Topology(n_virtual, c_data, c_dir)
    level = draw(st.integers(1, topology.height))
    stop_level = draw(st.integers(1, level))
    ids = np.arange(n, dtype=np.int64)
    if draw(st.booleans()):
        ids = ids[np.random.default_rng(draw(st.integers(0, 99))).permutation(n)]
    config = BulkLoadConfig(
        dimension_rule=draw(st.sampled_from([max_variance_dimension,
                                             max_extent_dimension])),
        rank_mode=draw(st.sampled_from(["balanced", "midpoint"])),
    )
    return points, ids, level, n_virtual, topology, config, stop_level


class TestMatchesRecursiveOracle:
    """``build_subtree`` permutes one id array in place and reads the
    leaf corners off it; its flat result and the node graph built from
    it must equal the per-node recursive loader's."""

    @staticmethod
    def _assert_matches(points, ids, level, n_virtual, topology, config=None,
                        stop_level=1):
        got = build_subtree(points, ids, level, n_virtual, topology, config,
                            stop_level=stop_level)
        want = build_subtree_recursive(points, ids, level, n_virtual,
                                       topology, config,
                                       stop_level=stop_level)
        assert_same_layout(got, want, points.shape[1])
        graph = got.graph()
        assert_same_graph(graph, want)
        return got, graph

    @given(_subtree_case())
    @settings(max_examples=150, deadline=None)
    def test_same_graph_as_recursive_build(self, case):
        points, ids, level, n_virtual, topology, config, stop_level = case
        self._assert_matches(points, ids, level, n_virtual, topology, config,
                             stop_level)

    @pytest.mark.parametrize("rank_mode", ["balanced", "midpoint"])
    @pytest.mark.parametrize("rule", [max_variance_dimension,
                                      max_extent_dimension])
    @pytest.mark.parametrize("stop_level", [1, 2])
    def test_unsampled_clustered_build(self, clustered_points, rank_mode,
                                       rule, stop_level):
        config = BulkLoadConfig(dimension_rule=rule, rank_mode=rank_mode)
        topo = Topology(clustered_points.shape[0], 32, 16)
        ids = np.arange(clustered_points.shape[0], dtype=np.int64)
        self._assert_matches(clustered_points, ids, topo.height,
                             topo.n_points, topo, config, stop_level)

    @pytest.mark.parametrize("rank_mode", ["balanced", "midpoint"])
    @pytest.mark.parametrize("rule", [max_variance_dimension,
                                      max_extent_dimension])
    @pytest.mark.parametrize("stop_level", [1, 2])
    def test_sampled_clustered_build(self, clustered_points, rank_mode,
                                     rule, stop_level):
        n = clustered_points.shape[0]
        sample = clustered_points[np.random.default_rng(9).choice(
            n, n // 6, replace=False)]
        config = BulkLoadConfig(dimension_rule=rule, rank_mode=rank_mode)
        topo = Topology(n, 32, 16)
        ids = np.arange(sample.shape[0], dtype=np.int64)
        layout, _ = self._assert_matches(sample, ids, topo.height, n, topo,
                                         config, stop_level)
        assert layout.virtual_n.sum() == n

    @pytest.mark.parametrize("rank_mode", ["balanced", "midpoint"])
    def test_sparse_sample_with_empty_leaves(self, clustered_points, rank_mode):
        n = clustered_points.shape[0]
        sample = clustered_points[np.random.default_rng(4).choice(n, 3,
                                                                  replace=False)]
        topo = Topology(n, 32, 16)
        config = BulkLoadConfig(rank_mode=rank_mode)
        ids = np.arange(3, dtype=np.int64)
        layout, got = self._assert_matches(sample, ids, topo.height, n, topo,
                                           config)
        assert not layout.full.all()
        assert np.isinf(layout.lower[~layout.full]).all()
        assert any(leaf.mbr is None for leaf in got.iter_leaves())
        assert any(node.mbr is None for node in got.children
                   if not node.is_leaf)

    def test_all_empty_subtree(self):
        topo = Topology(500, 4, 4)
        points = np.empty((0, 3))
        ids = np.empty(0, dtype=np.int64)
        layout, got = self._assert_matches(points, ids, 3, 60, topo)
        assert got.mbr is None and got.n_points == 0
        assert layout.order.shape == (0,) and not layout.full.any()

    def test_ids_are_not_permuted_in_place(self, clustered_points):
        topo = Topology(clustered_points.shape[0], 32, 16)
        ids = np.arange(clustered_points.shape[0], dtype=np.int64)[::-1].copy()
        before = ids.copy()
        layout = build_subtree(clustered_points, ids, topo.height,
                               topo.n_points, topo)
        assert np.array_equal(ids, before)
        assert not np.array_equal(layout.order, before)

    def test_graph_over_other_ids(self, clustered_points):
        # The on-disk builder numbers a region's leaves by file position.
        n = 400
        topo = Topology(clustered_points.shape[0], 32, 16)
        layout = build_subtree(clustered_points[:n],
                               np.arange(n, dtype=np.int64), 2, n, topo)
        positions = np.arange(1000, 1000 + n, dtype=np.int64)
        edges = layout.bounds[0]
        pairs = zip(layout.graph(positions).iter_leaves(),
                    layout.graph().iter_leaves())
        for j, (mine, theirs) in enumerate(pairs):
            assert np.array_equal(mine.point_ids,
                                  positions[edges[j]:edges[j + 1]])
            assert np.array_equal(theirs.point_ids,
                                  layout.order[edges[j]:edges[j + 1]])
            assert mine.mbr.lower.tobytes() == theirs.mbr.lower.tobytes()
            assert mine.mbr.upper.tobytes() == theirs.mbr.upper.tobytes()
