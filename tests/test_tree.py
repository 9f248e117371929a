"""Tests for the R-tree query engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.tree import RTree


def brute_knn(points, query, k):
    dists = np.linalg.norm(points - query, axis=1)
    order = np.argsort(dists)
    return order[:k], dists[order[:k]]


class TestKNN:
    @pytest.fixture(scope="class")
    def tree(self, clustered_points):
        return RTree.bulk_load(clustered_points, c_data=32, c_dir=16)

    def test_matches_brute_force(self, tree, clustered_points, rng):
        for _ in range(10):
            query = clustered_points[rng.integers(len(clustered_points))]
            result = tree.knn(query, 5)
            _, expected = brute_knn(clustered_points, query, 5)
            assert np.allclose(np.sort(result.distances), expected)

    def test_external_query_point(self, tree, clustered_points, rng):
        query = clustered_points.mean(axis=0) + 10.0
        result = tree.knn(query, 3)
        _, expected = brute_knn(clustered_points, query, 3)
        assert np.allclose(np.sort(result.distances), expected)

    def test_k_one(self, tree, clustered_points):
        result = tree.knn(clustered_points[17], 1)
        assert result.point_ids[0] == 17
        assert result.distances[0] == pytest.approx(0.0)

    def test_k_exceeds_leaf(self, tree, clustered_points):
        result = tree.knn(clustered_points[0], 100)
        assert result.point_ids.shape[0] == 100
        _, expected = brute_knn(clustered_points, clustered_points[0], 100)
        assert np.allclose(np.sort(result.distances), expected)

    def test_invalid_k(self, tree):
        with pytest.raises(ValueError):
            tree.knn(np.zeros(tree.dim), 0)

    def test_access_counters_positive(self, tree, clustered_points):
        result = tree.knn(clustered_points[5], 21)
        assert 1 <= result.leaf_accesses <= tree.n_leaves
        assert result.node_accesses >= result.leaf_accesses

    def test_radius_property(self, tree, clustered_points):
        result = tree.knn(clustered_points[9], 7)
        assert result.radius == pytest.approx(result.distances[-1])

    def test_collect_leaves(self, tree, clustered_points):
        result = tree.knn(clustered_points[3], 21, collect_leaves=True)
        assert result.accessed_leaves is not None
        assert len(result.accessed_leaves) == result.leaf_accesses
        # The found neighbors must live in the accessed leaves.
        leaf_ids = np.concatenate([l.point_ids for l in result.accessed_leaves])
        assert set(result.point_ids.tolist()) <= set(leaf_ids.tolist())

    def test_no_collect_by_default(self, tree, clustered_points):
        result = tree.knn(clustered_points[3], 2)
        assert result.accessed_leaves is None


class TestOptimalityInvariant:
    """Leaf accesses of the best-first search equal the number of leaf
    MBRs intersecting the final k-NN sphere -- the identity the paper's
    prediction model rests on."""

    @given(st.integers(1, 25), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_accesses_equal_sphere_intersections(self, k, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((400, 4))
        tree = RTree.bulk_load(points, c_data=16, c_dir=4)
        query = points[int(gen.integers(400))]
        result = tree.knn(query, k)
        sphere_count = tree.count_leaves_intersecting_sphere(query, result.radius)
        assert result.leaf_accesses == sphere_count

    def test_on_clustered_data(self, clustered_points):
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16)
        for i in (0, 100, 999):
            result = tree.knn(clustered_points[i], 21)
            assert result.leaf_accesses == tree.count_leaves_intersecting_sphere(
                clustered_points[i], result.radius
            )


class TestRangeQuery:
    @pytest.fixture(scope="class")
    def tree(self, clustered_points):
        return RTree.bulk_load(clustered_points, c_data=32, c_dir=16)

    def test_matches_brute_force(self, tree, clustered_points, rng):
        for _ in range(5):
            center = clustered_points[rng.integers(len(clustered_points))]
            lower, upper = center - 0.2, center + 0.2
            found = tree.range_query(lower, upper)
            inside = np.all(
                (clustered_points >= lower) & (clustered_points <= upper), axis=1
            )
            assert np.array_equal(found, np.flatnonzero(inside))

    def test_whole_space(self, tree, clustered_points):
        lower = clustered_points.min(axis=0)
        upper = clustered_points.max(axis=0)
        found = tree.range_query(lower, upper)
        assert found.shape[0] == clustered_points.shape[0]

    def test_empty_region(self, tree, clustered_points):
        far = clustered_points.max(axis=0) + 10.0
        found = tree.range_query(far, far + 1.0)
        assert found.shape[0] == 0


class TestLeafEnumeration:
    def test_leaf_corners_cover_points(self, clustered_points):
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16)
        lower, upper = tree.leaf_corners
        assert lower.shape == (tree.n_leaves, tree.dim)
        # Every point is inside at least one leaf box.
        for i in (0, 7, 2000):
            point = clustered_points[i]
            inside = np.all((lower <= point) & (point <= upper), axis=1)
            assert inside.any()

    def test_leaf_accesses_for_radius_vectorized(self, clustered_points, rng):
        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16)
        queries = clustered_points[:5]
        radii = np.full(5, 0.3)
        counts = tree.leaf_accesses_for_radius(queries, radii)
        for i in range(5):
            assert counts[i] == tree.count_leaves_intersecting_sphere(
                queries[i], radii[i]
            )


class TestValidate:
    @pytest.mark.parametrize("corner", ["lower", "upper"])
    def test_box_off_by_one_ulp_fails(self, clustered_points, corner):
        # A leaf box must equal its points' min and max exactly.  Shrunk
        # by one ulp it still sits inside its parent, and ``allclose``
        # would let it pass.
        from repro.rtree.geometry import MBR

        tree = RTree.bulk_load(clustered_points, c_data=32, c_dir=16)
        tree.validate()
        leaf = tree.leaves[3]
        lower, upper = leaf.mbr.lower.copy(), leaf.mbr.upper.copy()
        if corner == "lower":
            lower[0] = np.nextafter(lower[0], np.inf)
        else:
            upper[0] = np.nextafter(upper[0], -np.inf)
        leaf.mbr = MBR(lower, upper)
        with pytest.raises(AssertionError):
            tree.validate()
