"""Unit and property tests for MBR geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.rtree import geometry
from repro.rtree.geometry import MBR


def finite_points(min_n=1, max_n=32, min_d=1, max_d=8):
    """Strategy: an (n, d) float array with bounded finite values."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(min_d, max_d).flatmap(
            lambda d: hnp.arrays(
                np.float64,
                (n, d),
                elements=st.floats(-100, 100, allow_nan=False, width=32),
            )
        )
    )


class TestMBRBasics:
    def test_of_points_bounds(self, tiny_points):
        box = MBR.of_points(tiny_points)
        assert np.all(box.lower <= tiny_points.min(axis=0))
        assert np.all(box.upper >= tiny_points.max(axis=0))
        assert np.allclose(box.lower, tiny_points.min(axis=0))
        assert np.allclose(box.upper, tiny_points.max(axis=0))

    def test_single_point_is_degenerate(self):
        box = MBR.of_points(np.array([[1.0, 2.0, 3.0]]))
        assert box.volume() == 0.0
        assert box.contains_point([1.0, 2.0, 3.0])

    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            MBR(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            MBR(np.array([0.0]), np.array([1.0, 2.0]))

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            MBR.of_points(np.empty((0, 3)))

    def test_volume_and_margin(self):
        box = MBR(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert box.volume() == pytest.approx(6.0)
        assert box.margin() == pytest.approx(6.0)

    def test_center_and_extents(self):
        box = MBR(np.array([0.0, -2.0]), np.array([2.0, 2.0]))
        assert np.allclose(box.center, [1.0, 0.0])
        assert np.allclose(box.extents, [2.0, 4.0])

    def test_mindist_inside_is_zero(self):
        box = MBR(np.zeros(2), np.ones(2))
        assert box.mindist_sq([0.5, 0.5]) == 0.0
        assert box.mindist_sq([0.0, 1.0]) == 0.0  # boundary counts

    def test_mindist_outside(self):
        box = MBR(np.zeros(2), np.ones(2))
        assert box.mindist_sq([2.0, 0.5]) == pytest.approx(1.0)
        assert box.mindist_sq([2.0, 2.0]) == pytest.approx(2.0)

    def test_sphere_intersection(self):
        box = MBR(np.zeros(2), np.ones(2))
        assert box.intersects_sphere(np.array([2.0, 0.5]), 1.0)
        assert not box.intersects_sphere(np.array([2.0, 0.5]), 0.99)

    def test_grown_by_one_is_identity(self):
        box = MBR(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        grown = box.grown(1.0)
        assert np.allclose(grown.lower, box.lower)
        assert np.allclose(grown.upper, box.upper)

    def test_grown_preserves_center(self):
        box = MBR(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        grown = box.grown(1.5)
        assert np.allclose(grown.center, box.center)
        assert np.allclose(grown.extents, box.extents * 1.5)

    def test_grow_negative_rejected(self):
        box = MBR(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            box.grown(-0.1)


class TestVectorizedOps:
    def test_intersects_box_symmetry(self, rng):
        lower = rng.random((30, 3))
        upper = lower + rng.random((30, 3))
        q_lower = rng.random(3) * 0.5
        q_upper = q_lower + 0.5
        query = MBR(q_lower, q_upper)
        for i in range(30):
            box = MBR(lower[i], upper[i])
            expected = bool(np.all(lower[i] <= q_upper)
                            and np.all(q_lower <= upper[i]))
            assert box.intersects_box(query) == query.intersects_box(box) \
                == expected

    def test_contains_point_boundary(self):
        box = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert box.contains_point(np.array([1.0, 0.0]))
        assert not box.contains_point(np.array([1.0001, 0.0]))

    def test_volume_stacked(self):
        lower = np.zeros((3, 2))
        upper = np.array([[1.0, 1.0], [2.0, 1.0], [0.5, 4.0]])
        assert np.allclose(geometry.volume(lower, upper), [1.0, 2.0, 2.0])

    def test_grow_centered_shrink(self):
        lower = np.array([[0.0, 0.0]])
        upper = np.array([[2.0, 4.0]])
        lo, hi = geometry.grow_centered(lower, upper, 0.5)
        assert np.allclose(lo, [[0.5, 1.0]])
        assert np.allclose(hi, [[1.5, 3.0]])


class TestGeometryProperties:
    @given(finite_points(min_n=2))
    @settings(max_examples=50, deadline=None)
    def test_mbr_contains_all_points(self, points):
        box = MBR.of_points(points)
        for point in points:
            assert box.contains_point(point)

    @given(finite_points(min_n=1))
    @settings(max_examples=50, deadline=None)
    def test_mindist_zero_for_members(self, points):
        box = MBR.of_points(points)
        assert box.mindist_sq(points[0]) == pytest.approx(0.0, abs=1e-9)

    @given(finite_points(min_n=2), st.floats(1.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_growth_monotone_in_mindist(self, points, factor):
        """Growing a box can only decrease MINDIST to any query."""
        box = MBR.of_points(points)
        grown = box.grown(factor)
        query = points.mean(axis=0) + 50.0
        assert grown.mindist_sq(query) <= box.mindist_sq(query) + 1e-9
