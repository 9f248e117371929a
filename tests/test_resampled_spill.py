"""The resampled predictor's spill step: assignment and reservoir writes.

``_assign_to_boxes`` is checked against the distance-only rule in
``tests/assign_oracle.py``; the batched reservoir write
(``PointFile.place_rows``) against the per-point ``place`` loop it
replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.resampled import ResampledModel, _assign_to_boxes
from repro.disk.device import SimulatedDisk
from repro.disk.pagefile import PointFile

from .assign_oracle import assign_by_distance, underflows


@st.composite
def _boxes_and_points(draw):
    """Boxes and points on a shared coordinate set, so degenerate and
    overlapping boxes and points on faces and corners are common.
    Some cases are wider than one 16-dimension containment block."""
    d = draw(st.one_of(st.integers(1, 4), st.sampled_from([17, 33, 40])))
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coord = st.integers(-4, 4).map(lambda v: v / 2)
    else:
        coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    corners = np.array(draw(st.lists(coord, min_size=2 * k * d,
                                     max_size=2 * k * d))).reshape(2, k, d)
    lower, upper = corners.min(axis=0), corners.max(axis=0)
    if draw(st.booleans()):
        # zero-width boxes: some or all sides collapsed
        flat = np.array(draw(st.lists(st.booleans(), min_size=k * d,
                                      max_size=k * d))).reshape(k, d)
        upper = np.where(flat, lower, upper)
    n = draw(st.integers(0, 30))
    points = np.array(draw(st.lists(coord, min_size=n * d,
                                    max_size=n * d))).reshape(n, d)
    # corners and face points of every box, points past every box, and
    # points inside a box but in its last dimension
    mixed = np.where(np.arange(d) % 2 == 0, lower, (lower + upper) / 2)
    last_out = np.where(np.arange(d) < d - 1, lower, upper + 1.0)
    points = np.concatenate([points, lower, upper, mixed, last_out,
                             upper + 1.0, lower - 3.0])
    order = np.random.default_rng(draw(st.integers(0, 99))).permutation(
        points.shape[0])
    return points[order], lower, upper


class TestAssignmentMatchesOracle:
    @given(_boxes_and_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_distance_rule(self, case):
        points, lower, upper = case
        assume(not underflows(points, lower, upper))
        assert np.array_equal(_assign_to_boxes(points, lower, upper),
                              assign_by_distance(points, lower, upper))

    def test_overlap_goes_to_lowest_index(self):
        lower = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        upper = np.array([[2.0, 2.0], [2.0, 2.0], [3.0, 3.0]])
        points = np.array([[1.0, 1.0], [2.0, 2.0], [2.5, 2.5], [5.0, 5.0]])
        got = _assign_to_boxes(points, lower, upper)
        assert got.tolist() == [0, 0, 2, 2]
        assert np.array_equal(got, assign_by_distance(points, lower, upper))

    def test_uncontained_points_take_nearest_box(self):
        lower = np.array([[0.0], [10.0], [20.0]])
        upper = np.array([[1.0], [10.0], [21.0]])
        points = np.array([[5.4], [5.6], [15.0], [-7.0], [30.0]])
        got = _assign_to_boxes(points, lower, upper)
        # 15.0 is 5 from box 1 and 5 from box 2: the tie goes to 1
        assert got.tolist() == [0, 1, 1, 0, 2]
        assert np.array_equal(got, assign_by_distance(points, lower, upper))

    def test_many_points_span_oracle_blocks(self):
        gen = np.random.default_rng(5)
        lower = gen.random((7, 5))
        upper = lower + gen.random((7, 5)) * 0.3
        points = gen.random((9000, 5)) * 1.4 - 0.2
        assert np.array_equal(_assign_to_boxes(points, lower, upper),
                              assign_by_distance(points, lower, upper))

    def test_containment_reads_every_dimension_block(self):
        # box 0 holds the point in its first 39 dimensions, not in the
        # 40th; box 1 holds it entirely
        lower, upper = np.zeros((2, 40)), np.ones((2, 40))
        lower[0, -1], upper[0, -1] = 5.0, 6.0
        points = np.full((1, 40), 0.5)
        assert _assign_to_boxes(points, lower, upper).tolist() == [1]
        assert assign_by_distance(points, lower, upper).tolist() == [1]

    def test_empty_inputs(self):
        lower = np.zeros((2, 3))
        assert _assign_to_boxes(np.empty((0, 3)), lower, lower + 1).shape == (0,)

    def test_underflowing_gap_keeps_the_containing_box(self):
        # 0.0 is outside box 0 by 1e-170, whose square underflows to
        # 0.0: the distance rule picks box 0, containment picks box 1
        lower = np.array([[1e-170], [-1.0]])
        upper = np.array([[1.0], [1.0]])
        points = np.array([[0.0]])
        assert underflows(points, lower, upper)
        assert assign_by_distance(points, lower, upper).tolist() == [0]
        assert _assign_to_boxes(points, lower, upper).tolist() == [1]


def _area(rows: int, dim: int, *, verify: bool = False, seed: int = 0):
    disk = SimulatedDisk()
    area = PointFile(disk, dim, rows, points_per_page=4,
                     verify_checksums=verify)
    area.append(np.random.default_rng(seed).random((rows, dim)))
    return area


def _place_loop(area: PointFile, rows: np.ndarray, points: np.ndarray) -> None:
    for row, point in zip(rows.tolist(), points):
        area.place(int(row), point[np.newaxis, :])


class TestPlaceRows:
    def test_duplicate_rows_keep_the_last_write(self):
        area = _area(10, 2)
        rows = np.array([3, 7, 3, 3, 7, 0])
        points = np.arange(12, dtype=np.float64).reshape(6, 2)
        area.place_rows(rows, points)
        assert area.peek(3, 4).tolist() == [[6.0, 7.0]]
        assert area.peek(7, 8).tolist() == [[8.0, 9.0]]
        assert area.peek(0, 1).tolist() == [[10.0, 11.0]]

    @given(st.integers(1, 40), st.integers(0, 80), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_row_place_loop(self, n_rows, n_writes, seed):
        gen = np.random.default_rng(seed)
        rows = gen.integers(0, n_rows, n_writes)
        points = gen.random((n_writes, 3))
        batched, looped = _area(n_rows, 3, verify=True), _area(n_rows, 3,
                                                               verify=True)
        batched.place_rows(rows, points)
        _place_loop(looped, rows, points)
        assert batched.peek(0, n_rows).tobytes() == looped.peek(0, n_rows).tobytes()
        assert batched._crc == looped._crc

    def test_checksummed_area_reads_back_clean(self):
        area = _area(13, 2, verify=True)
        rows = np.array([12, 0, 5, 5, 12])
        area.place_rows(rows, np.ones((5, 2)))
        data = area.read_all()  # raises ChecksumError on a stale CRC
        assert np.array_equal(data, area.peek(0, 13))

    def test_rows_past_the_end_rejected(self):
        area = _area(4, 2)
        with pytest.raises(IndexError):
            area.place_rows(np.array([4]), np.zeros((1, 2)))
        with pytest.raises(IndexError):
            area.place_rows(np.array([-1]), np.zeros((1, 2)))


class TestBatchedReservoir:
    """``_spill`` into a full area: one batched write per group, the
    same buffer as writing each kept point with its own ``place``."""

    @pytest.mark.parametrize("verify", [False, True])
    def test_matches_per_point_place_loop(self, verify):
        capacity, dim = 6, 3
        group = np.random.default_rng(1).random((200, dim))
        seen_before = capacity
        model = ResampledModel(8, 4, memory=capacity)
        batched = _area(capacity, dim, verify=verify)
        model._spill(batched, group, seen_before, np.random.default_rng(2))

        # the per-point reference, replaying the same reservoir draws
        looped = _area(capacity, dim, verify=verify)
        positions = seen_before + np.arange(group.shape[0])
        slots = np.random.default_rng(2).integers(0, positions + 1)
        accept = slots < capacity
        kept = slots[accept]
        assert np.unique(kept).shape[0] < kept.shape[0]  # duplicates occur
        _place_loop(looped, kept, group[accept])
        assert batched.peek(0, capacity).tobytes() == looped.peek(0, capacity).tobytes()
        if verify:
            assert batched._crc == looped._crc
            batched.read_all()

    def test_charges_one_write_per_group(self):
        capacity, dim = 8, 2
        area = _area(capacity, dim)
        model = ResampledModel(8, 4, memory=capacity)
        before = area.disk.cost
        model._spill(area, np.random.default_rng(3).random((50, dim)),
                     capacity, np.random.default_rng(4))
        spent = area.disk.cost - before
        assert spent.seeks == 1
        assert spent.transfers <= math.ceil(capacity / area.points_per_page)
