"""Tests for the disk simulator: accounting, device, paged files."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.accounting import DiskParameters, IOCost
from repro.disk.device import SimulatedDisk
from repro.disk.pagefile import PointFile


class TestIOCost:
    def test_addition(self):
        total = IOCost(2, 10) + IOCost(3, 5)
        assert total == IOCost(5, 15)

    def test_subtraction(self):
        assert IOCost(5, 15) - IOCost(2, 10) == IOCost(3, 5)

    def test_scaling(self):
        assert IOCost(1, 4).scaled(3) == IOCost(3, 12)

    def test_seconds_default_disk(self):
        cost = IOCost(seeks=100, transfers=1000)
        assert cost.seconds() == pytest.approx(100 * 0.010 + 1000 * 0.0004)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IOCost(-1, 0)
        with pytest.raises(ValueError):
            IOCost(1, 2).scaled(-1)

    def test_is_zero(self):
        assert IOCost().is_zero
        assert not IOCost(1, 0).is_zero

    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_addition_commutative(self, s1, t1, s2, t2):
        a, b = IOCost(s1, t1), IOCost(s2, t2)
        assert a + b == b + a

    @given(st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_scaling_is_repeated_addition(self, s, t, n):
        cost = IOCost(s, t)
        total = IOCost()
        for _ in range(n):
            total = total + cost
        assert total == cost.scaled(n)


class TestDiskParameters:
    def test_defaults_match_paper(self):
        disk = DiskParameters()
        assert disk.t_seek == 0.010
        assert disk.t_xfer == 0.0004
        assert disk.page_bytes == 8192

    def test_points_per_page_60d(self):
        assert DiskParameters().points_per_page(60) == 34

    def test_points_per_page_floor(self):
        assert DiskParameters().points_per_page(10_000) == 1

    def test_with_page_bytes_rescales_transfer(self):
        disk = DiskParameters().with_page_bytes(65536)
        assert disk.page_bytes == 65536
        assert disk.t_xfer == pytest.approx(0.0004 * 8)
        assert disk.t_seek == 0.010

    def test_invalid(self):
        with pytest.raises(ValueError):
            DiskParameters(t_seek=-1)
        with pytest.raises(ValueError):
            DiskParameters(page_bytes=0)
        with pytest.raises(ValueError):
            DiskParameters().points_per_page(0)


class TestSimulatedDisk:
    def test_sequential_access_single_seek(self):
        disk = SimulatedDisk()
        disk.access(0, 10)
        disk.access(10, 10)  # adjacent: continues the streak
        assert disk.cost == IOCost(seeks=1, transfers=20)

    def test_non_adjacent_access_seeks(self):
        disk = SimulatedDisk()
        disk.access(0, 10)
        disk.access(100, 5)
        disk.access(50, 1)
        assert disk.cost.seeks == 3
        assert disk.cost.transfers == 16

    def test_backward_access_seeks(self):
        disk = SimulatedDisk()
        disk.access(10, 5)
        disk.access(0, 5)  # behind the head: seek
        assert disk.cost.seeks == 2

    def test_zero_pages_free(self):
        disk = SimulatedDisk()
        assert disk.access(5, 0) == IOCost()
        assert disk.cost.is_zero

    def test_allocation_is_consecutive(self):
        disk = SimulatedDisk()
        a = disk.allocate(10)
        b = disk.allocate(5)
        assert b == a + 10
        assert disk.allocated_pages == 15

    def test_reset_preserves_head(self):
        disk = SimulatedDisk()
        disk.access(0, 10)
        before = disk.reset_counters()
        assert before == IOCost(1, 10)
        disk.access(10, 1)  # still adjacent: no phantom seek
        assert disk.cost == IOCost(seeks=0, transfers=1)

    def test_drop_head_forces_seek(self):
        disk = SimulatedDisk()
        disk.access(0, 10)
        disk.drop_head()
        disk.access(10, 1)
        assert disk.cost.seeks == 2

    def test_invalid_access(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            disk.access(-1, 1)
        with pytest.raises(ValueError):
            disk.access(0, -1)

    def test_seconds_pricing(self):
        disk = SimulatedDisk(DiskParameters(t_seek=1.0, t_xfer=0.5))
        disk.access(0, 4)
        assert disk.seconds() == pytest.approx(1.0 + 4 * 0.5)


class TestPointFile:
    def test_roundtrip(self, rng):
        disk = SimulatedDisk()
        points = rng.random((100, 5))
        pf = PointFile.from_points(disk, points)
        assert np.allclose(pf.read_all(), points)

    def test_initial_load_free_by_default(self, rng):
        disk = SimulatedDisk()
        PointFile.from_points(disk, rng.random((100, 5)))
        assert disk.cost.is_zero

    def test_charged_initial_load(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((100, 5)), charge_write=True)
        assert disk.cost.transfers == pf.n_pages

    def test_scan_costs_one_seek(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((1000, 8)))
        blocks = [b for _, b in pf.scan()]
        assert np.allclose(np.concatenate(blocks), pf.read_all()[: 1000])
        # scan: 1 seek + ceil(N/B) transfers (read_all added 1 seek + pages)
        scan_cost = disk.cost - IOCost(seeks=1, transfers=pf.n_pages)
        assert scan_cost == IOCost(seeks=1, transfers=pf.n_pages)

    def test_scan_with_custom_chunk_still_one_seek(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((999, 7)))
        list(pf.scan(chunk_points=130))  # not page-aligned: gets aligned
        assert disk.cost.seeks == 1
        assert disk.cost.transfers == pf.n_pages

    def test_read_point_random_seeks(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((500, 4)))
        pf.read_point(0)
        pf.read_point(499)
        assert disk.cost == IOCost(seeks=2, transfers=2)

    def test_read_range_page_span(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((100, 4)), points_per_page=10)
        pf.read_range(5, 15)  # straddles pages 0 and 1
        assert disk.cost == IOCost(seeks=1, transfers=2)

    def test_clean_read_is_a_read_only_view(self, rng):
        points = rng.random((100, 4))
        pf = PointFile.from_points(SimulatedDisk(), points, points_per_page=10)
        block = pf.read_range(5, 15)
        assert np.array_equal(block, points[5:15])
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        # a view: the next write to those rows shows through
        pf.write_range(5, np.zeros((1, 4)))
        assert (block[0] == 0.0).all()
        pf.write_range(0, np.ones((1, 4)))  # the file stays writable

    def test_append_retouches_partial_page(self, rng):
        disk = SimulatedDisk()
        pf = PointFile(disk, dim=4, capacity=100, points_per_page=10)
        pf.append(rng.random((5, 4)))
        pf.append(rng.random((5, 4)))  # same trailing page
        assert disk.cost.transfers == 2
        assert pf.n_points == 10

    def test_write_past_capacity_rejected(self, rng):
        disk = SimulatedDisk()
        pf = PointFile(disk, dim=2, capacity=10)
        with pytest.raises(IndexError):
            pf.write_range(5, rng.random((6, 2)))

    def test_read_past_end_rejected(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((10, 2)))
        with pytest.raises(IndexError):
            pf.read_range(5, 11)

    def test_page_of(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((25, 2)), points_per_page=10)
        assert pf.page_of(0) == pf.start_page
        assert pf.page_of(10) == pf.start_page + 1
        assert pf.page_of(24) == pf.start_page + 2
        with pytest.raises(IndexError):
            pf.page_of(25)

    def test_two_files_disjoint_pages(self, rng):
        disk = SimulatedDisk()
        a = PointFile.from_points(disk, rng.random((50, 2)), points_per_page=10)
        b = PointFile.from_points(disk, rng.random((50, 2)), points_per_page=10)
        assert b.start_page >= a.start_page + 5

    def test_peek_and_place_uncharged(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((20, 3)))
        data = pf.peek(0, 20).copy()
        pf.place(0, data[::-1])
        assert disk.cost.is_zero
        assert np.allclose(pf.peek(0, 20), data[::-1])

    def test_n_pages(self, rng):
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, rng.random((21, 2)), points_per_page=10)
        assert pf.n_pages == 3

    @given(st.integers(1, 300), st.integers(1, 20), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_scan_transfer_count_property(self, n, d, b):
        gen = np.random.default_rng(n * 31 + d)
        disk = SimulatedDisk()
        pf = PointFile.from_points(disk, gen.random((n, d)), points_per_page=b)
        list(pf.scan())
        assert disk.cost == IOCost(seeks=1, transfers=math.ceil(n / b))
