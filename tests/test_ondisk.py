"""Tests for the external on-disk builder and query measurement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import datasets
from repro.disk.device import SimulatedDisk
from repro.disk.faults import FaultInjector
from repro.disk.pagefile import PointFile
from repro.errors import TransientReadError
from repro.ondisk.builder import OnDiskBuilder
from repro.ondisk.measure import measure_knn
from repro.rtree.tree import RTree
from repro.workload.queries import density_biased_knn_workload

from .knn_oracle import measure_by_search

C_DATA, C_DIR = 32, 16


@pytest.fixture(scope="module")
def built(clustered_points):
    disk = SimulatedDisk()
    file = PointFile.from_points(disk, clustered_points)
    builder = OnDiskBuilder(C_DATA, C_DIR, memory=500)
    return builder.build(file)


class TestBuilder:
    def test_tree_validates(self, built):
        built.tree.validate()

    def test_points_preserved_as_multiset(self, built, clustered_points):
        original = np.sort(clustered_points.round(9).view([("", float)] *
                           clustered_points.shape[1]).ravel())
        rebuilt = np.sort(built.tree.points.round(9).view([("", float)] *
                          clustered_points.shape[1]).ravel())
        assert np.array_equal(original, rebuilt)

    def test_leaves_are_contiguous_on_disk(self, built):
        for leaf in built.tree.leaves:
            ids = leaf.point_ids
            assert np.array_equal(ids, np.arange(ids[0], ids[0] + len(ids)))

    def test_leaves_cover_file_in_order(self, built, clustered_points):
        starts = [int(l.point_ids[0]) for l in built.tree.leaves]
        sizes = [l.n_points for l in built.tree.leaves]
        assert starts[0] == 0
        for i in range(len(starts) - 1):
            assert starts[i + 1] == starts[i] + sizes[i]
        assert starts[-1] + sizes[-1] == clustered_points.shape[0]

    def test_build_cost_at_least_two_passes(self, built):
        # The data must be read and written at least once in full.
        assert built.build_cost.transfers >= 2 * built.file.n_pages

    def test_build_cost_well_above_best_case(self, built, clustered_points):
        # Real quickselect needs several passes; the paper reports 5-10x
        # over the single-pass best case on real data.
        passes = built.build_cost.transfers / built.file.n_pages
        assert passes > 4

    def test_topology_matches_in_memory_build(self, built, clustered_points):
        reference = RTree.bulk_load(clustered_points, C_DATA, C_DIR)
        assert built.tree.height == reference.height
        assert built.tree.n_leaves == reference.n_leaves

    def test_small_memory_still_correct(self, clustered_points):
        disk = SimulatedDisk()
        file = PointFile.from_points(disk, clustered_points)
        small = OnDiskBuilder(C_DATA, C_DIR, memory=64).build(file)
        small.tree.validate()

    def test_smaller_memory_costs_more(self, clustered_points, built):
        disk = SimulatedDisk()
        file = PointFile.from_points(disk, clustered_points)
        small = OnDiskBuilder(C_DATA, C_DIR, memory=64).build(file)
        assert small.build_cost.seconds() > built.build_cost.seconds()

    def test_memory_below_page_rejected(self):
        with pytest.raises(ValueError):
            OnDiskBuilder(C_DATA, C_DIR, memory=10)

    def test_empty_file_rejected(self):
        disk = SimulatedDisk()
        file = PointFile(disk, dim=4, capacity=10)
        with pytest.raises(ValueError):
            OnDiskBuilder(C_DATA, C_DIR, memory=100).build(file)

    def test_leaf_page_span(self, built):
        leaf = built.tree.leaves[0]
        first, count = built.leaf_page_span(leaf)
        assert count >= 1
        assert first >= built.file.start_page

    def test_duplicate_heavy_data(self):
        """External quickselect must terminate on constant columns."""
        points = np.zeros((2000, 4))
        points[:, 0] = np.repeat(np.arange(4), 500)  # few distinct keys
        disk = SimulatedDisk()
        file = PointFile.from_points(disk, points)
        index = OnDiskBuilder(8, 4, memory=64).build(file)
        index.tree.validate()


class TestMeasurement:
    @pytest.fixture(scope="class")
    def workload(self, clustered_points):
        return density_biased_knn_workload(
            clustered_points, 25, 21, np.random.default_rng(2)
        )

    def test_knn_results_match_brute_force(self, built, clustered_points):
        query = clustered_points[10]
        result = built.tree.knn(query, 5)
        expected = np.sort(np.linalg.norm(clustered_points - query, axis=1))[:5]
        assert np.allclose(np.sort(result.distances), expected)

    def test_measure_equals_sphere_counts(self, built, workload):
        measured = measure_knn(built, workload)
        counted = built.tree.leaf_accesses_for_radius(
            workload.queries, workload.radii
        )
        assert np.array_equal(measured.per_query, counted)

    def test_query_io_charged_per_leaf(self, built, workload):
        before = built.file.disk.cost
        measured = measure_knn(built, workload)
        assert built.file.disk.cost - before == measured.io_cost
        assert measured.io_cost.transfers >= measured.per_query.sum()

    def test_seek_to_transfer_ratio_near_one(self, built, workload):
        """Table 3: nearly all on-disk query page accesses are random."""
        measured = measure_knn(built, workload)
        ratio = measured.io_cost.seeks / measured.io_cost.transfers
        assert ratio > 0.7

    def test_mean_accesses(self, built, workload):
        measured = measure_knn(built, workload)
        assert measured.mean_accesses == pytest.approx(
            measured.per_query.mean()
        )


def _build(points, c_data=C_DATA, c_dir=C_DIR, memory=500, device=None):
    file = PointFile.from_points(device or SimulatedDisk(), points)
    return OnDiskBuilder(c_data, c_dir, memory=memory).build(file)


def _assert_replay_matches_search(points, workload, **build):
    """Replay and search on two identical fresh indexes agree bit for bit."""
    replayed = measure_knn(_build(points, **build), workload)
    searched = measure_by_search(_build(points, **build), workload)
    assert np.array_equal(replayed.per_query, searched.per_query)
    assert replayed.per_query.dtype == searched.per_query.dtype
    assert replayed.io_cost == searched.io_cost


class TestReplayMatchesSearch:
    """``measure_knn`` replays the best-first search's leaf reads; the
    per-query search loop is the oracle."""

    @pytest.mark.parametrize(
        "name, scale, data_seed, query_seed",
        [
            ("TEXTURE60", 0.04, 1, 2),
            ("TEXTURE48", 0.02, 9, 1),
            ("COLOR64", 0.02, 0, 1),
            ("STOCK360", 0.1, 0, 1),
        ],
    )
    def test_dataset_analogues(self, name, scale, data_seed, query_seed):
        points = datasets.load(name, scale=scale, seed=data_seed)
        workload = density_biased_knn_workload(
            points, 60, 21, np.random.default_rng(query_seed)
        )
        _assert_replay_matches_search(points, workload, memory=800)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_clustered_and_uniform_seeds(self, clustered_points,
                                         uniform_points, seed):
        for points in (clustered_points, uniform_points):
            workload = density_biased_knn_workload(
                points, 40, 21, np.random.default_rng(seed)
            )
            _assert_replay_matches_search(points, workload)

    def test_altered_radii_change_nothing(self, clustered_points):
        """The replay takes the k-th distance from the index's points,
        never from the workload's radii."""
        workload = density_biased_knn_workload(
            clustered_points, 30, 21, np.random.default_rng(3)
        )
        halved = workload.with_radii(workload.radii / 2)
        plain = measure_knn(_build(clustered_points), workload)
        altered = measure_knn(_build(clustered_points), halved)
        assert np.array_equal(plain.per_query, altered.per_query)
        assert plain.io_cost == altered.io_cost
        _assert_replay_matches_search(clustered_points, halved)

    @given(
        st.integers(2, 16),
        st.integers(1, 4),
        st.integers(60, 400),
        st.integers(1, 25),
        st.sampled_from([(4, 3), (8, 4), (16, 8)]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_integer_grids_with_heavy_ties(self, dim, levels, n, k,
                                           capacities, seed):
        """Few distinct coordinates: duplicate points, equal distances and
        equal MINDISTs everywhere, so every tie-break of the heap shows."""
        gen = np.random.default_rng(seed)
        points = gen.integers(0, levels + 1, size=(n, dim)).astype(np.float64)
        workload = density_biased_knn_workload(
            points, 12, min(k, n), gen
        )
        c_data, c_dir = capacities
        _assert_replay_matches_search(points, workload, c_data=c_data,
                                      c_dir=c_dir, memory=64)

    @given(
        st.integers(1, 11),
        st.integers(3, 40),
        st.integers(60, 400),
        st.integers(1, 25),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_duplicated_continuous_points(self, dim, distinct, n, k, seed):
        """Copies of a few random points: many leaves are a single
        point's box, so a point's distance and its box's MINDIST must
        come from the same arithmetic."""
        gen = np.random.default_rng(seed)
        base = gen.random((distinct, dim))
        points = base[gen.integers(0, distinct, size=n)]
        workload = density_biased_knn_workload(points, 12, min(k, n), gen)
        _assert_replay_matches_search(points, workload, c_data=5, c_dir=3,
                                      memory=64)

    def test_all_points_identical(self):
        points = np.ones((300, 5))
        workload = density_biased_knn_workload(
            points, 7, 9, np.random.default_rng(0)
        )
        _assert_replay_matches_search(points, workload, c_data=8, c_dir=4,
                                      memory=64)

    def test_single_leaf_index(self, rng):
        points = rng.random((20, 3))
        workload = density_biased_knn_workload(points, 5, 20, rng)
        _assert_replay_matches_search(points, workload)


class TestReplayUnderFaults:
    """Behind a fault injector the replay must issue the search's exact
    read sequence, so every injected fault lands on the same read."""

    @staticmethod
    def _recorded(points, seed, **rates):
        injector = FaultInjector(SimulatedDisk(), seed=seed)
        index = _build(points, device=injector)
        for name, rate in rates.items():
            setattr(injector, name, rate)
        reads = []
        inner = injector.read

        def read(first, count):
            reads.append((first, count))
            return inner(first, count)

        injector.read = read
        return index, reads

    @pytest.mark.parametrize("seed", [0, 5])
    def test_spikes_and_silent_corruption(self, clustered_points, seed):
        workload = density_biased_knn_workload(
            clustered_points, 25, 21, np.random.default_rng(seed)
        )
        rates = {"latency_spike_rate": 0.2, "silent_corruption_rate": 0.1}
        index, replay_reads = self._recorded(clustered_points, seed, **rates)
        replayed = measure_knn(index, workload)
        index, search_reads = self._recorded(clustered_points, seed, **rates)
        searched = measure_by_search(index, workload)
        assert replay_reads == search_reads
        assert np.array_equal(replayed.per_query, searched.per_query)
        assert replayed.io_cost == searched.io_cost
        assert replayed.io_cost.faults_seen > 0

    def test_read_fault_raises_at_the_same_read(self, clustered_points):
        workload = density_biased_knn_workload(
            clustered_points, 25, 21, np.random.default_rng(1)
        )
        index, replay_reads = self._recorded(clustered_points, 3,
                                             read_fault_rate=0.01)
        with pytest.raises(TransientReadError):
            measure_knn(index, workload)
        index, search_reads = self._recorded(clustered_points, 3,
                                             read_fault_rate=0.01)
        with pytest.raises(TransientReadError):
            measure_by_search(index, workload)
        assert replay_reads == search_reads
