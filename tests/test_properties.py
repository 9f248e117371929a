"""Cross-module property-based tests (hypothesis).

The suite's other files test modules in isolation; these properties tie
the system together over randomized configurations: the structural
identity between full index and mini-index, the optimal-search /
intersection-count equivalence across page geometries, compensation
round-trips, and conservation laws of the resampling pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compensation import (
    compensation_side_factor,
    grow_corners,
)
from repro.core.counting import knn_accesses_per_query
from repro.core.topology import Topology
from repro.disk.accounting import IOCost
from repro.disk.bufferpool import BufferedDisk
from repro.disk.device import SimulatedDisk
from repro.disk.faults import FaultInjector
from repro.disk.journal import WriteAheadJournal
from repro.disk.pagefile import PointFile
from repro.disk.retry import RetryPolicy
from repro.errors import CrashPoint
from repro.rtree.geometry import grow_centered
from repro.rtree.kdb import KDBTree
from repro.rtree.sstree import SSTree
from repro.rtree.tree import RTree
from repro.workload.queries import KNNWorkload, exact_knn_radii


class TestStructuralIdentity:
    @given(
        st.integers(100, 2000),
        st.floats(0.08, 1.0),
        st.integers(4, 32),
        st.integers(3, 12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_mini_index_node_counts(self, n, zeta, c_data, c_dir, seed):
        """Any sample, any capacities: the mini-index reproduces the
        full topology's node counts at every level."""
        gen = np.random.default_rng(seed)
        points = gen.random((n, 3))
        m = max(1, round(n * zeta))
        sample = points[gen.choice(n, m, replace=False)]
        mini = RTree.bulk_load(sample, c_data, c_dir, virtual_n=n)
        topology = Topology(n, c_data, c_dir)
        for level in range(1, topology.height + 1):
            assert (
                len(mini.nodes_at_level(level))
                == topology.nodes_at_level(level)
            )

    @given(st.integers(50, 800), st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_kdb_mini_page_count(self, n, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((n, 3))
        full = KDBTree.bulk_load(points, c_data=9)
        m = max(1, n // 4)
        sample = points[gen.choice(n, m, replace=False)]
        mini = KDBTree.bulk_load(
            sample, c_data=9, virtual_n=n,
            region=(points.min(axis=0), points.max(axis=0)),
        )
        assert mini.n_leaves == full.n_leaves


class TestOptimalSearchEquivalence:
    @given(st.integers(1, 30), st.integers(2, 6), st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_box_tree(self, k, d, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((300, d))
        tree = RTree.bulk_load(points, 12, 4)
        query = points[int(gen.integers(300))]
        result = tree.knn(query, k)
        assert result.leaf_accesses == tree.count_leaves_intersecting_sphere(
            query, result.radius
        )

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "tie defect (ROADMAP, 'carry squared radii end to end'): the "
        "search reads a leaf whose MINDIST^2 equals the k-th squared "
        "distance, but r*r rounds one ulp below it and the count drops it"
    ))
    def test_box_tree_tie_example(self):
        # test_box_tree's falsifying example k=13, d=2, seed=1024, held
        # here so that the defect shows whatever the local example
        # database replays: the search reads 5 leaves, the count finds 4
        gen = np.random.default_rng(1024)
        points = gen.random((300, 2))
        tree = RTree.bulk_load(points, 12, 4)
        query = points[int(gen.integers(300))]
        result = tree.knn(query, 13)
        assert result.leaf_accesses == tree.count_leaves_intersecting_sphere(
            query, result.radius
        )

    @given(st.integers(1, 20), st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_sphere_tree(self, k, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((300, 4))
        tree = SSTree.bulk_load(points, 12, 4)
        query = points[int(gen.integers(300))]
        result = tree.knn(query, k)
        counted = tree.leaf_accesses_for_radius(
            query[None, :], np.array([result.radius])
        )
        assert result.leaf_accesses == counted[0]

    @given(st.integers(1, 20), st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_kdb_tree(self, k, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((300, 4))
        tree = KDBTree.bulk_load(points, 12)
        query = points[int(gen.integers(300))]
        result = tree.knn(query, k)
        counted = tree.leaf_accesses_for_radius(
            query[None, :], np.array([result.radius])
        )
        assert result.leaf_accesses == counted[0]


class TestCompensationProperties:
    @given(
        st.floats(2.5, 300.0),
        st.floats(0.05, 0.99),
        st.integers(1, 32),
        st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_grow_shrink_roundtrip(self, capacity, zeta, d, seed):
        if capacity * zeta <= 1.2:
            return
        gen = np.random.default_rng(seed)
        lower = gen.random((5, d))
        upper = lower + gen.random((5, d))
        grown_lower, grown_upper = grow_corners(lower, upper, capacity, zeta)
        factor = compensation_side_factor(capacity, zeta)
        back_lower, back_upper = grow_centered(
            grown_lower, grown_upper, 1.0 / factor
        )
        assert np.allclose(back_lower, lower, atol=1e-9)
        assert np.allclose(back_upper, upper, atol=1e-9)

    @given(st.floats(3.0, 200.0), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_growth_never_reduces_counts(self, capacity, zeta):
        if capacity * zeta <= 1.2:
            return
        gen = np.random.default_rng(7)
        lower = gen.random((40, 4))
        upper = lower + gen.random((40, 4)) * 0.2
        queries = gen.random((10, 4))
        radii = np.full(10, 0.3)
        workload = KNNWorkload(
            k=1,
            query_ids=np.zeros(10, np.int64),
            queries=queries,
            radii=radii,
        )
        raw = knn_accesses_per_query(lower, upper, workload)
        grown = knn_accesses_per_query(
            *grow_corners(lower, upper, capacity, zeta), workload
        )
        assert np.all(grown >= raw)


class TestWorkloadProperties:
    @given(st.integers(2, 200), st.integers(1, 6), st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_radii_monotone_in_k(self, n, d, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((n, d))
        queries = points[:3]
        ks = [1, max(1, n // 2), n]
        radii = [exact_knn_radii(points, queries, k) for k in ks]
        for a, b in zip(radii, radii[1:]):
            assert np.all(a <= b + 1e-12)

    @given(st.integers(5, 100), st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_counting_bounded_by_leaves(self, n_queries, seed):
        gen = np.random.default_rng(seed)
        points = gen.random((400, 3))
        tree = RTree.bulk_load(points, 16, 4)
        queries = points[gen.choice(400, n_queries)]
        radii = exact_knn_radii(points, queries, 5)
        counts = tree.leaf_accesses_for_radius(queries, radii)
        assert np.all(counts >= 1)
        assert np.all(counts <= tree.n_leaves)


class TestDiskProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 8)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_seeks_bounded_by_accesses(self, accesses):
        disk = SimulatedDisk()
        for start, count in accesses:
            disk.access(start, count)
        nonempty = sum(1 for _, count in accesses if count > 0)
        assert disk.cost.seeks <= nonempty
        assert disk.cost.transfers == sum(c for _, c in accesses)

    @given(
        st.integers(0, 16),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 5)),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_buffer_pool_never_increases_io(self, capacity, accesses):
        plain = SimulatedDisk()
        for start, count in accesses:
            plain.drop_head()
            plain.read(start, count)
        pooled = BufferedDisk(SimulatedDisk(), capacity)
        for start, count in accesses:
            pooled.drop_head()
            pooled.read(start, count)
        assert pooled.disk.cost.transfers <= plain.cost.transfers

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_iocost_scaled_distributes(self, seeks, transfers, factor):
        cost = IOCost(seeks, transfers)
        assert cost.scaled(factor) + cost.scaled(factor) == cost.scaled(
            2 * factor
        )


class TestJournalRecoveryIdempotence:
    """``recover()`` must be idempotent: running it twice -- or
    crashing in the middle of it and running it again -- leaves the
    same media state (points and checksum sidecar) as one clean pass.
    """

    @staticmethod
    def _crashed_commit(seed, crash_at):
        """An atomic write interrupted at a swept crash point."""
        gen = np.random.default_rng(seed)
        points = gen.random((40, 4))
        injector = FaultInjector(SimulatedDisk(), seed=seed, crash_at=crash_at)
        journal = WriteAheadJournal(injector)
        file = PointFile.from_points(
            injector, points, retry=RetryPolicy(), verify_checksums=True,
            journal=journal,
        )
        payload = gen.random((20, 4))
        crashed = False
        try:
            file.write_range_atomic(5, payload)
        except CrashPoint:
            crashed = True
        return injector, journal, file, points, payload, crashed

    @staticmethod
    def _media_state(file):
        return (
            file.peek(0, file.n_points).copy(),
            dict(file._crc),
        )

    @given(st.integers(1, 14), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_recover_twice_is_recover_once(self, crash_at, seed):
        injector, journal, file, points, payload, crashed = (
            self._crashed_commit(seed, crash_at)
        )
        if crashed:
            injector.reboot()
        first = journal.recover()
        state = self._media_state(file)
        second = journal.recover()
        assert second.clean
        assert second.io_cost.is_zero
        after_points, after_crc = self._media_state(file)
        assert np.array_equal(after_points, state[0])
        assert after_crc == state[1]
        # Whatever recovery decided, the file holds exactly the old or
        # exactly the new version of the range -- never a blend.
        old = points[5:25]
        new = payload
        window = file.peek(5, 25)
        assert (np.array_equal(window, old)
                or np.array_equal(window, new))

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_crash_mid_recover_then_recover_again(
        self, crash_at, recover_crash_at, seed
    ):
        injector, journal, file, points, payload, crashed = (
            self._crashed_commit(seed, crash_at)
        )
        if not crashed:
            return  # commit finished before the crash point; nothing to do
        injector.reboot(crash_at=recover_crash_at)
        try:
            journal.recover()
        except CrashPoint:
            pass
        # A rollback-only recovery charges nothing, so the armed crash
        # may never fire; disarm either way before verifying.
        injector.reboot()
        journal.recover()  # finishes whatever the crashed pass left
        again = journal.recover()
        assert again.clean
        assert journal.pending_entries == 0
        window = file.peek(5, 25)
        assert (np.array_equal(window, points[5:25])
                or np.array_equal(window, payload))
        # The sidecar matches the media: every page re-verifies.
        data = file.read_range(0, file.n_points)
        assert np.array_equal(data, file.peek(0, file.n_points))


class TestResampledConservation:
    @given(st.integers(200, 1200), st.integers(30, 200), st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_predictions_nonnegative_and_bounded(self, n, memory, seed):
        from repro.core.resampled import ResampledModel
        from repro.disk.pagefile import PointFile
        from repro.workload.queries import density_biased_knn_workload

        gen = np.random.default_rng(seed)
        points = gen.random((n, 4))
        workload = density_biased_knn_workload(
            points, 5, 3, np.random.default_rng(seed + 1)
        )
        model = ResampledModel(8, 4, memory=memory)
        file = PointFile.from_points(SimulatedDisk(), points)
        result = model.predict(file, workload, np.random.default_rng(seed))
        topology = Topology(n, 8, 4)
        assert np.all(result.per_query >= 0)
        assert np.all(result.per_query <= topology.n_leaves)
        assert result.detail["n_predicted_leaves"] <= topology.n_leaves


class TestMonotoneInQuerySize:
    """For a fixed seed, a larger query never touches fewer leaves: the
    predicted geometry does not depend on the query sizes, and a box
    met by a sphere or box is met by any larger one with that center."""

    @given(st.integers(150, 500), st.integers(2, 4), st.integers(0, 1000),
           st.sampled_from(["resampled", "cutoff", "mini"]),
           st.floats(0.0, 1.0), st.floats(1.0, 3.0))
    @settings(max_examples=24, deadline=None)
    def test_knn_radius_growth(self, n, d, seed, method, small, large):
        from repro import IndexCostPredictor
        from repro.workload.queries import density_biased_knn_workload

        points = np.random.default_rng(seed).random((n, d))
        workload = density_biased_knn_workload(
            points, 12, 5, np.random.default_rng(seed + 1))
        predictor = IndexCostPredictor(dim=d, memory=60, c_data=8, c_dir=4)
        counts = [
            predictor.predict(points, workload.with_radii(workload.radii * s),
                              method=method, seed=seed, degrade=False,
                              sampling_fraction=0.3).per_query
            for s in (small, 1.0, large)
        ]
        assert np.all(counts[0] <= counts[1])
        assert np.all(counts[1] <= counts[2])

    @given(st.integers(150, 500), st.integers(2, 4), st.integers(0, 1000),
           st.sampled_from(["resampled", "cutoff", "mini"]),
           st.lists(st.floats(0.0, 0.6), min_size=3, max_size=3))
    @settings(max_examples=24, deadline=None)
    def test_range_side_growth(self, n, d, seed, method, sides):
        from repro import IndexCostPredictor
        from repro.workload.queries import RangeWorkload

        points = np.random.default_rng(seed).random((n, d))
        centers = points[np.random.default_rng(seed + 1).choice(n, 12)]
        predictor = IndexCostPredictor(dim=d, memory=60, c_data=8, c_dir=4)
        previous = None
        for side in sorted(sides):
            workload = RangeWorkload(lower=centers - side / 2,
                                     upper=centers + side / 2)
            counts = predictor.predict(points, workload, method=method,
                                       seed=seed, degrade=False,
                                       sampling_fraction=0.3).per_query
            if previous is not None:
                assert np.all(previous <= counts)
            previous = counts

    @given(st.integers(150, 500), st.integers(2, 4), st.integers(0, 1000),
           st.sampled_from(["resampled", "cutoff", "mini"]),
           st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=24, deadline=None)
    def test_knn_k_growth(self, n, d, seed, method, k, more):
        """The same query ids at a larger k: the k-th neighbor is no
        nearer, so neither the predicted nor the measured accesses fall."""
        from repro import IndexCostPredictor
        from repro.workload.queries import density_biased_knn_workload

        points = np.random.default_rng(seed).random((n, d))
        small, large = (
            density_biased_knn_workload(
                points, 12, kk, np.random.default_rng(seed + 1))
            for kk in (k, k + more)
        )
        assert np.array_equal(small.query_ids, large.query_ids)
        predictor = IndexCostPredictor(dim=d, memory=60, c_data=8, c_dir=4)
        predicted = [
            predictor.predict(points, workload, method=method, seed=seed,
                              degrade=False, sampling_fraction=0.3).per_query
            for workload in (small, large)
        ]
        assert np.all(predicted[0] <= predicted[1])
        index = predictor.build_ondisk(points)
        measured = [
            predictor.measure(points, workload, index=index).per_query
            for workload in (small, large)
        ]
        assert np.all(measured[0] <= measured[1])
