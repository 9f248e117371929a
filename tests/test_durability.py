"""Durability layer: checksums, journaled atomic writes, crash resume.

Covers the crash-consistency contract end to end -- silent corruption
caught (or demonstrably NOT caught with verification off), torn writes
repaired rather than merely detected, crash points honored and resumed,
and the whole apparatus charging zero extra I/O when disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictor import IndexCostPredictor
from repro.core.resampled import ResampledModel
from repro.disk.accounting import IOCost
from repro.disk.device import SimulatedDisk
from repro.disk.faults import FaultInjector
from repro.disk.journal import WriteAheadJournal
from repro.disk.pagefile import PointFile
from repro.disk.retry import RetryPolicy
from repro.errors import (
    ChecksumError,
    CrashPoint,
    DiskError,
    InputValidationError,
    TransientReadError,
)
from repro.ondisk.builder import BuildLog, OnDiskBuilder
from repro.workload.queries import density_biased_knn_workload


def small_points(n=600, dim=4, seed=3):
    return np.random.default_rng(seed).random((n, dim))


# ----------------------------------------------------------------------
# Checksums and silent corruption
# ----------------------------------------------------------------------


class TestChecksums:
    def test_corruption_without_verification_is_silent(self):
        points = small_points()
        injector = FaultInjector(
            SimulatedDisk(), silent_corruption_rate=1.0, seed=1
        )
        file = PointFile.from_points(injector, points)
        data = file.read_range(0, file.points_per_page)
        clean = points[: file.points_per_page]
        assert not np.array_equal(data, clean)  # the motivating failure
        assert injector.cost.faults_seen > 0
        # the patched block is a private copy; the file keeps its bits
        assert data.flags.writeable
        assert np.array_equal(file.peek(0, file.points_per_page), clean)

    def test_corruption_with_verification_is_caught_and_retried(self):
        points = small_points()
        injector = FaultInjector(
            SimulatedDisk(), silent_corruption_rate=0.3, seed=1
        )
        file = PointFile.from_points(
            injector, points, retry=RetryPolicy(max_attempts=8),
            verify_checksums=True,
        )
        # Repeated reads eventually draw corruption; every returned
        # block must nonetheless be bit-identical to the source.
        for _ in range(20):
            assert np.array_equal(file.read_all(), points)
            if injector.cost.retries > 0:
                break
        assert injector.cost.retries > 0

    def test_exhausted_retries_raise_checksum_error(self):
        points = small_points()
        injector = FaultInjector(
            SimulatedDisk(), silent_corruption_rate=1.0, seed=1
        )
        file = PointFile.from_points(
            injector, points, retry=RetryPolicy(max_attempts=3),
            verify_checksums=True,
        )
        with pytest.raises(ChecksumError) as exc:
            file.read_range(0, 8)
        assert exc.value.attempts == 3
        assert exc.value.retryable

    def test_read_point_corruption_caught(self):
        points = small_points()
        injector = FaultInjector(
            SimulatedDisk(), silent_corruption_rate=1.0, seed=4
        )
        file = PointFile.from_points(
            injector, points, retry=None, verify_checksums=True
        )
        with pytest.raises(ChecksumError):
            file.read_point(17)

    def test_checksums_free_on_clean_disk(self):
        points = small_points()
        plain = PointFile.from_points(SimulatedDisk(), points)
        checked = PointFile.from_points(
            SimulatedDisk(), points, verify_checksums=True
        )
        a = plain.read_range(0, plain.n_points)
        b = checked.read_range(0, checked.n_points)
        assert np.array_equal(a, b)
        assert plain.disk.cost == checked.disk.cost  # sidecar charges nothing

    def test_writes_refresh_checksums(self):
        points = small_points(n=64)
        file = PointFile.from_points(
            SimulatedDisk(), points, verify_checksums=True
        )
        fresh = np.ones((8, points.shape[1]))
        file.write_range(4, fresh)
        assert np.array_equal(file.read_range(4, 12), fresh)


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------


class TestJournal:
    def make(self, points, **injector_kw):
        injector = FaultInjector(SimulatedDisk(), **injector_kw)
        journal = WriteAheadJournal(injector)
        file = PointFile.from_points(
            injector, points, retry=RetryPolicy(), journal=journal
        )
        return injector, journal, file

    def test_commit_installs_and_charges_journal(self):
        points = small_points(n=120)
        injector, journal, file = self.make(points)
        payload = np.full((40, points.shape[1]), 7.0)
        before = injector.cost
        file.write_range_atomic(10, payload)
        assert np.array_equal(file.peek(10, 50), payload)
        spent = injector.cost - before
        jcost = journal.journal_cost
        # payload run + commit marker + retire marker in the journal
        # region, plus the in-place install
        assert jcost.seeks == 3
        pages = file.page_span(10, 50)[1]
        assert jcost.transfers == pages + 2
        assert spent.transfers == jcost.transfers + pages
        assert journal.pending_entries == 0

    def test_without_journal_atomic_degrades_to_plain(self):
        points = small_points(n=60)
        file = PointFile.from_points(SimulatedDisk(), points)
        payload = np.zeros((10, points.shape[1]))
        file.write_range_atomic(5, payload)
        assert np.array_equal(file.peek(5, 15), payload)

    def test_crash_before_commit_marker_rolls_back(self):
        points = small_points(n=120)
        # from_points charges nothing; op 1 is the journal payload write
        injector, journal, file = self.make(points, crash_at=1)
        payload = np.full((40, points.shape[1]), 7.0)
        original = file.peek(0, file.n_points).copy()
        with pytest.raises(CrashPoint):
            file.write_range_atomic(10, payload)
        injector.reboot()
        report = journal.recover()
        assert report.rolled_back == 1
        assert report.replayed == 0
        assert np.array_equal(file.peek(0, file.n_points), original)

    def test_crash_mid_install_is_replayed(self):
        points = small_points(n=120)
        # ops: 1 journal payload, 2 commit marker, 3 install <- crash
        injector, journal, file = self.make(points, crash_at=3)
        payload = np.full((40, points.shape[1]), 7.0)
        with pytest.raises(CrashPoint):
            file.write_range_atomic(10, payload)
        injector.reboot()
        report = journal.recover()
        assert report.replayed == 1
        assert report.rolled_back == 0
        assert np.array_equal(file.peek(10, 50), payload)
        assert journal.pending_entries == 0

    def test_recover_on_clean_journal_is_free(self):
        points = small_points(n=60)
        injector, journal, file = self.make(points)
        file.write_range_atomic(0, np.ones((10, points.shape[1])))
        before = injector.cost
        report = journal.recover()
        assert report.clean
        assert injector.cost == before

    def test_oversized_commit_rejected(self):
        points = small_points(n=1200)
        disk = SimulatedDisk()
        journal = WriteAheadJournal(disk, capacity_pages=2)
        file = PointFile.from_points(disk, points, journal=journal)
        # two payload pages plus the marker cannot fit a 2-page region
        too_big = points[: 2 * file.points_per_page]
        with pytest.raises(DiskError, match="exceeds the journal"):
            file.write_range_atomic(0, too_big)

    def test_journal_region_wraps(self):
        points = small_points(n=200)
        disk = SimulatedDisk()
        journal = WriteAheadJournal(disk, capacity_pages=8)
        file = PointFile.from_points(disk, points, journal=journal)
        payload = np.ones((30, points.shape[1]))
        for _ in range(6):  # several commits through a tiny region
            file.write_range_atomic(0, payload)
        assert np.array_equal(file.peek(0, 30), payload)
        assert journal.pending_entries == 0


# ----------------------------------------------------------------------
# Crash-point semantics (the fault layer itself)
# ----------------------------------------------------------------------


class TestCrashPoint:
    def test_crash_fires_before_nth_op_and_sticks(self):
        points = small_points(n=100)
        injector = FaultInjector(SimulatedDisk(), crash_at=3)
        file = PointFile.from_points(injector, points)
        file.read_range(0, 8)
        file.read_range(0, 8)
        before = injector.cost
        with pytest.raises(CrashPoint):
            file.read_range(0, 8)
        assert injector.cost == before  # the crashed op never lands
        assert injector.crashed
        with pytest.raises(CrashPoint):  # dead until rebooted
            file.read_range(0, 8)
        injector.reboot()
        assert not injector.crashed
        assert np.array_equal(file.read_range(0, 8), points[:8])

    def test_crash_is_not_retried(self):
        points = small_points(n=100)
        injector = FaultInjector(SimulatedDisk(), crash_at=1)
        file = PointFile.from_points(
            injector, points, retry=RetryPolicy(max_attempts=4)
        )
        with pytest.raises(CrashPoint):
            file.read_range(0, 8)
        assert injector.cost.retries == 0

    def test_reboot_can_rearm(self):
        injector = FaultInjector(SimulatedDisk(), crash_at=1)
        file = PointFile.from_points(injector, small_points(n=50))
        with pytest.raises(CrashPoint):
            file.read_range(0, 4)
        injector.reboot(crash_at=2)
        file.read_range(0, 4)
        with pytest.raises(CrashPoint):
            file.read_range(0, 4)

    def test_crash_at_validation(self):
        with pytest.raises(InputValidationError):
            FaultInjector(SimulatedDisk(), crash_at=0)

    def test_facade_never_degrades_around_a_crash(self):
        points = small_points(n=800, dim=6)
        predictor = IndexCostPredictor(dim=6, memory=300, crash_at=1)
        workload = predictor.make_workload(points, 5, 3)
        with pytest.raises(CrashPoint):
            predictor.predict(points, workload, method="resampled")


# ----------------------------------------------------------------------
# Build and prediction resume
# ----------------------------------------------------------------------


class TestResume:
    def test_build_resume_skips_logged_units(self):
        points = small_points(n=1200, dim=4, seed=9)
        full = OnDiskBuilder(16, 8, 200).build(
            PointFile.from_points(SimulatedDisk(), points)
        )
        injector = FaultInjector(SimulatedDisk(), crash_at=30)
        file = PointFile.from_points(injector, points)
        log = BuildLog(injector)
        with pytest.raises(CrashPoint):
            OnDiskBuilder(16, 8, 200).build(file, log=log)
        assert len(log) > 0  # durable progress before the crash
        injector.reboot()
        resumed = OnDiskBuilder(16, 8, 200).build(file, log=log)
        assert resumed.build_cost.transfers < full.build_cost.transfers
        ref = sorted((tuple(l.mbr.lower), tuple(l.mbr.upper))
                     for l in full.tree.leaves if l.mbr is not None)
        got = sorted((tuple(l.mbr.lower), tuple(l.mbr.upper))
                     for l in resumed.tree.leaves if l.mbr is not None)
        assert got == ref

    def test_predict_checkpoint_without_crash_is_bit_identical(self):
        points = small_points(n=900, dim=5, seed=2)
        workload = density_biased_knn_workload(
            points, 10, 5, np.random.default_rng(1)
        )
        model = ResampledModel(16, 8, memory=150)
        ref = model.predict(PointFile.from_points(SimulatedDisk(), points),
                            workload, np.random.default_rng(0))
        got = model.predict(PointFile.from_points(SimulatedDisk(), points),
                            workload, np.random.default_rng(0),
                            checkpoint={})
        assert np.array_equal(got.per_query, ref.per_query)

    def test_predict_resume_after_crash_is_bit_identical(self):
        points = small_points(n=900, dim=5, seed=2)
        workload = density_biased_knn_workload(
            points, 10, 5, np.random.default_rng(1)
        )
        model = ResampledModel(16, 8, memory=150)
        ref = model.predict(PointFile.from_points(SimulatedDisk(), points),
                            workload, np.random.default_rng(0))
        injector = FaultInjector(SimulatedDisk(), crash_at=12)
        file = PointFile.from_points(injector, points)
        ck: dict = {}
        with pytest.raises(CrashPoint):
            model.predict(file, workload, np.random.default_rng(0),
                          checkpoint=ck)
        assert ck  # durable progress recorded before the crash
        injector.reboot()
        got = model.predict(file, workload, np.random.default_rng(0),
                            checkpoint=ck)
        assert np.array_equal(got.per_query, ref.per_query)

    def test_checkpoint_writes_are_charged(self):
        points = small_points(n=900, dim=5, seed=2)
        workload = density_biased_knn_workload(
            points, 10, 5, np.random.default_rng(1)
        )
        model = ResampledModel(16, 8, memory=150)
        plain = model.predict(
            PointFile.from_points(SimulatedDisk(), points), workload,
            np.random.default_rng(0),
        )
        ckpt = model.predict(
            PointFile.from_points(SimulatedDisk(), points), workload,
            np.random.default_rng(0), checkpoint={},
        )
        assert ckpt.io_cost.transfers > plain.io_cost.transfers


class TestTruncate:
    def test_rolls_back_length(self):
        points = small_points(n=50)
        file = PointFile.from_points(SimulatedDisk(), points)
        file.truncate(20)
        assert file.n_points == 20
        assert np.array_equal(file.peek(0, 20), points[:20])

    def test_truncate_refreshes_trailing_checksum(self):
        points = small_points(n=1200)
        file = PointFile.from_points(
            SimulatedDisk(), points, verify_checksums=True
        )
        file.truncate(file.points_per_page + 1)  # mid-page cut
        data = file.read_range(0, file.n_points)  # verifies every page
        assert np.array_equal(data, points[: file.n_points])

    def test_rejects_growth(self):
        file = PointFile.from_points(SimulatedDisk(), small_points(n=10))
        with pytest.raises(ValueError):
            file.truncate(11)


# ----------------------------------------------------------------------
# Satellite: counter/ledger reset interplay
# ----------------------------------------------------------------------


class TestResetInterplay:
    def test_reset_clears_ledger_and_pending_corruption_together(self):
        points = small_points(n=100)
        injector = FaultInjector(
            SimulatedDisk(), silent_corruption_rate=1.0, seed=0
        )
        # Read WITHOUT consuming the flip (no checksum layer attached):
        # a raw device read records pending corruption.
        file = PointFile.from_points(injector, points)
        file.read_range(0, 8)
        assert injector.cost.faults_seen > 0
        phase_a = injector.reset_counters()
        assert phase_a.faults_seen > 0
        assert injector.cost == IOCost()
        # Phase B on a checksummed file of the SAME injector: a flip
        # recorded in phase A must not materialize here.
        injector.silent_corruption_rate = 0.0
        checked = PointFile.from_points(
            injector, points, verify_checksums=True
        )
        data = checked.read_range(0, 8)  # would raise on a stale flip
        assert np.array_equal(data, points[:8])
        assert injector.cost.faults_seen == 0

    def test_reset_preserves_crash_schedule(self):
        injector = FaultInjector(SimulatedDisk(), crash_at=2)
        file = PointFile.from_points(injector, small_points(n=40))
        file.read_range(0, 4)
        injector.reset_counters()
        with pytest.raises(CrashPoint):  # op count is NOT ledger state
            file.read_range(0, 4)


# ----------------------------------------------------------------------
# Satellite: retry-policy edge cases
# ----------------------------------------------------------------------


class TestRetryPolicyEdges:
    def test_backoff_rounds_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff_cost(0)

    def test_backoff_growth(self):
        policy = RetryPolicy(backoff_seeks=2, backoff_factor=2.0)
        assert policy.backoff_cost(1).seeks == 2
        assert policy.backoff_cost(2).seeks == 4
        assert policy.backoff_cost(3).seeks == 8

    def test_single_attempt_policy_never_retries(self):
        injector = FaultInjector(
            SimulatedDisk(), read_fault_rate=1.0, seed=0
        )
        file = PointFile.from_points(
            injector, small_points(n=40), retry=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(TransientReadError) as exc:
            file.read_range(0, 4)
        assert exc.value.attempts == 1
        assert injector.cost.retries == 0

    def test_exhaustion_reraises_last_error_with_attempts(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientReadError(0, 1)

        disk = SimulatedDisk()
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(TransientReadError) as exc:
            policy.run(disk, always_fails)
        assert len(calls) == 3
        assert exc.value.attempts == 3
        assert disk.cost.retries == 2  # two backoff rounds were charged

    def test_backoff_lands_on_inner_device_through_injector(self):
        inner = SimulatedDisk()
        injector = FaultInjector(inner, read_fault_rate=1.0, seed=0)
        file = PointFile.from_points(
            injector, small_points(n=40),
            retry=RetryPolicy(max_attempts=2, backoff_seeks=5,
                              backoff_factor=1.0),
        )
        with pytest.raises(TransientReadError):
            file.read_range(0, 4)
        # note_retry delegates through the injector to the real ledger
        assert inner.cost.retries == 1
        assert inner.cost.seeks >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seeks=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# ----------------------------------------------------------------------
# Zero overhead when disabled
# ----------------------------------------------------------------------


class TestZeroOverhead:
    def test_inert_injector_ledger_matches_bare_disk(self):
        points = small_points(n=900, dim=5, seed=2)
        workload = density_biased_knn_workload(
            points, 10, 5, np.random.default_rng(1)
        )
        model = ResampledModel(16, 8, memory=150)
        bare = model.predict(
            PointFile.from_points(SimulatedDisk(), points), workload,
            np.random.default_rng(0),
        )
        inert = model.predict(
            PointFile.from_points(FaultInjector(SimulatedDisk()), points),
            workload, np.random.default_rng(0),
        )
        assert np.array_equal(bare.per_query, inert.per_query)
        assert bare.io_cost == inert.io_cost

    def test_facade_defaults_use_bare_disk(self):
        predictor = IndexCostPredictor(dim=4, memory=200)
        file = predictor.new_file(small_points(n=100))
        assert isinstance(file.disk, SimulatedDisk)
        assert not file.verify_checksums
        assert file.journal is None
