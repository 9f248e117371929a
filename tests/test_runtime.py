"""Tests for the budget-governed runtime layer.

Covers the three pieces of :mod:`repro.runtime` -- budgets/governor,
circuit breaker, hedged execution -- plus
their integration into the facade: the ample-budget zero-interference
guarantee (bit-identical estimate, zero extra charged I/O), mid-flight
downgrade on exhaustion, and the anytime annotation.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.predictor import IndexCostPredictor
from repro.disk.accounting import IOCost
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    DeadlineExceededError,
    DegradedResultWarning,
    InputValidationError,
)
from repro.runtime import (
    Budget,
    CircuitBreaker,
    Governor,
    run_hedged,
)

N, DIM, MEMORY = 800, 8, 250


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(42).random((N, DIM))


@pytest.fixture(scope="module")
def predictor():
    return IndexCostPredictor(dim=DIM, memory=MEMORY)


@pytest.fixture(scope="module")
def workload(points, predictor):
    return predictor.make_workload(points, n_queries=12, k=5, seed=1)


@pytest.fixture(scope="module")
def reference(points, predictor, workload):
    return predictor.predict(points, workload, method="resampled", seed=2)


class TestBudget:
    def test_defaults_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_io_ops=10).unlimited

    @pytest.mark.parametrize("kwargs", [
        {"max_io_ops": -1},
        {"max_seconds": 0.0}, {"max_seconds": -2.0},
        {"max_sample_bytes": -1},
    ])
    def test_rejects_invalid_limits(self, kwargs):
        with pytest.raises(InputValidationError):
            Budget(**kwargs)

    def test_io_ops_counts_seeks_plus_transfers(self):
        cost = IOCost(seeks=3, transfers=7, retries=5, faults_seen=2)
        assert Budget.io_ops(cost) == 10
        assert cost.ops == 10


class TestGovernor:
    def test_check_attributes_spend_per_phase(self):
        governor = Governor(Budget(max_io_ops=100))
        governor.check("read", IOCost(seeks=2, transfers=3))
        governor.check("scan", IOCost(seeks=4, transfers=6))
        assert governor.phase_spend == {"read": 5, "scan": 5}
        assert governor.spent_ops == 10

    def test_budget_equal_to_spend_never_trips(self):
        governor = Governor(Budget(max_io_ops=10))
        governor.check("scan", IOCost(seeks=5, transfers=5))
        assert governor.report()["within_budget"]

    def test_one_op_over_trips(self):
        governor = Governor(Budget(max_io_ops=10))
        with pytest.raises(BudgetExceededError) as excinfo:
            governor.check("scan", IOCost(seeks=5, transfers=6))
        assert excinfo.value.resource == "io_ops"
        assert excinfo.value.phase == "scan"
        assert not governor.report()["within_budget"]

    def test_deadline_uses_injected_monotonic_clock(self):
        fake = iter([0.0, 0.5, 1.5]).__next__
        governor = Governor(Budget(max_seconds=1.0), clock=fake)
        governor.check("ok")  # t=0.5: inside
        with pytest.raises(DeadlineExceededError):
            governor.check("late")  # t=1.5: past the deadline

    def test_end_attempt_folds_spend_across_attempts(self):
        governor = Governor(Budget(max_io_ops=100))
        governor.check("a", IOCost(seeks=5))
        governor.end_attempt()
        governor.check("b", IOCost(seeks=3))
        assert governor.spent_ops == 8

    def test_require_ops_refuses_unaffordable_attempt(self):
        governor = Governor(Budget(max_io_ops=10))
        governor.require_ops(10, phase="fits")  # exactly affordable
        with pytest.raises(BudgetExceededError):
            governor.require_ops(11, phase="admit")

    def test_check_deadline_ignores_blown_op_budget(self):
        governor = Governor(Budget(max_io_ops=5))
        with pytest.raises(BudgetExceededError):
            governor.check("scan", IOCost(seeks=6))
        governor.check_deadline("admit:mini")  # must not raise

    def test_admit_sample_blocks_before_scan(self):
        governor = Governor(Budget(max_sample_bytes=1000))
        with pytest.raises(BudgetExceededError) as excinfo:
            governor.admit_sample(100, 8, phase="scan")
        assert excinfo.value.resource == "sample_bytes"
        assert governor.sample_bytes == 0  # nothing was admitted

    def test_end_attempt_releases_sample_bytes(self):
        governor = Governor(Budget(max_sample_bytes=10_000))
        governor.admit_sample(100, 8)
        assert governor.sample_bytes == 6400
        governor.end_attempt()
        governor.admit_sample(100, 8)  # a second attempt's sample fits

    def test_report_shape(self):
        governor = Governor(Budget(max_io_ops=50, max_seconds=60.0))
        governor.check("scan", IOCost(seeks=1, transfers=2))
        report = governor.report()
        assert report["spent_io_ops"] == 3
        assert report["remaining_io_ops"] == 47
        assert report["within_budget"] is True
        assert report["exhausted"] is None
        assert report["phase_spend"] == {"scan": 3}


class TestGovernedFacade:
    def test_ample_budget_bit_identical_zero_extra_io(
        self, points, predictor, workload, reference
    ):
        governed = predictor.predict(
            points, workload, method="resampled", seed=2,
            budget=Budget(max_io_ops=10**9, max_seconds=3600.0,
                          max_sample_bytes=2**40),
        )
        assert np.array_equal(governed.per_query, reference.per_query)
        assert governed.io_cost == reference.io_cost
        report = governed.detail["budget"]
        assert report["within_budget"] and report["exhausted"] is None
        assert report["spent_io_ops"] == reference.io_cost.ops
        assert "degradation" not in governed.detail

    def test_exact_budget_never_trips(
        self, points, predictor, workload, reference
    ):
        governed = predictor.predict(
            points, workload, method="resampled", seed=2,
            budget=Budget(max_io_ops=reference.io_cost.ops),
        )
        assert np.array_equal(governed.per_query, reference.per_query)
        assert governed.detail["budget"]["within_budget"]

    def test_admission_denial_skips_without_spending(
        self, points, predictor, workload
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(
                points, workload, method="resampled", seed=2,
                budget=Budget(max_io_ops=3),
            )
        record = result.detail["degradation"]
        assert record["method_used"] == "mini"
        skipped = [a for a in record["attempts"] if a.get("skipped")]
        assert {a["method"] for a in skipped} == {"resampled", "cutoff"}
        assert all(a["cause"] == "budget" for a in record["attempts"])
        report = result.detail["budget"]
        assert report["spent_io_ops"] == 0
        assert report["within_budget"]  # admission prevented overspend
        assert report["exhausted"]["resource"] == "io_ops"

    def test_midflight_trip_downgrades_and_annotates(
        self, points, predictor, workload, reference
    ):
        # Enough to be admitted (query reads + scan lower bound), not
        # enough to finish resampled: trips at a phase boundary.
        budget = Budget(max_io_ops=reference.io_cost.ops - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(
                points, workload, method="resampled", seed=2, budget=budget,
            )
        record = result.detail["degradation"]
        assert record["attempts"][0]["method"] == "resampled"
        assert record["attempts"][0]["cause"] == "budget"
        assert result.detail["budget"]["exhausted"] is not None

    def test_deadline_degrades_to_baseline(self, points, predictor, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(
                points, workload, method="resampled", seed=2,
                budget=Budget(max_seconds=1e-9),
            )
        record = result.detail["degradation"]
        assert record["method_used"] == "baseline"
        assert not result.detail["budget"]["within_budget"]
        assert np.isfinite(result.mean_accesses)

    def test_sample_cap_degrades(self, points, predictor, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(
                points, workload, method="resampled", seed=2,
                budget=Budget(max_sample_bytes=64),
            )
        assert result.detail["degradation"]["method_used"] == "baseline"

    def test_strict_budget_raises_typed_errors(
        self, points, predictor, workload
    ):
        with pytest.raises(BudgetExceededError):
            predictor.predict(points, workload, method="resampled", seed=2,
                              budget=Budget(max_io_ops=3), degrade=False)
        with pytest.raises(DeadlineExceededError):
            predictor.predict(points, workload, method="resampled", seed=2,
                              budget=Budget(max_seconds=1e-9), degrade=False)

    def test_unlimited_budget_adds_no_annotation(
        self, points, predictor, workload, reference
    ):
        result = predictor.predict(points, workload, method="resampled",
                                   seed=2, budget=Budget())
        assert "budget" not in result.detail
        assert np.array_equal(result.per_query, reference.per_query)

    def test_hedge_requires_deadline(self, points, predictor, workload):
        with pytest.raises(InputValidationError):
            predictor.predict(points, workload, hedge=True)
        with pytest.raises(InputValidationError):
            predictor.predict(points, workload, hedge=True,
                              budget=Budget(max_io_ops=100))

    def test_hedge_serves_primary_inside_deadline(
        self, points, predictor, workload, reference
    ):
        result = predictor.predict(
            points, workload, method="resampled", seed=2,
            budget=Budget(max_seconds=60.0), hedge=True,
        )
        assert result.detail["hedge"]["winner"] == "primary"
        assert np.array_equal(result.per_query, reference.per_query)


class TestCircuitBreaker:
    def _trip(self, breaker):
        for _ in range(breaker.min_calls):
            breaker.before_attempt()
            breaker.record_failure()

    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker(min_calls=4, window=8, cooldown_s=60.0)
        self._trip(breaker)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        assert breaker.short_circuited == 1

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(min_calls=4, window=8, cooldown_s=1.0,
                                 clock=lambda: clock[0])
        self._trip(breaker)
        clock[0] = 1.5  # cooldown over: one probe admitted
        breaker.before_attempt()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failure_rate() == 0.0  # window cleared

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(min_calls=4, window=8, cooldown_s=1.0,
                                 clock=lambda: clock[0])
        self._trip(breaker)
        clock[0] = 1.5
        breaker.before_attempt()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()

    def test_healthy_device_never_opens(self):
        breaker = CircuitBreaker(min_calls=4, window=8)
        for _ in range(100):
            breaker.before_attempt()
            breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.opened_count == 0

    def test_breaker_on_faulty_predictor_degrades_to_memory_methods(
        self, points, workload
    ):
        breaker = CircuitBreaker(min_calls=1, window=4, cooldown_s=300.0)
        predictor = IndexCostPredictor(
            dim=DIM, memory=MEMORY, fault_rate=1.0, retry=None,
            breaker=breaker,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(points, workload, method="resampled",
                                       seed=2)
        assert result.detail["degradation"]["method_used"] == "mini"
        assert breaker.state == "open"
        # The second attempt (cutoff) hit the open circuit instead of
        # burning charged I/O on a device known to be bad.
        errors = [a["error"] for a in
                  result.detail["degradation"]["attempts"]]
        assert any("CircuitOpenError" in e for e in errors)
        assert breaker.short_circuited >= 1


class TestHedge:
    def test_primary_wins_when_fast(self):
        outcome = run_hedged(lambda: "primary", lambda: "hedge",
                             deadline_s=5.0)
        assert outcome.winner == "primary"
        assert outcome.result == "primary"

    def test_hedge_wins_when_primary_stalls(self):
        import threading
        release = threading.Event()

        def slow():
            release.wait(10.0)
            return "primary"

        outcome = run_hedged(slow, lambda: "hedge", deadline_s=0.2)
        release.set()
        assert outcome.winner == "hedge"
        assert outcome.result == "hedge"

    def test_raises_when_both_miss_deadline(self):
        import threading
        release = threading.Event()

        def stall():
            release.wait(10.0)
            return "late"

        with pytest.raises(DeadlineExceededError):
            run_hedged(stall, stall, deadline_s=0.1, grace_s=0.05)
        release.set()

    def test_primary_error_propagates_when_hedge_also_fails(self):
        def boom():
            raise BudgetExceededError("io_ops", 5, 1, phase="test")

        with pytest.raises(BudgetExceededError):
            run_hedged(boom, boom, deadline_s=1.0, grace_s=0.1)


class TestFacadeInjectedClock:
    def test_fake_clock_drives_deadline_without_sleeping(
        self, points, predictor, workload
    ):
        """The facade threads an injected clock into its governor, so a
        deadline trip is test-drivable with zero real waiting: the fake
        clock leaps 1000 "seconds" per reading."""
        ticks = {"now": 0.0}

        def clock() -> float:
            ticks["now"] += 1000.0
            return ticks["now"]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = predictor.predict(
                points, workload, method="resampled", seed=2,
                budget=Budget(max_seconds=60.0), clock=clock,
            )
        record = result.detail["degradation"]
        assert record["method_used"] == "baseline"
        assert all(a["cause"] == "budget" for a in record["attempts"])
        assert not result.detail["budget"]["within_budget"]

    def test_generous_fake_clock_is_zero_interference(
        self, points, predictor, workload, reference
    ):
        result = predictor.predict(
            points, workload, method="resampled", seed=2,
            budget=Budget(max_seconds=1e9), clock=lambda: 0.0,
        )
        assert np.array_equal(result.per_query, reference.per_query)

    def test_clock_ignored_without_budget(
        self, points, predictor, workload, reference
    ):
        def exploding_clock() -> float:
            raise AssertionError("no governor, so the clock must not run")

        result = predictor.predict(
            points, workload, method="resampled", seed=2,
            clock=exploding_clock,
        )
        assert np.array_equal(result.per_query, reference.per_query)


class TestConcurrencyHammer:
    """Thread-safety hammers for the shared runtime state.

    Each test drives real contention (tiny switch interval, many
    threads, tight loops over read-modify-write paths) and asserts
    exact totals -- the kind of check that fails within a few runs if
    the locks are removed, because concurrent ``+= 1`` on plain
    attributes loses increments.
    """

    @staticmethod
    def _hammer(worker, n_threads: int) -> None:
        import sys
        import threading

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)

    def test_disk_ledger_exact_under_contention(self):
        from repro.disk.device import SimulatedDisk

        disk = SimulatedDisk()
        rounds, n_threads = 400, 8

        def worker() -> None:
            for _ in range(rounds):
                disk.access(0, 2)
                disk.note_fault()
                disk.note_retry(IOCost(seeks=1))

        self._hammer(worker, n_threads)
        cost = disk.cost
        total = rounds * n_threads
        assert cost.transfers == 2 * total
        assert cost.faults_seen == total
        assert cost.retries == total
        # every access seeks (head parks at page 2, runs start at 0)
        # and every retry charges one backoff seek
        assert cost.seeks == 2 * total

    def test_breaker_opens_exactly_once_under_contention(self):
        breaker = CircuitBreaker(failure_threshold=0.5, window=16,
                                 min_calls=8, cooldown_s=1000.0)
        rounds, n_threads = 500, 8

        def worker() -> None:
            for _ in range(rounds):
                try:
                    breaker.before_attempt()
                except CircuitOpenError:
                    continue
                breaker.record_failure()

        self._hammer(worker, n_threads)
        # the open transition is a read-modify-write on shared state;
        # racing threads must not double-open (the cooldown never
        # elapses, so no probe can close and reopen it either)
        assert breaker.state == "open"
        assert breaker.opened_count == 1
        assert breaker.short_circuited > 0

    def test_governor_totals_exact_under_contention(self):
        from repro.runtime import Governor

        governor = Governor(Budget(max_io_ops=10**9))
        rounds, n_threads = 400, 8
        lock = __import__("threading").Lock()

        def worker() -> None:
            for _ in range(rounds):
                # observe/end_attempt is a set-then-fold pair; callers
                # folding into a shared governor serialize the pair,
                # exactly as TenantLedger.settle does
                with lock:
                    governor.observe("hammer", IOCost(seeks=1, transfers=2))
                    governor.end_attempt()

        self._hammer(worker, n_threads)
        assert governor.spent_ops == 3 * rounds * n_threads
        assert governor.phase_spend["hammer"] == 3 * rounds * n_threads
