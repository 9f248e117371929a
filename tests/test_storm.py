"""The shared storm toolkit: classifier, reconciler, closed-loop runner.

The service and cluster chaos harnesses and all four load tests run
on :mod:`repro.runtime.storm`, so its rules are pinned here directly,
on hand-made responses and records, without standing up a service.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterChaosOutcome, ClusterChaosScenario
from repro.runtime.storm import (
    ClosedLoop,
    StormOutcome,
    percentiles,
    record_of,
)
from repro.service import (
    PendingPrediction,
    ServiceChaosOutcome,
    ServiceChaosScenario,
    run_loadtest,
)

REFERENCE = np.array([3.0, 1.0, 4.0])


@dataclass(kw_only=True)
class _Outcome(StormOutcome):
    typed_errors = frozenset({"KnownError"})

    def has_record(self, response) -> bool:
        return response.record


def _response(status="ok", *, per_query=REFERENCE, record=True, **extra):
    fields = dict(
        status=status, cause=None, error_type=None, error=None,
        result=SimpleNamespace(per_query=per_query.copy()), record=record,
    )
    fields.update(extra)
    return SimpleNamespace(**fields)


def _outcome():
    return _Outcome(scenario=SimpleNamespace(seed=0))


class TestClassifier:
    @pytest.mark.parametrize("response, expected, state", [
        (_response(), REFERENCE, "identical"),
        (_response(), None, "served"),
        (_response(failover_from="replica-0"), REFERENCE, "failover"),
        (_response("degraded", cause="budget"), None, "degraded"),
        (_response("error", error_type="KnownError"), None, "typed_error"),
    ])
    def test_terminal_states(self, response, expected, state):
        outcome = _outcome()
        assert outcome.classify(response, "r", expected=expected) == state
        assert outcome.classified == {state: 1}
        assert outcome.violations == []

    @pytest.mark.parametrize("response, expected, bucket, words", [
        (_response(per_query=REFERENCE + 1), REFERENCE, "mismatch",
         "diverged"),
        (_response("degraded", record=False), None, "mismatch",
         "no causal record"),
        (_response(failover_from="replica-0", record=False), None,
         "mismatch", "no causal record"),
        (_response("error", error_type="KeyError", error="boom"), None,
         "untyped_error", "untyped KeyError: boom"),
        (_response("lost"), None, "unknown", "unknown status 'lost'"),
    ])
    def test_violations(self, response, expected, bucket, words):
        outcome = _outcome()
        assert outcome.classify(response, "req 7", expected=expected) == bucket
        assert outcome.classified == {bucket: 1}
        [message] = outcome.violations
        assert message.startswith("req 7") and words in message
        with pytest.raises(AssertionError, match="storm invariant violated"):
            outcome.assert_clean("storm")

    def test_hang_is_a_violation(self):
        outcome = _outcome()
        outcome.hung("req 9")
        assert outcome.classified == {"hung": 1}
        assert "req 9 HUNG past 30 s" in outcome.violations[0]

    def test_causes_are_tallied_for_every_state(self):
        outcome = _outcome()
        outcome.classify(_response("degraded", cause="budget"), "a")
        outcome.classify(_response("error", error_type="KnownError",
                                   cause="deadline"), "b")
        assert outcome.causes_seen == {"budget": 1, "deadline": 1}
        assert outcome.total_requests == 2

    def test_service_record_is_the_attempt_chain(self):
        outcome = ServiceChaosOutcome(scenario=ServiceChaosScenario())
        chain = _response("degraded", attempts=[{"method": "resampled"}])
        bare = _response("degraded", attempts=[])
        assert outcome.classify(chain, "a") == "degraded"
        assert outcome.classify(bare, "b") == "mismatch"

    def test_cluster_failover_needs_tried(self):
        outcome = ClusterChaosOutcome(scenario=ClusterChaosScenario())
        tried = _response(failover_from="replica-0",
                          tried=[("replica-0", "down")])
        untried = _response(failover_from="replica-0", tried=[])
        assert outcome.classify(tried, "a", expected=REFERENCE) == "failover"
        assert outcome.classify(untried, "b") == "mismatch"
        assert outcome.classify(
            _response("error", error_type="ReplicaUnavailableError",
                      failover_from=None, tried=[]), "c"
        ) == "typed_error"


class TestReconciler:
    def test_equal_books_pass(self):
        outcome = _outcome()
        books = {"t0": {"a": 5, "b": 5, "c": 5}, "t1": {"a": 0, "b": 0}}
        outcome.reconcile(books)
        assert outcome.reconciliation == books
        assert outcome.violations == []

    def test_unequal_book_is_flagged(self):
        outcome = _outcome()
        outcome.reconcile({"t0": {"a": 5, "b": 5},
                           "t1": {"a": 3, "b": 3, "c": 4}})
        [message] = outcome.violations
        assert "'t1'" in message and "do not reconcile" in message


def test_percentiles_of_a_known_list():
    latencies_s = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    assert percentiles(latencies_s) == {
        "p50": 50.5, "p95": 95.05, "p99": 99.01, "mean": 50.5, "max": 100.0,
    }
    assert percentiles([]) == {
        "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0,
    }


def test_record_of_times_by_latency_and_names_failover():
    served = SimpleNamespace(status="ok", latency_s=0.5, failover_from=None)
    start, end, status = record_of(served)
    assert end - start == pytest.approx(0.5) and status == "ok"
    moved = SimpleNamespace(status="ok", latency_s=0.0,
                            failover_from="replica-0")
    assert record_of(moved)[2] == "failover"
    plain = SimpleNamespace(status="degraded", latency_s=0.0)
    assert record_of(plain)[2] == "degraded"


class TestClosedLoop:
    def _loop(self):
        loop = ClosedLoop()
        loop.marks = {"start": 0.0, "fence_start": 10.0, "fence_done": 12.0,
                      "end": 20.0}
        loop.records = [
            (0.0, 1.0, "ok"),            # pre
            (9.0, 10.0, "error"),        # pre (ends on the mark)
            (9.5, 10.5, "ok"),           # straddles the fence start
            (10.5, 11.0, "degraded"),    # inside the fence
            (11.5, 12.5, "ok"),          # straddles the fence end
            (12.0, 13.0, "failover"),    # post (starts on the mark)
            (15.0, 15.0, "refused_quota"),  # post, never resolved
            (19.0, 20.0, "ok"),          # post
        ]
        return loop

    def test_marks_split_records_exactly_once(self):
        loop = self._loop()
        pre = loop.window("start", "fence_start")
        mid = loop.straddling("fence_start", "fence_done")
        post = loop.window("fence_done", "end")
        counts = [pre["resolved"], mid["resolved"], post["resolved"]]
        assert counts == [2, 3, 2]
        resolved = sum(1 for r in loop.records if r[2] != "refused_quota")
        assert sum(counts) == resolved
        assert (pre["errors"], mid["errors"], post["errors"]) == (1, 0, 0)
        assert pre["throughput_rps"] == 0.2          # 2 over 10 s
        assert mid["latency_ms"]["max"] == 1000.0
        assert loop.counts()["refused_quota"] == 1

    def test_run_records_clients_and_marks(self):
        def step():
            time.sleep(0.005)
            now = time.monotonic()
            return [(now - 0.001, now, "ok")]

        loop = ClosedLoop()
        loop.run([step, step], 0.1, operator=lambda: loop.mark("half"))
        assert loop.marks["start"] <= loop.marks["half"] <= loop.marks["end"]
        whole = loop.window("start", "end")
        assert whole["resolved"] == len(loop.records) > 2
        assert whole["errors"] == 0

    def test_a_client_may_retire_early(self):
        calls = []

        def once():
            calls.append(1)
            return [(0.0, 0.0, "ok")] if len(calls) == 1 else None

        loop = ClosedLoop().run([once], 0.5)
        assert len(calls) == 2 and len(loop.records) == 1

    def test_client_exception_is_reraised_after_join(self):
        def failing():
            raise TimeoutError("request hung")

        def healthy():
            time.sleep(0.005)
            return [(0.0, 0.0, "ok")]

        loop = ClosedLoop()
        with pytest.raises(TimeoutError, match="request hung"):
            loop.run([failing, healthy], 0.05)
        # the healthy client ran to the end of the window first
        assert len(loop.records) > 1

    def test_operator_exception_is_reraised_after_join(self):
        def operator():
            raise RuntimeError("surgery failed")

        with pytest.raises(RuntimeError, match="surgery failed"):
            ClosedLoop().run([lambda: [(0.0, 0.0, "ok")]], 0.02, operator)


def test_load_test_reraises_a_hung_request(monkeypatch):
    """A request that never resolves fails the load test; it is not
    silently dropped from the counts."""
    def hung(self, timeout=None):
        raise TimeoutError(f"request {self.request_id} hung")

    monkeypatch.setattr(PendingPrediction, "result", hung)
    with pytest.raises(TimeoutError, match="hung"):
        run_loadtest(n_tenants=1, workers=1, duration_s=0.05, n_points=200,
                     dim=4, memory=100, n_queries=4)
