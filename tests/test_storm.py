"""The shared storm toolkit: response classifier and book reconciler.

The service and cluster chaos harnesses both run on
:mod:`repro.runtime.storm`, so its rules are pinned here directly, on
hand-made responses, without standing up a service.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterChaosOutcome, ClusterChaosScenario
from repro.runtime.storm import StormOutcome
from repro.service import ServiceChaosOutcome, ServiceChaosScenario

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
