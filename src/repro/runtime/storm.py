"""The mechanisms the service and cluster storm harnesses share: one
response classifier and N-way book reconciler (:class:`StormOutcome`)
and one closed-loop load runner (:class:`ClosedLoop`).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

__all__ = ["HANG_TIMEOUT_S", "RESOLVED", "ClosedLoop", "StormOutcome",
           "percentiles", "record_of"]

#: how long any one response may take before a storm calls it hung
HANG_TIMEOUT_S = 30.0

#: the statuses a request resolves to; anything else a client records
#: (an admission refusal, say) is counted but is not a resolved request
RESOLVED = frozenset({"ok", "failover", "degraded", "error"})


@dataclass(kw_only=True)
class StormOutcome:
    """What one storm observed, classified response by response.

    Every response lands in one terminal state -- ``identical`` (equal
    to the unloaded reference), ``served``, ``failover``, ``degraded``
    or ``typed_error`` -- or is a violation: a ``mismatch`` (a diverged
    answer, or a failover or degradation without a causal record), an
    ``untyped_error``, an ``unknown`` status, or ``hung``.  A layer
    subclasses this to name its typed errors and its record predicate.
    """

    #: error types an ``error`` response may carry without a violation
    typed_errors: ClassVar[frozenset] = frozenset()

    scenario: object
    classified: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)
    causes_seen: Counter = field(default_factory=Counter)
    reconciliation: dict = field(default_factory=dict)

    def has_record(self, response) -> bool:
        """Whether a failover or degraded response explains itself."""
        raise NotImplementedError

    @property
    def total_requests(self) -> int:
        return sum(self.classified.values())

    def classify(self, response, label: str, expected=None) -> str:
        """File one response and return its bucket.  ``expected`` is the
        reference per-query answer the response must equal bit for bit,
        if any; ``label`` names the request in violation messages."""
        if response.cause:
            self.causes_seen[response.cause] += 1
        status, problem = response.status, None
        if status == "ok" and expected is not None and not np.array_equal(
                response.result.per_query, expected):
            bucket = "mismatch"
            problem = "diverged from the unloaded reference"
        elif status == "ok":
            if getattr(response, "failover_from", None) is not None:
                bucket = "failover"
            else:
                bucket = "served" if expected is None else "identical"
        elif status == "degraded":
            bucket = "degraded"
        elif status == "error":
            bucket = "typed_error"
            if response.error_type not in self.typed_errors:
                bucket = "untyped_error"
                problem = (f"failed with untyped {response.error_type}: "
                           f"{response.error}")
        else:
            bucket, problem = "unknown", f"ended in unknown status {status!r}"
        if (bucket in ("failover", "degraded")
                and not self.has_record(response)):
            bucket, problem = "mismatch", "carries no causal record"
        self.classified[bucket] += 1
        if problem:
            self.violations.append(f"{label} {problem}")
        return bucket

    def hung(self, label: str) -> None:
        self.classified["hung"] += 1
        self.violations.append(f"{label} HUNG past {HANG_TIMEOUT_S:g} s")

    def reconcile(self, books: dict) -> None:
        """Keep ``books`` ({key: {book: op sum}}); flag every key whose
        N sums disagree -- a charge leaked or went missing."""
        self.reconciliation = books
        self.violations.extend(
            f"op books for {key!r} do not reconcile: {sums}"
            for key, sums in books.items() if len(set(sums.values())) > 1
        )

    def assert_clean(self, layer: str) -> None:
        assert not self.violations, (
            f"{layer} invariant violated:\n  " + "\n  ".join(self.violations)
        )

    def summary(self) -> dict:
        return {
            "seed": self.scenario.seed,
            "requests": self.total_requests,
            "classified": dict(self.classified),
            "causes_seen": dict(self.causes_seen),
            "violations": list(self.violations),
            "reconciliation": {
                str(k): v for k, v in self.reconciliation.items()
            },
        }


def record_of(response) -> tuple[float, float, str]:
    """A just-received response as a :class:`ClosedLoop` record, timed
    by its own ``latency_s``; one served by a non-primary is
    ``failover``."""
    now = time.monotonic()
    status = response.status
    if status == "ok" and getattr(response, "failover_from", None):
        status = "failover"
    return (now - response.latency_s, now, status)


def percentiles(latencies_s: Iterable[float]) -> dict:
    """p50/p95/p99/mean/max of a latency list, in milliseconds."""
    ms = np.asarray(list(latencies_s), dtype=float) * 1e3
    if not ms.size:
        return dict.fromkeys(("p50", "p95", "p99", "mean", "max"), 0.0)
    stats = {f"p{q}": np.percentile(ms, q) for q in (50, 95, 99)}
    stats.update(mean=ms.mean(), max=ms.max())
    return {key: round(float(value), 3) for key, value in stats.items()}


class ClosedLoop:
    """Closed-loop clients and one optional operator over a fixed window.

    :meth:`run` calls each client again and again until the window
    closes; a call returns the records of the requests it made, or
    ``None`` to retire early.  The operator runs once in its own thread
    and sets marks with :meth:`mark`; ``run`` sets ``start`` and
    ``end`` itself and re-raises the first client or operator
    exception after every thread has joined.
    """

    def __init__(self) -> None:
        #: one (t_start, t_end, status) per request
        self.records: list[tuple[float, float, str]] = []
        self.marks: dict[str, float] = {}
        self._lock = threading.Lock()

    def mark(self, name: str) -> float:
        self.marks[name] = now = time.monotonic()
        return now

    def run(self, clients, duration_s: float, operator=None) -> ClosedLoop:
        stop_at = self.mark("start") + duration_s
        failures: list[BaseException] = []

        def client(step) -> None:
            while time.monotonic() < stop_at and (
                    records := step()) is not None:
                with self._lock:
                    self.records.extend(records)

        def guarded(target, *args) -> None:
            try:
                target(*args)
            except BaseException as error:  # re-raised below, after join
                failures.append(error)

        jobs = [(client, step) for step in clients]
        if operator is not None:
            jobs.append((operator,))
        threads = [threading.Thread(target=guarded, args=job, daemon=True)
                   for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.marks["end"] = max(
            (end for _, end, _ in self.records), default=time.monotonic()
        )
        if failures:
            raise failures[0]
        return self

    def counts(self) -> Counter:
        """Records per status over the whole run."""
        return Counter(status for _, _, status in self.records)

    def window(self, start: str, end: str) -> dict:
        """Summary of the requests wholly between two marks."""
        lo, hi = self.marks[start], self.marks[end]
        return _summary(
            [r for r in self.records if r[0] >= lo and r[1] <= hi], hi - lo
        )

    def straddling(self, start: str, end: str) -> dict:
        """Summary of the requests in flight at any time between two
        marks -- the ones a fence between them must absorb."""
        lo, hi = self.marks[start], self.marks[end]
        return _summary(
            [r for r in self.records if r[1] > lo and r[0] < hi], hi - lo
        )


def _summary(records: list, span_s: float) -> dict:
    resolved = [r for r in records if r[2] in RESOLVED]
    return {
        "resolved": len(resolved),
        "errors": sum(1 for r in resolved if r[2] == "error"),
        "throughput_rps": round(len(resolved) / max(span_s, 1e-9), 1),
        "latency_ms": percentiles(end - start for start, end, _ in resolved),
    }
