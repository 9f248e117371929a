"""The mechanism the service and cluster storm harnesses share: one
response classifier and N-way book reconciler (:class:`StormOutcome`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["HANG_TIMEOUT_S", "StormOutcome"]

#: how long any one response may take before a storm calls it hung
HANG_TIMEOUT_S = 30.0


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
