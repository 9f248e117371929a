"""Per-tenant quotas, ledgers, and isolation primitives.

Multi-tenancy here means *isolation by accounting*: every tenant owns
its quota, its charged-op ledger, and its circuit breaker, and every
admission decision reads only that tenant's state.  A tenant that
floods the service is refused at its own quota
(:class:`~repro.errors.TenantQuotaExceededError`) while its neighbours'
admissions are untouched; a tenant whose dataset sits on a failing disk
trips its own breaker without poisoning anyone else's fast path.

The ledger is the reconciliation anchor: the sum of charged I/O ops
over a tenant's responses must equal the ops folded into the tenant's
:class:`~repro.runtime.governor.Governor` -- the service chaos harness
asserts exactly this, so cross-tenant budget leakage is a test failure,
not a production surprise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import InputValidationError, TenantQuotaExceededError
from ..runtime.breaker import CircuitBreaker
from ..runtime.budget import Budget
from ..runtime.governor import Governor

__all__ = ["TenantQuota", "TenantLedger"]


@dataclass(frozen=True)
class TenantQuota:
    """What one tenant may consume, enforced at admission.

    ``max_inflight`` caps this tenant's concurrently admitted requests
    (queued plus executing); ``max_io_ops`` is a *lifetime* charged-op
    allowance across all of the tenant's requests (``None``:
    unmetered); ``deadline_s`` is the default per-request deadline
    (``None``: requests run without one unless they ask);
    ``max_retries`` / ``backoff_s`` shape the request-level retry loop.
    """

    max_inflight: int = 4
    max_io_ops: int | None = None
    deadline_s: float | None = None
    max_retries: int = 0
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise InputValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_io_ops is not None and self.max_io_ops < 0:
            raise InputValidationError(
                f"max_io_ops must be non-negative, got {self.max_io_ops}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise InputValidationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.max_retries < 0 or self.backoff_s < 0:
            raise InputValidationError(
                "max_retries and backoff_s must be non-negative"
            )


class TenantLedger:
    """One tenant's live accounting: slots, ops, breaker, counters.

    Thread-safe by construction -- admission and release are called
    from the submitting thread, spend folding from worker threads.
    The governor enforces the lifetime op allowance (its budget is the
    quota's ``max_io_ops``); ``charged_ops`` mirrors the same total as
    a plain sum over responses so the two can be reconciled
    independently.
    """

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.governor = Governor(Budget(max_io_ops=quota.max_io_ops))
        self.breaker = CircuitBreaker()
        self._lock = threading.Lock()
        self._inflight = 0
        #: charged ops summed over finished responses (reconciliation)
        self.charged_ops = 0
        #: admission / outcome counters
        self.submitted = 0
        self.refused_quota = 0
        self.completed = 0
        self.degraded = 0
        self.errors = 0

    # ------------------------------------------------------------------

    def remaining_ops(self) -> int | None:
        return self.governor.remaining_ops()

    def admit(self) -> None:
        """Take one in-flight slot, or refuse with the typed error.

        Checks are strictly per-tenant: the in-flight cap and the
        lifetime op allowance.  Refusal costs nothing and releases
        nothing.
        """
        with self._lock:
            if self._inflight >= self.quota.max_inflight:
                self.refused_quota += 1
                raise TenantQuotaExceededError(
                    self.name, "inflight",
                    self._inflight + 1, self.quota.max_inflight,
                )
            remaining = self.governor.remaining_ops()
            if remaining is not None and remaining <= 0:
                self.refused_quota += 1
                raise TenantQuotaExceededError(
                    self.name, "io_ops",
                    self.governor.spent_ops, self.quota.max_io_ops,
                )
            self._inflight += 1
            self.submitted += 1

    def release(self) -> None:
        """Return the in-flight slot taken by :meth:`admit`."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def settle(self, io_ops: int, status: str) -> None:
        """Fold one finished request's spend and verdict into the books.

        ``io_ops`` is the request's charged total (whatever the
        response reports -- the reconciliation invariant is that these
        sums match the governor's).  ``status`` is the response status
        (``"ok"`` / ``"degraded"`` / ``"error"``).
        """
        from ..disk.accounting import IOCost

        with self._lock:
            # observe/end_attempt is a set-then-fold pair on the
            # governor's attempt slot; two workers interleaving it
            # would overwrite each other's charge, so the ledger lock
            # serializes the whole settle.
            self.governor.observe(
                "request", IOCost(seeks=0, transfers=io_ops)
            )
            self.governor.end_attempt()
            self.charged_ops += io_ops
            if status == "ok":
                self.completed += 1
            elif status == "degraded":
                self.degraded += 1
            else:
                self.errors += 1

    def snapshot(self) -> dict:
        """The tenant's books as one dict (responses, CLI tables)."""
        with self._lock:
            return {
                "tenant": self.name,
                "inflight": self._inflight,
                "submitted": self.submitted,
                "completed": self.completed,
                "degraded": self.degraded,
                "errors": self.errors,
                "refused_quota": self.refused_quota,
                "charged_ops": self.charged_ops,
                "governor_ops": self.governor.spent_ops,
                "remaining_ops": self.governor.remaining_ops(),
                "breaker_state": self.breaker.state,
            }
