"""Spend tracking and enforcement for governed predictions.

A :class:`Governor` owns one :class:`~repro.runtime.budget.Budget` for
the whole lifetime of a prediction -- across every fallback attempt the
facade makes.  The phased predictors call :meth:`Governor.check` at the
same boundaries the crash checkpoints use (after the query-point reads,
after the dataset scan, per spill chunk, per lower-tree leaf), passing
their attempt-local ledger; the governor folds that into the running
total, attributes the delta to the current phase, and raises
:class:`~repro.errors.BudgetExceededError` or
:class:`~repro.errors.DeadlineExceededError` the moment a limit is
crossed.  The facade treats the raise as a downgrade signal and
continues along ``resampled -> cutoff -> mini -> closed-form``, so the
caller always gets *an* answer -- annotated with the spend report --
inside the budget's horizon.

Wall-clock checks use :func:`time.monotonic`, never :func:`time.time`:
a governed deadline must be immune to NTP slews and clock adjustments
(a wall clock stepping backwards would silently extend the deadline;
stepping forwards would spuriously kill a healthy prediction).

Checks read the ledger and the clock; they charge nothing and draw no
randomness, which is what makes an amply-budgeted governed run
bit-identical to an ungoverned one with an identical ledger.

Bookkeeping is lock-protected: the prediction service folds several
worker threads' spend into one per-tenant governor, and the
attempt/prior split plus the phase attribution are read-modify-write
sequences that would otherwise lose charged ops under interleaving.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..disk.accounting import IOCost
from ..errors import BudgetExceededError, DeadlineExceededError
from .budget import Budget

__all__ = ["Governor"]


class Governor:
    """Enforces one :class:`Budget` across a multi-attempt prediction.

    ``clock`` is injectable for tests and must be monotonic; the
    default is :func:`time.monotonic`.
    """

    def __init__(
        self,
        budget: Budget,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget
        self._clock = clock
        self._start = clock()
        self._lock = threading.RLock()
        #: charged ops of finished attempts (fallbacks already taken)
        self._prior_ops = 0
        #: charged ops of the attempt currently running
        self._attempt_ops = 0
        self._last_total = 0
        #: cumulative charged ops attributed per prediction phase
        self.phase_spend: dict[str, int] = {}
        #: sample bytes currently admitted
        self.sample_bytes = 0
        #: the first exhaustion event, recorded for the spend report
        self.trip: dict | None = None

    # ------------------------------------------------------------------
    # Observed spend
    # ------------------------------------------------------------------

    @property
    def spent_ops(self) -> int:
        """Charged I/O ops across all attempts so far."""
        return self._prior_ops + self._attempt_ops

    def elapsed(self) -> float:
        """Monotonic seconds since the governor was created."""
        return self._clock() - self._start

    def remaining_ops(self) -> int | None:
        if self.budget.max_io_ops is None:
            return None
        return max(0, self.budget.max_io_ops - self.spent_ops)

    def remaining_seconds(self) -> float | None:
        if self.budget.max_seconds is None:
            return None
        return max(0.0, self.budget.max_seconds - self.elapsed())

    # ------------------------------------------------------------------
    # Boundary checks
    # ------------------------------------------------------------------

    def observe(self, phase: str, attempt_cost: IOCost | None = None) -> None:
        """Record spend without enforcing: update totals and attribute
        the delta since the last boundary to ``phase``.

        ``attempt_cost`` is the cumulative ledger of the *current*
        attempt (the predictors already track ``disk.cost - start``);
        ``None`` touches only the bookkeeping.
        """
        with self._lock:
            if attempt_cost is not None:
                self._attempt_ops = Budget.io_ops(attempt_cost)
            total = self.spent_ops
            if total != self._last_total:
                self.phase_spend[phase] = (
                    self.phase_spend.get(phase, 0) + total - self._last_total
                )
                self._last_total = total

    def check(self, phase: str, attempt_cost: IOCost | None = None) -> None:
        """One boundary check: record spend, raise if a limit is crossed.

        ``attempt_cost`` is the cumulative ledger of the *current*
        attempt (the predictors already track ``disk.cost - start``);
        ``None`` re-checks time and totals without new I/O (used before
        admitting a fallback attempt).  Limits trip strictly: a budget
        equal to the exact spend of a full run never fires, so an ample
        budget is provably zero-interference.
        """
        self.observe(phase, attempt_cost)
        total = self.spent_ops
        budget = self.budget
        elapsed = self.elapsed()
        if budget.max_seconds is not None and elapsed > budget.max_seconds:
            error = DeadlineExceededError(
                elapsed, budget.max_seconds, phase=phase
            )
            self._record_trip(error)
            raise error
        if budget.max_io_ops is not None and total > budget.max_io_ops:
            error = BudgetExceededError(
                "io_ops", total, budget.max_io_ops, phase=phase
            )
            self._record_trip(error)
            raise error

    def check_deadline(self, phase: str) -> None:
        """Enforce only the wall-clock limit.

        Admission uses this instead of :meth:`check`: a method that
        charges no I/O (mini, closed-form) can never overspend the op
        budget, so an already-tripped op total must not bar it -- that
        would forfeit a better anytime answer for free.  A passed
        deadline *does* bar it: the caller wants an answer now, and
        only the closed-form baseline is instant.
        """
        elapsed = self.elapsed()
        limit = self.budget.max_seconds
        if limit is not None and elapsed > limit:
            error = DeadlineExceededError(elapsed, limit, phase=phase)
            self._record_trip(error)
            raise error

    def require_ops(self, min_ops: int, *, phase: str) -> None:
        """Refuse an attempt whose cheapest possible execution cannot fit.

        ``min_ops`` is a *lower bound* on the charged operations the
        attempt must spend (query reads plus one full scan for the
        phased methods).  Raising here is the mid-flight downgrade that
        keeps the facade from burning a scan it already knows it cannot
        afford; under-estimating merely admits an attempt that the
        per-phase checks will stop later, so callers should bound
        conservatively.
        """
        remaining = self.remaining_ops()
        if remaining is not None and min_ops > remaining:
            error = BudgetExceededError(
                "io_ops",
                self.spent_ops + min_ops,
                self.budget.max_io_ops,
                phase=phase,
            )
            self._record_trip(error)
            raise error

    def admit_sample(
        self, n_points: int, dim: int, *, phase: str = "sample"
    ) -> None:
        """Admit ``n_points`` float64 sample points against the byte cap.

        Called before a method materializes a sample; raises
        :class:`~repro.errors.BudgetExceededError` (resource
        ``"sample_bytes"``) when the sample would not fit, *before* any
        scan I/O is spent collecting it.
        """
        nbytes = n_points * dim * 8
        limit = self.budget.max_sample_bytes
        with self._lock:
            if limit is not None and self.sample_bytes + nbytes > limit:
                error = BudgetExceededError(
                    "sample_bytes", self.sample_bytes + nbytes, limit,
                    phase=phase,
                )
                self._record_trip(error)
                raise error
            self.sample_bytes += nbytes

    def end_attempt(self) -> None:
        """Fold the current attempt's spend into the cross-attempt total.

        The facade calls this when an attempt finishes (successfully or
        not) so the next fallback's ledger starts from zero while the
        governed total keeps every op ever charged.  The attempt's
        admitted sample bytes are released: only one attempt's sample is
        ever live at a time, so the byte cap governs peak, not
        cumulative, sample memory.
        """
        with self._lock:
            self._prior_ops += self._attempt_ops
            self._attempt_ops = 0
            self.sample_bytes = 0

    def _record_trip(self, error: BudgetExceededError) -> None:
        with self._lock:
            if self.trip is not None:
                return
            self.trip = {
                "error": type(error).__name__,
                "resource": error.resource,
                "spent": error.spent,
                "limit": error.limit,
                "phase": error.phase,
            }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """The spend report attached to every governed result.

        ``within_budget`` is the anytime annotation the acceptance
        criteria require: ``False`` whenever the final totals stand
        above a limit -- a governed result is never silently over
        budget.  An admission-denied attempt (``require_ops`` or
        ``admit_sample`` refusing up front) leaves ``within_budget``
        ``True``: the governor *prevented* the overspend; the event
        itself stays visible in ``exhausted`` and in the facade's
        degradation record.
        """
        budget = self.budget
        elapsed = self.elapsed()
        over = False
        if budget.max_io_ops is not None and self.spent_ops > budget.max_io_ops:
            over = True
        if budget.max_seconds is not None and elapsed > budget.max_seconds:
            over = True
        return {
            "max_io_ops": budget.max_io_ops,
            "max_seconds": budget.max_seconds,
            "max_sample_bytes": budget.max_sample_bytes,
            "spent_io_ops": self.spent_ops,
            "elapsed_s": elapsed,
            "sample_bytes": self.sample_bytes,
            "remaining_io_ops": self.remaining_ops(),
            "remaining_s": self.remaining_seconds(),
            "phase_spend": dict(self.phase_spend),
            "within_budget": not over,
            "exhausted": dict(self.trip) if self.trip else None,
        }
