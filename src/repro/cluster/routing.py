"""Failure-aware routing: cost-ordered candidates, breakers, hedging.

The router owns the request path of the cluster.  For each shard the
:class:`RoutingTable` lists the owning replicas ordered by predicted
cost (the shard's tuned per-query seconds times each owner's latency
factor -- the cost oracle built at cluster construction).  A dispatch
walks that order, skipping candidates the health probe or the
per-replica circuit breaker rules out, and records *why* each skipped
or failed candidate was passed over -- the ``tried`` list is the causal
record a failover response carries.

Two failure modes get special handling:

* **slow primary** -- after ``hedge_after_s`` without a verdict the
  dispatch moves on to the next candidate *without abandoning the
  first*: the outstanding leg keeps running (a submitted request always
  resolves and always settles its ledger), and whichever leg finishes
  first with a usable verdict is served.  Loser legs are retained on
  the response, and the router folds every leg into its per-epoch op
  book once it resolves (:meth:`Router.drain` waits for the rest), so
  reconciliation accounts for every charged op including hedged losers.
* **every owner down** -- with ``degrade=True`` and a fallback
  installed, the router serves an explicitly *degraded* closed-form
  answer (``method_used="closed_form"``, ``cause="unavailable"``);
  otherwise the response is a typed
  :class:`~repro.errors.ReplicaUnavailableError` carrying the full
  ``tried`` record.  Either way the request terminates -- the no-hang
  invariant extends cluster-wide.

The table is deliberately allowed to go stale (chaos keeps routing to
a killed replica on purpose): an entry naming a dead or unknown replica
costs one recorded skip, never a hang or an untyped error.

**Epoch fencing.**  Topology changes (scale-out/in, shard splits)
publish a whole new table under a strictly larger ``epoch``.  A
dispatch snapshots the table once, tags every leg it submits with the
snapshot's epoch, and -- when the caller pins an ``epoch=`` -- is
refused with a typed :class:`~repro.errors.StaleRoutingEpochError` if
the pin no longer matches the live table.  In-flight legs admitted
under the old epoch keep running to completion (nothing already
submitted is dropped), and :meth:`Router.epoch_ops` reconciles the
charged ops of the two-epoch overlap window exactly: summed across
epochs it equals :meth:`Router.drain` to the op.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..core.counting import PredictionResult
from ..errors import (
    CircuitOpenError,
    InputValidationError,
    ReplicaUnavailableError,
    ReproError,
    StaleRoutingEpochError,
)
from ..runtime.breaker import CircuitBreaker
from ..service.server import PendingPrediction, ServiceResponse
from ..workload.queries import KNNWorkload, RangeWorkload
from .replicas import Replica

__all__ = ["ClusterResponse", "Router", "RoutingTable"]

#: how long drain() waits on any single outstanding leg; the service
#: no-hang guarantee makes expiry here a bug, not a slow request
_DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RoutingTable:
    """Versioned shard -> owners map, owners ordered cheapest first.

    ``costs`` keeps the oracle's prediction per (shard, owner) so the
    ordering is auditable.  Tables are immutable; a topology change
    installs a new table with a bumped ``version`` (responses record
    the version that routed them, so staleness is diagnosable).

    ``epoch`` is the fencing token: it moves strictly forward on every
    *topology* change (membership or shard-set changes), while
    ``version`` counts every install (a cost refresh may bump the
    version inside one epoch).  Dispatches pinned to an old epoch are
    refused with a typed error; legs are tagged with the epoch that
    admitted them so the handoff window reconciles exactly.
    """

    version: int
    owners: dict[int, tuple[str, ...]]
    costs: dict[int, dict[str, float]]
    epoch: int = 1

    def owners_of(self, shard: int) -> tuple[str, ...]:
        return self.owners.get(shard, ())

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "epoch": self.epoch,
            "owners": {s: list(o) for s, o in sorted(self.owners.items())},
            "costs": {
                s: {n: round(c, 6) for n, c in costs.items()}
                for s, costs in sorted(self.costs.items())
            },
        }


class _Leg:
    """One submitted attempt of one cluster request."""

    def __init__(self, replica: str, shard: int, pending: PendingPrediction,
                 epoch: int = 0):
        self.replica = replica
        self.shard = shard
        self.pending = pending
        self.epoch = epoch
        self._response: ServiceResponse | None = None

    def wait(self, timeout: float | None) -> ServiceResponse:
        if self._response is None:
            self._response = self.pending.result(timeout)
        return self._response

    def done(self) -> bool:
        return self.pending.done()


@dataclass
class ClusterResponse:
    """The terminal verdict of one routed request.

    ``status`` mirrors the service (``ok`` / ``degraded`` / ``error``);
    a closed-form fallback served because every owner was down is
    ``degraded`` with ``method_used="closed_form"`` and
    ``cause="unavailable"``.  ``served_by`` names the replica whose leg
    won (``None`` for fallback/error verdicts); ``failover_from`` names
    the primary owner when someone else served, and ``tried`` is the
    causal record of every candidate passed over -- ``(name, reason)``
    pairs.  ``legs`` holds every submitted attempt, winners and hedged
    losers alike, so :meth:`charged_ops` can sum the request's *whole*
    charged footprint once the router has drained.
    """

    shard: int
    request_id: int
    status: str
    result: PredictionResult | None = None
    method_requested: str = "warm"
    method_used: str | None = None
    served_by: str | None = None
    failover_from: str | None = None
    hedged: bool = False
    tried: list = field(default_factory=list)
    cause: str | None = None
    error: str | None = None
    error_type: str | None = None
    routing_version: int = 0
    routing_epoch: int = 0
    latency_s: float = 0.0
    legs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def charged_ops(self) -> int:
        """Charged ops across every leg of this request (call after
        :meth:`Router.drain`; an unresolved leg blocks briefly)."""
        return sum(
            leg.wait(_DRAIN_TIMEOUT_S).io_ops for leg in self.legs
        )


class Router:
    """Cost-ordered, breaker-guarded, hedging dispatcher."""

    def __init__(
        self,
        replicas: dict[str, Replica],
        table: RoutingTable,
        *,
        hedge_after_s: float = 0.05,
        request_timeout_s: float = 30.0,
        degraded_fallback: Callable[
            [int, KNNWorkload | RangeWorkload], PredictionResult
        ] | None = None,
        breaker_cooldown_s: float = 0.2,
    ):
        self.replicas = replicas
        self.table = table
        self.hedge_after_s = hedge_after_s
        self.request_timeout_s = request_timeout_s
        self.degraded_fallback = degraded_fallback
        self._breaker_cooldown_s = breaker_cooldown_s
        # Breakers are per (replica, shard) -- the granularity at which
        # failures actually happen (a tenant on a faulty path).  A
        # replica erroring on one shard must not lose its standing as
        # another shard's failover target, or a single fault could
        # defeat the single-kill availability guarantee.
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._ids = itertools.count(1)
        #: submitted legs not yet folded into ``_books``
        self._outstanding: set[_Leg] = set()
        #: charged ops of every settled leg, per (epoch, shard)
        self._books: dict[int, Counter] = {}
        self._lock = threading.Lock()
        #: lifetime counters
        self.dispatches = 0
        self.failovers = 0
        self.hedges = 0
        self.degraded_served = 0
        self.unavailable = 0
        self.table_installs = 0
        self.stale_rejections = 0
        self.legs = 0

    # ------------------------------------------------------------------

    def install_table(self, table: RoutingTable) -> None:
        """Publish a new table; the epoch may only move forward.

        Same-epoch installs with a fresh version are allowed (a cost
        refresh is not a topology change), but an epoch or a
        same-epoch version *regression* would re-admit a topology the
        cluster already fenced off -- that is a caller bug, refused
        with a typed error.
        """
        with self._lock:
            current = self.table
            if table.epoch < current.epoch or (
                table.epoch == current.epoch
                and table.version < current.version
            ):
                raise InputValidationError(
                    f"routing table regression: refusing epoch "
                    f"{table.epoch} v{table.version} over installed "
                    f"epoch {current.epoch} v{current.version}"
                )
            self.table = table
            self.table_installs += 1

    def breaker_for(self, name: str, shard: int) -> CircuitBreaker:
        with self._lock:
            key = (name, shard)
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=0.5, window=8, min_calls=2,
                    cooldown_s=self._breaker_cooldown_s,
                )
                self._breakers[key] = breaker
            return breaker

    def reset_breakers(self, name: str) -> None:
        """Force-close every breaker of one replica (it restarted)."""
        with self._lock:
            breakers = [
                b for (n, _), b in self._breakers.items() if n == name
            ]
        for breaker in breakers:
            breaker.reset()

    def _breaker_states(self) -> dict[str, str]:
        """Caller holds ``self._lock``."""
        return {
            f"{name}/shard-{shard}": breaker.state
            for (name, shard), breaker in sorted(self._breakers.items())
        }

    def probe(self) -> dict:
        """Health snapshot the routing decisions are based on."""
        with self._lock:
            states = self._breaker_states()
        return {
            "replicas": {
                name: replica.healthy()
                for name, replica in self.replicas.items()
            },
            "breakers": states,
        }

    # ------------------------------------------------------------------

    def dispatch(
        self,
        shard: int,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str = "warm",
        seed: int = 0,
        degrade: bool = True,
        epoch: int | None = None,
    ) -> ClusterResponse:
        """Route one request; always returns a terminal verdict.

        ``epoch`` pins the dispatch to a routing epoch the caller read
        earlier: if a topology change has moved the table past it, the
        request is refused with a typed
        :class:`~repro.errors.StaleRoutingEpochError` *before* any leg
        is submitted -- a stale router must re-read and retry, never
        dispatch against a ghost topology.  ``None`` (the default)
        accepts whatever table is live.  The table is snapshotted once
        per dispatch, so a concurrent install cannot split one request
        across two topologies.
        """
        started = time.monotonic()
        deadline = started + self.request_timeout_s
        request_id = next(self._ids)
        with self._lock:
            table = self.table
            if epoch is not None and epoch != table.epoch:
                self.stale_rejections += 1
                raise StaleRoutingEpochError(shard, epoch, table.epoch)
            self.dispatches += 1
        owners = table.owners_of(shard)
        tried: list[tuple[str, str]] = []
        legs: list[_Leg] = []
        slow: list[_Leg] = []
        hedged = False

        def respond(status: str, **fields) -> ClusterResponse:
            return ClusterResponse(
                shard=shard, request_id=request_id, status=status,
                method_requested=method, hedged=hedged, tried=list(tried),
                routing_version=table.version, routing_epoch=table.epoch,
                latency_s=time.monotonic() - started, legs=list(legs),
                **fields,
            )

        def verdict_of(leg: _Leg, response: ServiceResponse
                       ) -> ClusterResponse | None:
            """A usable verdict wins; an error response feeds the
            breaker and the tried record, and the walk continues."""
            self._fold([leg])
            if response.status == "error":
                self.breaker_for(leg.replica, shard).record_failure()
                tried.append((leg.replica, f"error:{response.error_type}"))
                return None
            self.breaker_for(leg.replica, shard).record_success()
            primary = owners[0] if owners else None
            failover_from = (primary if leg.replica != primary else None)
            if failover_from is not None:
                with self._lock:
                    self.failovers += 1
            return respond(
                response.status,
                result=response.result,
                method_used=response.method_used,
                served_by=leg.replica,
                failover_from=failover_from,
                cause=response.cause,
            )

        # --- phase 1: walk the cost order, hedging past slow legs -----
        for name in owners:
            replica = self.replicas.get(name)
            if replica is None or replica.service is None:
                # Stale table entry: the name is unknown, or the
                # replica was retired by a scale-in after the table
                # snapshot -- either way a recorded skip, not a crash.
                tried.append((name, "unknown"))
                continue
            if not replica.healthy():
                tried.append((name, "down"))
                continue
            breaker = self.breaker_for(name, shard)
            try:
                breaker.before_attempt()
            except CircuitOpenError:
                tried.append((name, "circuit-open"))
                continue
            try:
                pending = replica.submit(
                    shard, workload, method=method, seed=seed
                )
            except ReproError as error:
                if replica.service is None or replica.down:
                    # Lost the race against a removal/kill between the
                    # health probe and the submit: same ghost-skip
                    # verdict as a stale entry, and no breaker penalty
                    # -- the replica is gone, not misbehaving.
                    tried.append((name, "down"))
                    continue
                breaker.record_failure()
                tried.append((name, type(error).__name__))
                continue
            leg = _Leg(name, shard, pending, epoch=table.epoch)
            legs.append(leg)
            self._track(leg)
            try:
                response = leg.wait(
                    min(self.hedge_after_s, max(0.0, deadline - time.monotonic()))
                )
            except TimeoutError:
                # Slow leg: hedge to the next candidate, leave this one
                # running -- it may still win in phase 2.
                tried.append((name, "slow"))
                slow.append(leg)
                hedged = True
                with self._lock:
                    self.hedges += 1
                continue
            won = verdict_of(leg, response)
            if won is not None:
                return won

        # --- phase 2: wait out the hedged legs until the deadline -----
        # (a leg judged in phase 1 is never judged again: its failure
        # is already on the breaker and in the tried record)
        while slow and time.monotonic() < deadline:
            for leg in [leg for leg in slow if leg.done()]:
                slow.remove(leg)
                won = verdict_of(leg, leg.wait(0.0))
                if won is not None:
                    return won
            if slow:
                time.sleep(0.002)

        # --- no leg produced a verdict: degrade or fail, typed --------
        error = ReplicaUnavailableError(shard, tried)
        unavailable = dict(cause="unavailable", error=str(error),
                           error_type=type(error).__name__)
        if (degrade and self.degraded_fallback is not None):
            result = self.degraded_fallback(shard, workload)
            with self._lock:
                self.degraded_served += 1
            return respond(
                "degraded", result=result, method_used="closed_form",
                **unavailable,
            )
        with self._lock:
            self.unavailable += 1
        return respond("error", **unavailable)

    # ------------------------------------------------------------------

    def _track(self, leg: _Leg) -> None:
        """Count a new leg; fold every earlier one resolved since (a
        hedged loser resolves after its request returned)."""
        with self._lock:
            self.legs += 1
            resolved = [old for old in self._outstanding if old.done()]
            self._outstanding.add(leg)
        self._fold(resolved)

    def _fold(self, legs, timeout_s: float = _DRAIN_TIMEOUT_S) -> None:
        """Fold each leg's charge into the book once, then drop it."""
        for leg in legs:
            ops = leg.wait(timeout_s).io_ops
            with self._lock:
                if leg in self._outstanding:
                    self._outstanding.remove(leg)
                    book = self._books.setdefault(leg.epoch, Counter())
                    book[leg.shard] += ops

    def drain(self, *, timeout_s: float = _DRAIN_TIMEOUT_S) -> Counter:
        """Resolve every outstanding leg; per-shard charged-op sums over
        every leg ever submitted.

        Hedged loser legs keep running after their request was served;
        reconciliation is only exact once they have all settled.  The
        per-leg timeout leans on the service no-hang guarantee -- an
        expiry raises :class:`TimeoutError` and *is* a violation.
        """
        shard_ops: Counter = Counter()
        for book in self.epoch_ops(timeout_s=timeout_s).values():
            shard_ops.update(book)
        return shard_ops

    def epoch_ops(
        self, *, timeout_s: float = _DRAIN_TIMEOUT_S
    ) -> dict[int, Counter]:
        """Charged ops per (routing epoch, shard) over every leg ever.

        Every leg is tagged with the epoch of the table snapshot that
        admitted it, so the two-epoch overlap window of a topology
        handoff is *exactly* attributable: summed across epochs these
        books equal :meth:`drain` per shard to the op -- a charge that
        straddled the fence lands in the epoch that submitted it, once,
        never dropped, never double-counted.
        """
        with self._lock:
            legs = list(self._outstanding)
        self._fold(legs, timeout_s)
        with self._lock:
            return {
                epoch: Counter(book) for epoch, book in self._books.items()
            }

    def in_flight(self) -> int:
        """Legs submitted but not yet resolved.

        The controller's tick records this gauge so a surgery decision
        is attributable to the load it was made under.
        """
        with self._lock:
            return sum(1 for leg in self._outstanding if not leg.done())

    def metrics(self) -> dict:
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "failovers": self.failovers,
                "hedges": self.hedges,
                "degraded_served": self.degraded_served,
                "unavailable": self.unavailable,
                "table_installs": self.table_installs,
                "stale_rejections": self.stale_rejections,
                "legs": self.legs,
                "routing_epoch": self.table.epoch,
                "routing_version": self.table.version,
                "breakers": self._breaker_states(),
            }
