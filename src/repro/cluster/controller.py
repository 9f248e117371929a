"""Autonomous topology controller: the policy loop over the mechanics.

:mod:`.elasticity` gives the cluster *mechanisms* -- epoch-fenced
split, merge, and drift re-tune, all admitted against a governed reorg
budget -- but leaves the *policy* to a human: someone has to watch the
drift detector, notice a cost divergence, and call the surgery by
hand.  :class:`TopologyController` closes that loop.  Each controller
epoch (one :meth:`~TopologyController.tick`, driven by a background
thread in production or called directly in tests) it consults the
three detectors and schedules at most one surgery:

* :meth:`DriftDetector.proposals` -- shards whose live queries walked
  away from their frozen centroid (fires a governed re-tune on a
  workload synthesized from the drifted queries);
* :meth:`TopologyManager.split_candidates` -- shards whose tuned cost
  diverges above ``split_when`` times the sibling median;
* :meth:`TopologyManager.merge_candidates` -- sibling pairs whose
  combined tuned cost stays under ``merge_when`` times the sibling
  median, so sustained load decay shrinks the topology again.

Deciding *when not to act* is the hard part, so every decision passes
a hysteresis gauntlet first:

* **dwell window** -- a merge pair must persist as a candidate for
  ``dwell_epochs`` consecutive ticks before it may fire; one cheap
  tuning snapshot is not a trend.
* **cool-down epochs** -- a shard born of any surgery may not be
  operated on again for ``cooldown_epochs`` ticks.
* **no-flap rule** -- a shard born of a split may not merge, and a
  shard born of a merge may not split, within ``dwell_epochs`` of its
  birth.  Vetoes are counted (``flap_vetoes``); an actual violation
  would increment ``flaps``, which therefore *proves* the rule held
  when it reads zero.  Births are absorbed from the topology event
  log, so manual surgeries performed around the controller are
  tracked too.
* **priority** -- drift re-tune beats split beats merge: a shard
  serving the wrong workload is worse than an expensive one, and
  growing capacity beats shrinking it.
* **one surgery in flight** -- ticks are serialized and each fires at
  most one reorganization; admission is charged before surgery (the
  PR 8 invariant), so a :class:`~repro.errors.BudgetExceededError`
  or a refused merge leaves the routing table untouched and is
  recorded as a refusal, never retried blindly within the tick.

The clock is injectable and the tick deterministic, so the unit suite
drives the whole policy without a single wall-clock sleep.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable

from ..errors import (
    BudgetExceededError,
    InputValidationError,
    PredictionError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import PredictionCluster

__all__ = ["TopologyController"]

#: surgery kinds in firing priority order
_PRIORITY = ("re-tune", "split", "merge")


class TopologyController:
    """Hysteresis-governed rebalancing loop for one cluster.

    Construct via :meth:`PredictionCluster.start_controller` (which
    also starts the background thread) or directly for deterministic
    tests -- :meth:`tick` is the whole loop body and never sleeps.
    """

    def __init__(
        self,
        cluster: "PredictionCluster",
        *,
        interval_s: float = 1.0,
        dwell_epochs: int = 3,
        cooldown_epochs: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval_s <= 0:
            raise InputValidationError(
                f"controller interval_s must be positive, got {interval_s}"
            )
        if dwell_epochs < 1:
            raise InputValidationError(
                f"dwell_epochs must be >= 1 (a zero dwell disables the "
                f"anti-flap hysteresis entirely), got {dwell_epochs}"
            )
        if cooldown_epochs < 0:
            raise InputValidationError(
                f"cooldown_epochs must be >= 0, got {cooldown_epochs}"
            )
        self.cluster = cluster
        self.topology = cluster.topology
        self.interval_s = interval_s
        self.dwell_epochs = int(dwell_epochs)
        self.cooldown_epochs = int(cooldown_epochs)
        self.clock = clock
        #: controller epochs == completed ticks
        self.epoch = 0
        self.events: list[dict] = []
        self.counters: Counter = Counter()
        #: actual no-flap violations -- stays 0 unless the veto failed
        self.flaps = 0
        #: shard -> (birth op, controller epoch first seen)
        self._born: dict[int, tuple[str, int]] = {}
        #: shard -> first controller epoch it may be operated on again
        self._cooldown_until: dict[int, int] = {}
        #: merge pair -> consecutive ticks it has been a candidate
        self._dwell: dict[tuple[int, int], int] = {}
        self._seen_topology_events = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TopologyController":
        """Start the background loop.  Idempotent."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="topology-controller", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background loop and join it.  Idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=30.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception as error:  # noqa: BLE001 - loop must survive
                # The loop never dies silently: an unexpected error is
                # recorded and the next tick runs -- a wedged cluster
                # still wants split/merge decisions on the healthy part.
                with self._lock:
                    self.counters["tick_errors"] += 1
                    self.events.append({
                        "tick": self.epoch,
                        "at": round(self.clock(), 6),
                        "action": "error",
                        "error": type(error).__name__,
                        "detail": str(error),
                    })

    # ------------------------------------------------------------------
    # Hysteresis state
    # ------------------------------------------------------------------

    def _absorb_topology_events(self) -> None:
        """Fold new topology events into birth/cool-down books.

        Every surgery -- the controller's own *and* any performed
        manually through the :class:`TopologyManager` -- appends an
        event with its successor shards; absorbing them here anchors
        each successor's birth at the current controller epoch, which
        is what the no-flap rule and cool-downs measure against.
        """
        events = self.topology.events
        for event in events[self._seen_topology_events:]:
            for child in event.get("children", ()):
                child = int(child)
                self._born.setdefault(child, (event["op"], self.epoch))
                until = self.epoch + self.cooldown_epochs
                if self._cooldown_until.get(child, -1) < until:
                    self._cooldown_until[child] = until
        self._seen_topology_events = len(events)
        active = set(self.cluster.active_shards())
        for pair in list(self._dwell):
            if not set(pair) <= active:
                del self._dwell[pair]

    def _cooling(self, shard: int) -> bool:
        return self.epoch < self._cooldown_until.get(shard, 0)

    def _flap_veto(self, shard: int, op: str) -> bool:
        """Would ``op`` invert the shard's birth within the dwell window?"""
        born = self._born.get(shard)
        if born is None:
            return False
        birth_op, birth_epoch = born
        inverse_birth = {"merge": "split", "split": "merge"}.get(op)
        return (
            birth_op == inverse_birth
            and (self.epoch - birth_epoch) < self.dwell_epochs
        )

    # ------------------------------------------------------------------
    # The loop body
    # ------------------------------------------------------------------

    def tick(self) -> dict:
        """One controller epoch: observe, filter, fire at most once.

        Returns the tick record (also appended to :attr:`events`):
        ``action`` is ``"idle"``, a fired surgery kind, or
        ``"refused:<kind>"`` when admission or the merge re-trip guard
        said no -- the routing table is untouched in that case.
        """
        if not self._lock.acquire(blocking=False):
            # Another tick is mid-flight (possibly mid-surgery): skip
            # this one entirely rather than queueing a second surgery
            # behind it -- at most one surgery is ever in flight, and
            # a delayed decision is re-derived fresh next tick anyway.
            record = {
                "tick": self.epoch,
                "at": round(self.clock(), 6),
                "action": "skip:surgery-in-flight",
            }
            self.counters["busy_skips"] += 1
            self.events.append(record)
            return record
        try:
            self.epoch += 1
            self.counters["ticks"] += 1
            record = {
                "tick": self.epoch,
                "at": round(self.clock(), 6),
                "action": "idle",
                "in_flight": self.cluster.router.in_flight(),
            }
            self._absorb_topology_events()

            # The merge dwell book ticks every epoch, fired or not: a
            # pair must be a candidate *this* tick and the dwell_epochs
            # before it; disappearing resets its clock to zero.
            merge_cands = self.topology.merge_candidates()
            current = {tuple(c["pair"]) for c in merge_cands}
            for pair in list(self._dwell):
                if pair not in current:
                    del self._dwell[pair]
            for pair in current:
                self._dwell[pair] = self._dwell.get(pair, 0) + 1

            decision = self._decide(merge_cands)
            if decision is not None:
                kind, info, thunk = decision
                self._fire(record, kind, info, thunk)
            self.events.append(record)
            return record
        finally:
            self._lock.release()

    def _decide(self, merge_cands: list[dict]):
        """First actionable surgery in priority order, post-hysteresis."""
        topology = self.topology
        for proposal in topology.drift.proposals():
            shard = proposal.shard
            if self._cooling(shard):
                self.counters["cooldown_vetoes"] += 1
                continue
            workload = topology._drift_workload(shard)
            center = topology.drift.live_center(shard)
            return (
                "re-tune",
                {"shard": shard, "drift": round(proposal.drift, 4)},
                lambda s=shard, w=workload, c=center: (
                    topology.re_tune_shard(s, workload=w, center=c)
                ),
            )
        for candidate in topology.split_candidates():
            shard = candidate["shard"]
            if self._cooling(shard):
                self.counters["cooldown_vetoes"] += 1
                continue
            if self._flap_veto(shard, "split"):
                self.counters["flap_vetoes"] += 1
                continue
            return (
                "split",
                {"shard": shard, "ratio": candidate["ratio"]},
                lambda s=shard: topology.split_shard(s),
            )
        for candidate in merge_cands:
            a, b = candidate["pair"]
            if self._dwell.get((a, b), 0) < self.dwell_epochs:
                self.counters["dwell_waits"] += 1
                continue
            if self._cooling(a) or self._cooling(b):
                self.counters["cooldown_vetoes"] += 1
                continue
            if self._flap_veto(a, "merge") or self._flap_veto(b, "merge"):
                self.counters["flap_vetoes"] += 1
                continue
            return (
                "merge",
                {"pair": [a, b], "ratio": candidate["ratio"]},
                lambda x=a, y=b: topology.merge_shards(x, y),
            )
        return None

    def _fire(self, record: dict, kind: str, info: dict, thunk) -> None:
        """Run one surgery; a typed refusal is recorded, never raised.

        Admission is charged inside the topology manager *before* the
        surgery touches the table, so every refusal here left the
        routing books exactly as they were.
        """
        # Defense-in-depth audit behind the veto: a firing that would
        # violate no-flap is the flap the counter exists to expose.
        flapped = (
            kind in ("split", "merge")
            and any(
                self._flap_veto(s, kind)
                for s in ([info["shard"]] if "shard" in info
                          else info["pair"])
            )
        )
        if flapped:
            self.flaps += 1
        try:
            result = thunk()
        except (BudgetExceededError, InputValidationError,
                PredictionError) as error:
            record.update(
                action=f"refused:{kind}",
                error=type(error).__name__,
                detail=str(error),
                **info,
            )
            self.counters[f"refused_{kind}"] += 1
        else:
            successors = (
                list(result) if isinstance(result, tuple) else [result]
            )
            record.update(action=kind, successors=successors, **info)
            self.counters[kind] += 1
            # Anchor the successors' births at *this* epoch right away
            # (not at the next tick) so their cool-down starts now.
            self._absorb_topology_events()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def report(self) -> dict:
        with self._lock:
            return {
                "epoch": self.epoch,
                "interval_s": self.interval_s,
                "dwell_epochs": self.dwell_epochs,
                "cooldown_epochs": self.cooldown_epochs,
                "running": self.running,
                "flaps": self.flaps,
                "counters": dict(self.counters),
                "born": {
                    shard: {"op": op, "epoch": epoch}
                    for shard, (op, epoch) in sorted(self._born.items())
                },
                "cooling": {
                    shard: until
                    for shard, until in sorted(self._cooldown_until.items())
                    if self.epoch < until
                },
                "dwell": {
                    f"{a}+{b}": ticks
                    for (a, b), ticks in sorted(self._dwell.items())
                },
                "events": list(self.events),
            }
