"""One cluster replica: a prediction service plus its restart book.

A :class:`Replica` wraps a :class:`~repro.service.server.PredictionService`
with everything the cluster needs that a single service does not track:

* **its own artifact directory** -- replicas are each other's
  redundancy, so each keeps a private on-disk copy of every owned
  shard's warm-start artifact (the anti-entropy pass heals a corrupt
  copy from a peer's bytes);
* **a registration book** -- :meth:`kill` tears the service down,
  :meth:`restart` builds a fresh one and re-registers every owned shard
  from the book; re-registration warm-starts from the replica's own
  artifact store, so a restarted replica serves bit-identical answers
  without refitting;
* **retired-op accounting** -- a killed service's ledgers die with it,
  so :meth:`kill` folds each shard's charged ops into ``retired_ops``
  first; :meth:`charged_ops` (retired + live) is what the cluster
  chaos harness reconciles across restarts.  :meth:`retire` is the
  scale-in variant (fold the books, then drop the service reference
  for good), and :meth:`retire_shard` folds a single shard's ledger
  when a split or re-tune moves its traffic to successor shard ids;
* **injection points** -- ``slow_s`` delays every request (the slow
  replica the router must hedge around) and ``request_hook`` raises
  into the serving path (the faulty replica whose typed error responses
  trip the router's breaker), both mutable mid-run by the chaos
  harness.

Replica heterogeneity is expressed *only* as ``latency_factor``, a
routing-cost multiplier -- never as divergent index configuration,
which would break the failover bit-identity guarantee.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import InputValidationError
from ..service.server import PendingPrediction, PredictionService
from ..service.tenancy import TenantQuota
from ..workload.queries import KNNWorkload, RangeWorkload
from .tuning import ShardConfig

__all__ = ["Replica", "shard_tenant"]


def shard_tenant(shard: int) -> str:
    """The tenant (and artifact) key a shard registers under."""
    return f"shard-{shard}"


class Replica:
    """A restartable prediction service owning a set of shards."""

    def __init__(
        self,
        name: str,
        *,
        artifact_dir: str | Path,
        workers: int = 2,
        max_queue: int = 32,
        memory: int = 2_000,
        latency_factor: float = 1.0,
        quota: TenantQuota | None = None,
        coalesce: bool = False,
        coalesce_window_ms: float = 2.0,
    ):
        if latency_factor <= 0:
            raise InputValidationError(
                f"latency_factor must be positive, got {latency_factor}"
            )
        self.name = name
        self.artifact_dir = Path(artifact_dir)
        self.latency_factor = latency_factor
        #: chaos injection points, mutable mid-run
        self.slow_s = 0.0
        self.request_hook: Callable | None = None
        #: charged ops folded out of killed services, per shard
        self.retired_ops: Counter = Counter()
        self.kills = 0
        self.restarts = 0
        self.down = False
        self.retired = False
        self._quota = quota
        self._registered: dict[int, dict] = {}
        self._service_kwargs = dict(
            workers=workers, max_queue=max_queue, memory=memory,
            artifact_dir=str(self.artifact_dir),
            coalesce=coalesce, coalesce_window_ms=coalesce_window_ms,
        )
        self.service = self._new_service()
        self.service.start()

    def _hook(self, item) -> None:
        # Bound once at service construction; reads the mutable chaos
        # knobs at request time so the harness can flip them mid-storm.
        if self.slow_s:
            time.sleep(self.slow_s)
        if self.request_hook is not None:
            self.request_hook(item)

    def _new_service(self) -> PredictionService:
        return PredictionService(
            pre_request_hook=self._hook, **self._service_kwargs
        )

    # ------------------------------------------------------------------
    # Shard ownership
    # ------------------------------------------------------------------

    def register_shard(
        self,
        shard: int,
        points: np.ndarray,
        config: ShardConfig,
        *,
        fit_seed: int = 0,
    ) -> None:
        """Own a shard: register its tenant with the tuned configuration.

        The registration is recorded so :meth:`restart` can replay it.
        Every owner of a shard registers with the identical tuned disk
        parameters, capacities, and ``fit_seed`` -- the precondition for
        bit-identical warm artifacts across peers.
        """
        self._registered[shard] = {
            "points": points, "config": config, "fit_seed": fit_seed,
        }
        self._register(shard)

    def _register(self, shard: int) -> None:
        reg = self._registered[shard]
        config: ShardConfig = reg["config"]
        self.service.register_tenant(
            shard_tenant(shard), reg["points"],
            quota=self._quota,
            fit_seed=reg["fit_seed"],
            disk_parameters=config.disk,
            c_data=config.c_data,
            c_dir=config.c_dir,
        )

    def shards(self) -> list[int]:
        return sorted(self._registered)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Tear the service down, folding live ledgers into the book.

        ``stop()`` drains the queue (queued requests resolve with typed
        shutdown errors) and joins the workers, so every settle has
        landed before the ledgers are folded -- no charge is lost
        between a kill and the post-storm reconciliation.  Idempotent.
        """
        if self.down:
            return
        self.service.stop()
        for shard in self._registered:
            ledger = self.service.tenant(shard_tenant(shard)).ledger
            self.retired_ops[shard] += ledger.charged_ops
        self.kills += 1
        self.down = True

    def restart(self) -> None:
        """Fresh service, every owned shard re-registered from the book.

        Re-registration warm-starts from this replica's own artifact
        store -- a verified artifact loads bit-identically, a corrupt
        one is rebuilt (and the rebuild shows in the store's events, so
        the chaos harness can tell healing from refitting).  Idempotent
        on a live replica.
        """
        if self.retired:
            raise InputValidationError(
                f"replica {self.name!r} was retired by a scale-in and "
                f"cannot restart; scale out a new replica instead"
            )
        if not self.down:
            return
        self.service = self._new_service()
        self.service.start()
        for shard in self._registered:
            self._register(shard)
        self.restarts += 1
        self.down = False

    def retire(self) -> None:
        """Permanent scale-in removal: fold the books exactly as a kill.

        :meth:`kill` stops the service and folds every owned shard's
        live ledger into ``retired_ops``; retiring then drops the
        service reference for good, so a dispatch racing the removal
        observes ``service is None`` and takes the router's ghost-skip
        path instead of an ``AttributeError``.  The caller must drain
        in-flight legs *before* retiring (``stop()`` inside ``kill``
        resolves the queue, and a resolved leg has settled its ledger),
        which is what makes the fold exact.  Idempotent.
        """
        self.kill()
        self.retired = True
        self.service = None

    def retire_shard(self, shard: int) -> None:
        """Drop ownership of one shard, folding its live ledger first.

        Used when a split or re-tune replaces a shard with successor
        ids: the old tenant's charges move to ``retired_ops`` under the
        *old* shard id, so per-shard books still reconcile across the
        epoch boundary.  The caller must have drained in-flight legs
        first (a drained leg has settled its ledger).  No-op for an
        unowned shard; on a down replica the ledger was already folded
        by the kill.
        """
        if shard not in self._registered:
            return
        if not self.down and self.service is not None:
            ledger = self.service.tenant(shard_tenant(shard)).ledger
            self.retired_ops[shard] += ledger.charged_ops
        del self._registered[shard]

    def healthy(self) -> bool:
        """Liveness as the router's health probe sees it."""
        if self.down or self.service is None:
            return False
        snapshot = self.service.metrics()
        return bool(snapshot["running"]) and snapshot["workers_alive"] > 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def submit(
        self,
        shard: int,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str = "warm",
        seed: int = 0,
    ) -> PendingPrediction:
        if shard not in self._registered:
            raise InputValidationError(
                f"replica {self.name!r} does not own shard {shard}; "
                f"owns {self.shards()}"
            )
        # Snapshot the reference: a concurrent retire() nulls
        # ``self.service``, and a submit that loses that race must
        # surface as a typed refusal the router files under its
        # ghost-skip path -- never as an AttributeError.
        service = self.service
        if self.down or service is None:
            raise InputValidationError(
                f"replica {self.name!r} is "
                f"{'retired' if self.retired else 'down'}; "
                f"cannot submit shard {shard}"
            )
        return service.submit(
            shard_tenant(shard), workload, method=method, seed=seed
        )

    # ------------------------------------------------------------------
    # Books
    # ------------------------------------------------------------------

    def charged_ops(self, shard: int) -> int:
        """This replica's lifetime charged ops for one shard, across
        every kill/restart generation."""
        total = int(self.retired_ops.get(shard, 0))
        if (not self.down and self.service is not None
                and shard in self._registered):
            total += self.service.tenant(shard_tenant(shard)).ledger.charged_ops
        return total

    def artifact_path(self, shard: int) -> Path:
        if self.service is None or self.service.store is None:
            raise InputValidationError(
                f"replica {self.name!r} has no artifact store "
                f"{'(retired)' if self.retired else ''}"
            )
        return self.service.store.path_for(shard_tenant(shard))

    def adopt_shard_bytes(self, shard: int, data: bytes):
        """Install a peer's verified artifact bytes for a shard.

        The topology placement path: a new owner adopts a verified
        peer's bytes *before* registering the shard, so the
        registration's ``load_or_fit`` is a verified hit and the warm
        start costs zero refits.  Returns the adopted model.
        """
        if self.down or self.service is None or self.service.store is None:
            raise InputValidationError(
                f"replica {self.name!r} cannot adopt artifact bytes "
                f"while down or storeless"
            )
        return self.service.store.adopt(shard_tenant(shard), data)

    def adopt_model(self, shard: int, model) -> None:
        """Swap the live tenant's warm model (after an artifact heal)."""
        if (not self.down and self.service is not None
                and shard in self._registered):
            self.service.tenant(shard_tenant(shard)).model = model

    def metrics(self) -> dict:
        info = {
            "name": self.name,
            "down": self.down,
            "retired": self.retired,
            "latency_factor": self.latency_factor,
            "kills": self.kills,
            "restarts": self.restarts,
            "shards": self.shards(),
            "retired_ops": dict(self.retired_ops),
        }
        if not self.down:
            info["service"] = self.service.metrics()
        return info
