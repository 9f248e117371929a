"""The threaded multi-tenant prediction service.

A :class:`PredictionService` is a long-lived front end over the
facade: tenants register a dataset (and optionally a warm-start
artifact), then submit prediction requests that worker threads execute
concurrently.  Under load or failure the service never hangs and never
lies -- every request terminates in exactly one of three ways:

* **served** -- a :class:`ServiceResponse` with status ``"ok"``
  (bit-identical to an unloaded single-caller run for warm requests)
  or ``"degraded"`` (the facade's degradation chain ran; the response
  carries the full causal attribution: methods attempted, the error
  that forced each downgrade, and whether the cause was ``budget``,
  ``fault``, ``media``, or ``deadline``);
* **refused at admission** -- a typed
  :class:`~repro.errors.TenantQuotaExceededError` (this tenant's own
  in-flight slots or lifetime op allowance are spent) or
  :class:`~repro.errors.ServiceOverloadedError` (the shared bounded
  queue is full: load is shed, not buffered into unbounded latency);
* **failed with a typed error response** -- status ``"error"`` naming
  the exception class, including the case of a worker thread dying
  mid-request (the dying worker answers its request first, then the
  supervisor respawns the thread).

Isolation is per-tenant by construction: quotas, ledgers, circuit
breakers, and warm models are keyed by tenant, and a request's I/O
budget is capped by *its own tenant's* remaining allowance -- the
chaos harness reconciles each tenant's ledger against its responses to
prove no spend leaks across tenants.

Clocks and sleeps are injectable so deadline and backoff behavior is
testable without real time passing.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import Callable

import numpy as np

from ..core.counting import PredictionResult
from ..core.predictor import IndexCostPredictor
from ..errors import (
    DeadlineExceededError,
    InputValidationError,
    ReproError,
    ServiceOverloadedError,
    validate_points,
)
from ..runtime.budget import Budget
from ..workload.queries import KNNWorkload, RangeWorkload
from .artifacts import ArtifactStore, FittedModel, fit_model
from .tenancy import TenantLedger, TenantQuota

__all__ = [
    "PendingPrediction",
    "PredictionService",
    "ServiceResponse",
    "WorkerDeath",
]

#: full prediction methods a request may ask the facade for
_FULL_METHODS = ("resampled", "cutoff", "mini")


class WorkerDeath(Exception):
    """A worker thread was killed mid-request (chaos injection).

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the library throws it for real -- the service chaos harness does,
    to prove that a dying worker answers its in-flight request with a
    typed error response and is respawned, instead of leaving a future
    that never resolves.
    """


@dataclass
class ServiceResponse:
    """The terminal verdict of one admitted request.

    ``status`` is ``"ok"`` (the requested path completed),
    ``"degraded"`` (a cheaper method answered; ``attempts`` carries the
    facade's causal record), or ``"error"`` (a typed failure;
    ``error_type`` names the class).  ``cause`` is the dominant causal
    attribution: ``None`` for clean requests, else ``budget`` /
    ``fault`` / ``media`` / ``deadline`` / ``worker`` / ``internal``.
    ``io_ops`` is the charged spend this response settles against its
    tenant's ledger; ``latency_s`` spans submit to resolution and
    ``queue_wait_s`` the bounded-queue residency inside it.
    """

    tenant: str
    request_id: int
    status: str
    result: PredictionResult | None = None
    method_requested: str = "warm"
    method_used: str | None = None
    error: str | None = None
    error_type: str | None = None
    cause: str | None = None
    attempts: list = field(default_factory=list)
    retries: int = 0
    io_ops: int = 0
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    worker: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def mean_accesses(self) -> float | None:
        return None if self.result is None else self.result.mean_accesses


class PendingPrediction:
    """A submitted request's future response; always resolves.

    The service guarantees resolution -- served, degraded, typed error,
    or shutdown -- so :meth:`result` with a generous timeout is safe.
    A ``timeout`` expiry raises :class:`TimeoutError` *without*
    cancelling the request (Python threads cannot be killed); the
    response still lands here when the worker finishes.
    """

    def __init__(self, tenant: str, request_id: int):
        self.tenant = tenant
        self.request_id = request_id
        self._done = threading.Event()
        self._response: ServiceResponse | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServiceResponse:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} of tenant {self.tenant!r} "
                f"not resolved within {timeout:g} s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: ServiceResponse) -> None:
        if self._done.is_set():  # first verdict wins; never overwrite
            return
        self._response = response
        self._done.set()


@dataclass
class _Tenant:
    """One registered tenant: data, facade, warm model, books."""

    name: str
    points: np.ndarray
    predictor: IndexCostPredictor
    ledger: TenantLedger
    model: FittedModel | None = None
    fit_seed: int = 0


@dataclass
class _Item:
    """One queued request."""

    tenant: _Tenant
    workload: KNNWorkload | RangeWorkload
    pending: PendingPrediction
    method: str
    seed: int
    deadline_s: float | None
    max_retries: int
    backoff_s: float
    submitted_at: float
    started_at: float = 0.0


_STOP = object()


class PredictionService:
    """Threaded, quota-isolated, load-shedding prediction server.

    ``workers`` is the execution parallelism; ``max_queue`` bounds the
    shared request queue (the backpressure point -- a full queue sheds
    with :class:`~repro.errors.ServiceOverloadedError`).
    ``default_quota`` applies to tenants registered without their own.
    ``artifact_dir`` enables warm-start persistence: fitted models are
    saved there and verified-loaded on re-registration; corrupt files
    are rebuilt.  ``clock`` must be monotonic; ``sleeper`` performs
    retry backoff -- both injectable for deterministic tests.

    ``coalesce=True`` turns on the batched execution plane: a worker
    that picks up a request waits up to ``coalesce_window_ms`` for more
    queued work (at most ``coalesce_max_batch`` items), then serves the
    claim as a batch -- compatible warm requests (same tenant model,
    hence same geometry and kernel, same workload shape) fuse into one
    kernel dispatch whose answers and charged-op attribution are split
    back per request.  Responses stay bit-identical to uncoalesced
    serving and every member settles its own tenant ledger, so the
    chaos reconciliation invariant holds with the knob on or off; it
    defaults off (the identity configuration) and the serving entry
    points (CLI ``serve``, the cluster's replicas) opt in.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_queue: int = 32,
        default_quota: TenantQuota | None = None,
        artifact_dir: str | None = None,
        memory: int = 2_000,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
        pre_request_hook: Callable[["_Item"], None] | None = None,
        coalesce: bool = False,
        coalesce_window_ms: float = 2.0,
        coalesce_max_batch: int = 32,
    ):
        if workers < 1:
            raise InputValidationError("workers must be positive")
        if max_queue < 1:
            raise InputValidationError("max_queue must be positive")
        if coalesce_window_ms < 0:
            raise InputValidationError(
                "coalesce_window_ms must be non-negative"
            )
        if coalesce_max_batch < 1:
            raise InputValidationError("coalesce_max_batch must be positive")
        self.workers = workers
        self.max_queue = max_queue
        self.default_quota = default_quota or TenantQuota()
        self.memory = memory
        self.store = ArtifactStore(artifact_dir) if artifact_dir else None
        self._clock = clock
        self._sleeper = sleeper
        self._pre_request_hook = pre_request_hook
        self._queue: Queue = Queue(maxsize=max_queue)
        self._tenants: dict[str, _Tenant] = {}
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._running = False
        self._request_ids = itertools.count(1)
        #: monotonic start/stop marks for the uptime gauge
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        #: lifetime service counters (mutated under ``_lock`` so
        #: :meth:`metrics` can snapshot them consistently)
        self.shed_overload = 0
        self.workers_respawned = 0
        self.requests_resolved = 0
        #: request coalescing (off by default: the identity-preserving
        #: configuration; serving entry points turn it on)
        self.coalesce = coalesce
        self.coalesce_window_ms = coalesce_window_ms
        self.coalesce_max_batch = coalesce_max_batch
        #: batch-occupancy counters, mutated under ``_lock``
        self.batches_dispatched = 0
        self.batched_requests = 0
        self.batch_max = 0
        self.coalesce_windows = 0
        self.coalesce_window_hits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PredictionService":
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._started_at = self._clock()
            self._stopped_at = None
            for i in range(self.workers):
                self._spawn_worker(i)
        return self

    def _spawn_worker(self, index: int) -> None:
        thread = threading.Thread(
            target=self._worker_main, name=f"predict-worker-{index}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _maintain_workers(self) -> None:
        """Respawn dead workers -- the supervisor half of worker death.

        Called on every submit (and by :meth:`stop`), so a killed
        worker is replaced before the queue can back up behind the
        corpse.
        """
        with self._lock:
            if not self._running:
                return
            for i, thread in enumerate(self._threads):
                if not thread.is_alive():
                    self.workers_respawned += 1
                    replacement = threading.Thread(
                        target=self._worker_main,
                        name=f"{thread.name}-r{self.workers_respawned}",
                        daemon=True,
                    )
                    self._threads[i] = replacement
                    replacement.start()

    def stop(self, *, timeout_s: float = 10.0) -> None:
        """Stop workers and resolve anything still queued -- no hangs.

        Queued-but-unserved requests resolve with a typed
        ``ServiceOverloadedError`` response (the service is shedding
        its whole queue); worker threads get a stop sentinel each and
        are joined under ``timeout_s``.  Idempotent: a second (or
        concurrent) call, or a call on a never-started service, is a
        no-op -- signal handlers and context-manager exits may both
        reach here for the same shutdown.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._stopped_at = self._clock()
        while True:
            try:
                item = self._queue.get_nowait()
            except Empty:
                break
            if item is _STOP:
                continue
            self._finish(item, self._error_response(
                item, ServiceOverloadedError(self.max_queue, self.max_queue),
                cause="shutdown", worker=None,
            ))
        for _ in self._threads:
            self._queue.put(_STOP)
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads.clear()

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        points: np.ndarray,
        *,
        quota: TenantQuota | None = None,
        warm: bool = True,
        fit_seed: int = 0,
        **predictor_kwargs,
    ) -> dict:
        """Register (or replace) a tenant and optionally warm its model.

        ``predictor_kwargs`` flow into the tenant's own
        :class:`~repro.core.predictor.IndexCostPredictor` (fault rates,
        redundancy, checksums, ...), so per-tenant failure injection is
        first-class.  With ``warm=True`` the fitted model comes from
        the artifact store when one is configured -- a verified cached
        artifact loads instantly, a corrupt one is rebuilt and
        overwritten -- else it is fitted in process.  Returns the
        tenant's opening snapshot.
        """
        points = validate_points(points, name=f"tenant {name!r} points")
        predictor = IndexCostPredictor(
            dim=points.shape[1],
            memory=predictor_kwargs.pop("memory", self.memory),
            **predictor_kwargs,
        )
        ledger = TenantLedger(name, quota or self.default_quota)
        predictor.breaker = ledger.breaker
        tenant = _Tenant(
            name=name, points=points, predictor=predictor, ledger=ledger,
            fit_seed=fit_seed,
        )
        if warm:
            tenant.model = self._warm_model(tenant)
        with self._lock:
            self._tenants[name] = tenant
        return ledger.snapshot()

    def _warm_model(self, tenant: _Tenant) -> FittedModel:
        def fit() -> FittedModel:
            return fit_model(
                tenant.points,
                c_data=tenant.predictor.c_data,
                c_dir=tenant.predictor.c_dir,
                memory=tenant.predictor.memory,
                seed=tenant.fit_seed,
                config=tenant.predictor.config,
            )

        if self.store is None:
            return fit()
        return self.store.load_or_fit(tenant.name, fit)

    def tenant(self, name: str) -> _Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise InputValidationError(
                f"unknown tenant {name!r}; registered: "
                f"{sorted(self._tenants)}"
            ) from None

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        tenant_name: str,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str = "warm",
        seed: int = 0,
        deadline_s: float | None = None,
        max_retries: int | None = None,
        backoff_s: float | None = None,
    ) -> PendingPrediction:
        """Admit one request; returns its future response.

        Admission is two typed gates in order: the tenant's own quota
        (:class:`~repro.errors.TenantQuotaExceededError`) and the
        shared bounded queue
        (:class:`~repro.errors.ServiceOverloadedError`).  Past both,
        the request *will* resolve -- that is the no-hang invariant.
        ``method`` is ``"warm"`` (count against the tenant's fitted
        model -- cheap, zero charged I/O) or one of the facade methods
        (``"resampled"`` / ``"cutoff"`` / ``"mini"`` -- charged,
        governed, degradable).  Deadline, retries, and backoff default
        to the tenant's quota.
        """
        if not self._running:
            raise InputValidationError(
                "service is not running; call start() first"
            )
        if method != "warm" and method not in _FULL_METHODS:
            raise InputValidationError(
                f"unknown method {method!r}; options: "
                f"{('warm',) + _FULL_METHODS}"
            )
        tenant = self.tenant(tenant_name)
        self._maintain_workers()
        quota = tenant.ledger.quota
        tenant.ledger.admit()
        pending = PendingPrediction(tenant_name, next(self._request_ids))
        item = _Item(
            tenant=tenant,
            workload=workload,
            pending=pending,
            method=method,
            seed=seed,
            deadline_s=deadline_s if deadline_s is not None
            else quota.deadline_s,
            max_retries=max_retries if max_retries is not None
            else quota.max_retries,
            backoff_s=backoff_s if backoff_s is not None
            else quota.backoff_s,
            submitted_at=self._clock(),
        )
        try:
            self._queue.put_nowait(item)
        except Full:
            tenant.ledger.release()
            with self._lock:
                self.shed_overload += 1
            raise ServiceOverloadedError(
                self.max_queue, self.max_queue
            ) from None
        return pending

    def request(
        self,
        tenant_name: str,
        workload: KNNWorkload | RangeWorkload,
        *,
        timeout: float | None = 60.0,
        **kwargs,
    ) -> ServiceResponse:
        """Submit and block for the response (the simple client path)."""
        return self.submit(tenant_name, workload, **kwargs).result(timeout)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker_main(self) -> None:
        name = threading.current_thread().name
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if self.coalesce:
                died = self._serve_claimed(self._claim_batch(item), name)
            else:
                died = self._serve_one(item, name)
            if died is not None:
                # The worker answered its request (and, when
                # coalescing, every other member it had claimed); now
                # it actually dies -- but first it spawns its own
                # replacement, so the pool never shrinks even when no
                # submit (the other respawn trigger) ever comes again.
                # A thread cannot see itself as dead via is_alive(),
                # hence the explicit hand-off rather than
                # _maintain_workers().
                self._respawn_self()
                return

    def _serve_one(self, item: "_Item", worker: str,
                   *, admitted: bool = False) -> WorkerDeath | None:
        """Serve one request end to end, always answering it.

        Returns the :class:`WorkerDeath` when the request killed this
        worker (the caller respawns), else ``None``.  ``admitted=True``
        skips the pre-request hook and queue-deadline check -- the
        coalesced path already ran them via :meth:`_admit_member`.
        """
        response: ServiceResponse | None = None
        died: WorkerDeath | None = None
        try:
            if admitted:
                queue_wait = item.started_at - item.submitted_at
                if item.method == "warm":
                    response = self._serve_warm(item, worker, queue_wait)
                else:
                    response = self._serve_full(item, worker, queue_wait)
            else:
                response = self._serve(item, worker=worker)
        except WorkerDeath as death:
            died = death
            response = self._error_response(
                item, death, cause="worker", worker=worker
            )
        except BaseException as error:  # noqa: BLE001 - typed response
            response = self._error_response(
                item, error, cause="internal", worker=worker
            )
        finally:
            if response is None:  # unreachable belt-and-braces
                response = self._error_response(
                    item, RuntimeError("worker produced no response"),
                    cause="internal", worker=worker,
                )
            self._finish(item, response)
        return died

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------

    def _claim_batch(self, first: "_Item") -> "list[_Item]":
        """Drain more queued requests behind ``first``, bounded.

        The worker holds its first request and waits up to the coalesce
        window for additional queued work, claiming at most
        ``coalesce_max_batch`` items in arrival order.  Claiming is
        tenant-blind -- compatibility is decided later, per group, by
        :meth:`_serve_claimed` -- so one claim can carry many tenants'
        requests (the cross-tenant batch).  A stop sentinel ends the
        drain and is handed back so shutdown still reaches its worker.
        """
        claimed = [first]
        if self.coalesce_max_batch <= 1 or not self._running:
            return claimed
        deadline = time.monotonic() + self.coalesce_window_ms / 1_000.0
        while len(claimed) < self.coalesce_max_batch:
            timeout = deadline - time.monotonic()
            try:
                if timeout > 0:
                    extra = self._queue.get(timeout=timeout)
                else:
                    extra = self._queue.get_nowait()
            except Empty:
                break
            if extra is _STOP:
                try:
                    self._queue.put_nowait(_STOP)
                except Full:  # pragma: no cover - queue full of requests
                    threading.Thread(
                        target=self._queue.put, args=(_STOP,), daemon=True
                    ).start()
                break
            claimed.append(extra)
        with self._lock:
            self.coalesce_windows += 1
            if len(claimed) > 1:
                self.coalesce_window_hits += 1
        return claimed

    def _serve_claimed(self, claimed: "list[_Item]",
                       worker: str) -> WorkerDeath | None:
        """Serve a claimed batch: admit each member, fuse the compatible.

        Every member is admitted individually first (pre-request hook,
        queue-deadline check), so a member that errors here -- a chaos
        kill, an expired deadline -- is answered with its own typed
        response and *never poisons the batch*.  Survivors are grouped
        by compatibility (same tenant model, hence same geometry and
        kernel, and same workload shape); each group of two or more
        warm requests becomes one fused dispatch, everything else is
        served alone.  Each member is settled through :meth:`_finish`
        on its own tenant ledger, exactly as if served alone.
        """
        died: WorkerDeath | None = None
        admitted: list[_Item] = []
        for item in claimed:
            verdict: ServiceResponse | None = None
            try:
                verdict = self._admit_member(item, worker=worker)
            except WorkerDeath as death:
                died = death if died is None else died
                verdict = self._error_response(
                    item, death, cause="worker", worker=worker
                )
            except BaseException as error:  # noqa: BLE001 - typed response
                verdict = self._error_response(
                    item, error, cause="internal", worker=worker
                )
            if verdict is None:
                admitted.append(item)
            else:
                self._finish(item, verdict)
        groups: dict = {}
        order = []
        for item in admitted:
            if item.method == "warm":
                key = (item.tenant.name, type(item.workload))
            else:
                # full methods run the governed chain; never fused
                key = ("solo", id(item))
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(item)
        for key in order:
            group = groups[key]
            if group[0].method == "warm":
                with self._lock:
                    self.batches_dispatched += 1
                    self.batched_requests += len(group)
                    self.batch_max = max(self.batch_max, len(group))
            if len(group) > 1:
                self._serve_warm_fused(group, worker)
            else:
                solo_died = self._serve_one(group[0], worker, admitted=True)
                died = died if died is not None else solo_died
        return died

    def _serve_warm_fused(self, group: "list[_Item]", worker: str) -> None:
        """One fused kernel dispatch answering a whole compatible group.

        The answers and the charged-op attribution are split back per
        request: each member's response carries exactly its own slice
        (bit-identical to an uncoalesced serve) and settles its own
        tenant ledger via :meth:`_finish`.  If the fused dispatch
        itself fails, every member receives the typed error it would
        have gotten alone.
        """
        tenant = group[0].tenant
        try:
            if tenant.model is None:
                tenant.model = self._warm_model(tenant)
            results = tenant.model.predict_many(
                [item.workload for item in group]
            )
        except BaseException as error:  # noqa: BLE001 - typed response
            for item in group:
                self._finish(item, self._error_response(
                    item, error, cause="internal", worker=worker
                ))
            return
        now = self._clock()
        for item, result in zip(group, results):
            self._finish(item, ServiceResponse(
                tenant=tenant.name,
                request_id=item.pending.request_id,
                status="ok",
                result=result,
                method_requested="warm",
                method_used="warm",
                io_ops=result.io_cost.ops,
                latency_s=now - item.submitted_at,
                queue_wait_s=item.started_at - item.submitted_at,
                worker=worker,
            ))

    def _respawn_self(self) -> None:
        me = threading.current_thread()
        with self._lock:
            if not self._running:
                return
            self.workers_respawned += 1
            replacement = threading.Thread(
                target=self._worker_main,
                name=f"{me.name}-r{self.workers_respawned}",
                daemon=True,
            )
            for i, thread in enumerate(self._threads):
                if thread is me:
                    self._threads[i] = replacement
                    break
            else:
                self._threads.append(replacement)
            replacement.start()

    def _finish(self, item: _Item, response: ServiceResponse) -> None:
        item.tenant.ledger.settle(response.io_ops, response.status)
        item.pending._resolve(response)
        item.tenant.ledger.release()
        with self._lock:
            self.requests_resolved += 1

    def _error_response(
        self, item: _Item, error: BaseException, *, cause: str,
        worker: str | None,
    ) -> ServiceResponse:
        now = self._clock()
        return ServiceResponse(
            tenant=item.tenant.name,
            request_id=item.pending.request_id,
            status="error",
            method_requested=item.method,
            error=f"{type(error).__name__}: {error}",
            error_type=type(error).__name__,
            cause=cause,
            latency_s=now - item.submitted_at,
            queue_wait_s=(item.started_at or now) - item.submitted_at,
            worker=worker,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _admit_member(
        self, item: _Item, *, worker: str
    ) -> ServiceResponse | None:
        """Pre-serve admission: hook, then the queued-deadline check.

        Returns ``None`` when the request may proceed to serving, or
        the refusal response when its deadline already expired in the
        queue: the tenant asked for an answer by then, and burning I/O
        on a request nobody is waiting for anymore is pure waste.
        """
        item.started_at = self._clock()
        queue_wait = item.started_at - item.submitted_at
        if self._pre_request_hook is not None:
            self._pre_request_hook(item)
        if item.deadline_s is not None and queue_wait > item.deadline_s:
            error = DeadlineExceededError(
                queue_wait, item.deadline_s, phase="queue"
            )
            return self._error_response(
                item, error, cause="deadline", worker=worker
            )
        return None

    def _serve(self, item: _Item, *, worker: str) -> ServiceResponse:
        refused = self._admit_member(item, worker=worker)
        if refused is not None:
            return refused
        queue_wait = item.started_at - item.submitted_at
        if item.method == "warm":
            return self._serve_warm(item, worker, queue_wait)
        return self._serve_full(item, worker, queue_wait)

    def _serve_warm(
        self, item: _Item, worker: str, queue_wait: float
    ) -> ServiceResponse:
        tenant = item.tenant
        if tenant.model is None:
            tenant.model = self._warm_model(tenant)
        result = tenant.model.predict(item.workload)
        return ServiceResponse(
            tenant=tenant.name,
            request_id=item.pending.request_id,
            status="ok",
            result=result,
            method_requested="warm",
            method_used="warm",
            io_ops=result.io_cost.ops,
            latency_s=self._clock() - item.submitted_at,
            queue_wait_s=queue_wait,
            worker=worker,
        )

    def _serve_full(
        self, item: _Item, worker: str, queue_wait: float
    ) -> ServiceResponse:
        """One governed facade prediction with request-level retry.

        The request's I/O budget is capped by *its own tenant's*
        remaining lifetime allowance, so a single request can never
        overdraw its tenant (and by construction never touches another
        tenant's allowance).  Retries re-enter the whole governed chain
        with exponential backoff, but only while the deadline allows.
        """
        tenant = item.tenant
        retries = 0
        last_error: BaseException | None = None
        while True:
            remaining_s = None
            if item.deadline_s is not None:
                remaining_s = item.deadline_s - (
                    self._clock() - item.submitted_at
                )
                if remaining_s <= 0:
                    break
            remaining_ops = tenant.ledger.remaining_ops()
            budget = None
            if remaining_ops is not None or remaining_s is not None:
                budget = Budget(
                    max_io_ops=remaining_ops, max_seconds=remaining_s
                )
            try:
                result = tenant.predictor.predict(
                    tenant.points, item.workload, method=item.method,
                    seed=item.seed, budget=budget, degrade=True,
                )
            except ReproError as error:
                last_error = error
                if retries >= item.max_retries:
                    break
                retries += 1
                if item.backoff_s:
                    self._sleeper(item.backoff_s * (2 ** (retries - 1)))
                continue
            record = result.detail.get("degradation")
            degraded = (
                record is not None
                and record.get("method_used") != item.method
            )
            cause = None
            attempts = []
            if record is not None:
                attempts = list(record.get("attempts", ()))
                if attempts:
                    cause = attempts[-1].get("cause")
            return ServiceResponse(
                tenant=tenant.name,
                request_id=item.pending.request_id,
                status="degraded" if degraded else "ok",
                result=result,
                method_requested=item.method,
                method_used=(record or {}).get("method_used", item.method),
                cause=cause,
                attempts=attempts,
                retries=retries,
                io_ops=result.io_cost.ops,
                latency_s=self._clock() - item.submitted_at,
                queue_wait_s=queue_wait,
                worker=worker,
            )
        if last_error is None:
            last_error = DeadlineExceededError(
                self._clock() - item.submitted_at, item.deadline_s,
                phase="retry",
            )
        cause = ("deadline"
                 if isinstance(last_error, DeadlineExceededError)
                 else "fault")
        response = self._error_response(
            item, last_error, cause=cause, worker=worker
        )
        response.retries = retries
        response.queue_wait_s = queue_wait
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """One *consistent* snapshot of the whole service's books.

        Every service-level counter is read in a single critical
        section under the service lock -- workers mutate them under the
        same lock, so the returned numbers describe one moment, never a
        mid-update mix (``requests_resolved`` from before a settle,
        ``shed_overload`` from after).  ``uptime_s`` is monotonic time
        since :meth:`start` (frozen at :meth:`stop`, ``0.0`` before the
        first start), and ``worker_liveness`` maps each worker thread's
        name to whether it is currently alive -- the cluster health
        probe keys off both.
        """
        with self._lock:
            tenants = {
                name: tenant.ledger.snapshot()
                for name, tenant in self._tenants.items()
            }
            liveness = {t.name: t.is_alive() for t in self._threads}
            if self._started_at is None:
                uptime = 0.0
            else:
                end = (self._stopped_at if self._stopped_at is not None
                       else self._clock())
                uptime = max(0.0, end - self._started_at)
            return {
                "running": self._running,
                "uptime_s": uptime,
                "workers": self.workers,
                "workers_alive": sum(liveness.values()),
                "worker_liveness": liveness,
                "workers_respawned": self.workers_respawned,
                "queue_depth": self._queue.qsize(),
                "max_queue": self.max_queue,
                "shed_overload": self.shed_overload,
                "requests_resolved": self.requests_resolved,
                "artifact_rebuilds": (self.store.rebuilds()
                                      if self.store else 0),
                "batching": {
                    "enabled": self.coalesce,
                    "window_ms": self.coalesce_window_ms,
                    "max_batch": self.coalesce_max_batch,
                    "batches_dispatched": self.batches_dispatched,
                    "batched_requests": self.batched_requests,
                    "mean_batch_size": (
                        self.batched_requests / self.batches_dispatched
                        if self.batches_dispatched else 0.0
                    ),
                    "max_batch_size": self.batch_max,
                    "window_hit_rate": (
                        self.coalesce_window_hits / self.coalesce_windows
                        if self.coalesce_windows else 0.0
                    ),
                },
                "tenants": tenants,
            }
