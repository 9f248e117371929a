"""Sustained-throughput and tail-latency measurement for the service.

One closed-loop client thread per tenant hammers the service for a
fixed wall-clock window; every resolved response contributes its
submit-to-resolution latency.  The committed ``BENCH_service.json``
is the :meth:`LoadTestResult.as_dict` of one such run (via
``repro loadtest``), so the repository carries an auditable record of
what the service sustains: requests per second, p50/p95/p99 latency,
and how much load was shed at which gate.

Closed-loop means each client waits for its response before submitting
again -- offered load scales with ``n_tenants``, and the bounded queue
plus per-tenant quotas (not client politeness) are what keep the tail
bounded when offered load exceeds capacity.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ServiceOverloadedError, TenantQuotaExceededError
from ..runtime.storm import HANG_TIMEOUT_S, ClosedLoop, record_of
from .server import PredictionService
from .tenancy import TenantQuota

__all__ = ["LoadTestResult", "run_loadtest"]


@dataclass
class LoadTestResult:
    """One load-test window, summarized.

    Latency percentiles are milliseconds over *resolved* requests
    (refused admissions cost microseconds and would flatter the tail);
    ``throughput_rps`` counts resolved responses per second of the
    measurement window.
    """

    duration_s: float
    n_tenants: int
    workers: int
    method: str
    requests_sent: int = 0
    resolved: int = 0
    ok: int = 0
    degraded: int = 0
    errors: int = 0
    shed_overload: int = 0
    refused_quota: int = 0
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0
    #: pipelined submissions per client iteration (1 = strict closed loop)
    burst: int = 1
    #: the service's batch-occupancy snapshot (all-zero with coalesce off)
    batching: dict = field(default_factory=dict)
    tenants: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["latency_ms"] = {
            key: payload.pop(f"{key}_ms")
            for key in ("p50", "p95", "p99", "mean", "max")
        }
        return payload


def run_loadtest(
    *,
    n_tenants: int = 8,
    workers: int = 4,
    duration_s: float = 2.0,
    max_queue: int = 64,
    n_points: int = 1_200,
    dim: int = 8,
    memory: int = 300,
    n_queries: int = 32,
    k: int = 5,
    method: str = "warm",
    seed: int = 0,
    max_inflight: int = 8,
    artifact_dir: str | None = None,
    coalesce: bool = False,
    coalesce_window_ms: float = 2.0,
    burst: int = 1,
) -> LoadTestResult:
    """Hammer a fresh service with ``n_tenants`` closed-loop clients.

    Each tenant gets its own seeded gaussian dataset and density-biased
    k-NN workload; clients run until the window closes, counting every
    admission refusal and classifying every response.  ``method`` is
    what the clients request -- ``"warm"`` measures the amortized
    serving fast path, a full method (``"resampled"`` etc.) measures
    the governed prediction pipeline under contention.

    ``coalesce``/``coalesce_window_ms`` thread straight into the
    service's batched execution plane.  ``burst`` pipelines that many
    submissions per client iteration (bounded by ``max_inflight``)
    before waiting for them all -- the closed loop still bounds offered
    load, but a queue depth exists for the coalescer to find; use the
    same burst on both sides when comparing coalesced vs uncoalesced.

    A response that does not arrive within the shared hang timeout
    raises :class:`TimeoutError` from here; it is never dropped.
    """
    if burst < 1:
        raise ValueError("burst must be >= 1")
    burst = min(burst, max_inflight)
    rng = np.random.default_rng(seed)
    service = PredictionService(
        workers=workers, max_queue=max_queue, memory=memory,
        artifact_dir=artifact_dir,
        default_quota=TenantQuota(max_inflight=max_inflight),
        coalesce=coalesce, coalesce_window_ms=coalesce_window_ms,
    )
    workloads = {}
    for i in range(n_tenants):
        name = f"tenant-{i}"
        points = rng.normal(size=(n_points, dim))
        service.register_tenant(name, points)
        workloads[name] = service.tenant(name).predictor.make_workload(
            points, n_queries=n_queries, k=k, seed=seed + i
        )

    def client(name: str):
        def step() -> list:
            pendings, refusals = [], []
            for _ in range(burst):
                now = time.monotonic()
                try:
                    pendings.append(service.submit(name, workloads[name],
                                                   method=method))
                except TenantQuotaExceededError:
                    refusals.append((now, now, "refused_quota"))
                    break
                except ServiceOverloadedError:
                    refusals.append((now, now, "shed_overload"))
                    break
            if not pendings:
                time.sleep(0.001)
            return refusals + [
                record_of(pending.result(timeout=HANG_TIMEOUT_S))
                for pending in pendings
            ]
        return step

    with service:
        loop = ClosedLoop().run(map(client, workloads), duration_s)

    counts = loop.counts()
    whole = loop.window("start", "end")
    return LoadTestResult(
        duration_s=duration_s, n_tenants=n_tenants, workers=workers,
        method=method, burst=burst,
        requests_sent=whole["resolved"],
        resolved=whole["resolved"],
        ok=counts["ok"],
        degraded=counts["degraded"],
        errors=counts["error"],
        shed_overload=counts["shed_overload"],
        refused_quota=counts["refused_quota"],
        throughput_rps=whole["throughput_rps"],
        **{f"{key}_ms": ms for key, ms in whole["latency_ms"].items()},
        batching=service.metrics()["batching"],
        tenants={
            name: service.tenant(name).ledger.snapshot()
            for name in workloads
        },
    )
