"""Chaos harness for the multi-tenant prediction service.

The service's contract is stronger than "usually works": **every
admitted request terminates**, and it terminates in one of exactly
three ways -- bit-identical to an unloaded run (warm requests),
degraded with a causal record (the facade's chain ran), or a typed
error response.  Never hung, never silently wrong, and never billed to
the wrong tenant.  This module turns that sentence into an executable
sweep:

* worker threads are killed mid-request (``WorkerDeath`` injected via
  the service's pre-request hook) and must answer their request before
  dying; the supervisor must respawn them;
* one tenant's warm-start artifact is corrupted on disk between runs
  and must be detected (CRC) and rebuilt, never trusted;
* one tenant is *slow* (its requests sleep past their deadline) and
  must get typed deadline errors without delaying anyone else's
  verdicts;
* one tenant's dataset sits on a faulty disk and must ride the
  degradation chain with ``cause`` attribution;
* one tenant has a starvation-level I/O allowance and must be refused
  or budget-degraded -- out of *its own* allowance only.

Responses are filed by the shared classifier of
:mod:`repro.runtime.storm`.  After the storm each tenant's ledger is
reconciled three ways (sum of response ops == ledger counter ==
governor spend), so cross-tenant budget leakage is a violation that
:func:`assert_service_invariant` fails on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ReproError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
)
from ..runtime.storm import HANG_TIMEOUT_S, StormOutcome
from .server import PredictionService, WorkerDeath
from .tenancy import TenantQuota

__all__ = [
    "ServiceChaosOutcome",
    "ServiceChaosScenario",
    "assert_service_invariant",
    "run_service_chaos",
]


@dataclass(frozen=True)
class ServiceChaosScenario:
    """One deterministic service storm.

    ``seed`` drives everything random: datasets, request mix, and which
    request ids draw a worker kill.  ``worker_death_rate`` is the
    per-request kill probability; ``corrupt_artifact`` flips a byte in
    one tenant's saved model between registrations (needs the sweep to
    run with an artifact directory).  The special tenants (slow, faulty
    disk, starved allowance) are always present -- chaos without them
    would only exercise the happy path.
    """

    seed: int = 0
    n_tenants: int = 4
    requests_per_tenant: int = 12
    workers: int = 4
    max_queue: int = 64
    worker_death_rate: float = 0.1
    corrupt_artifact: bool = True
    n_points: int = 600
    dim: int = 6
    memory: int = 200
    #: run the storm over the batched execution plane -- the invariant
    #: (warm bit-identity against the unloaded reference, three-way
    #: per-tenant op reconciliation of the split attributions) must
    #: hold unchanged with fused dispatches on
    coalesce: bool = False
    coalesce_window_ms: float = 2.0


@dataclass(kw_only=True)
class ServiceChaosOutcome(StormOutcome):
    """What one chaos sweep observed, classified request by request.

    Beyond the shared terminal states, ``classified`` counts the two
    admission verdicts ``refused_quota`` and ``shed_overload``.
    ``reconciliation`` holds each tenant's three op sums (responses,
    ledger, governor), which must agree.
    """

    typed_errors = frozenset({
        "WorkerDeath",
        "DeadlineExceededError",
        "BudgetExceededError",
        "PredictionError",
        "TransientReadError",
        "TornWriteError",
        "ChecksumError",
        "UnrecoverableCorruptionError",
        "CircuitOpenError",
        "ServiceOverloadedError",
    })

    workers_respawned: int = 0
    artifact_rebuilds: int = 0
    #: the service's batch-occupancy snapshot (fused dispatches, mean/
    #: max batch size, window hit rate) -- all-zero with coalesce off
    batching: dict = field(default_factory=dict)

    def has_record(self, response) -> bool:
        # a degraded answer must carry the facade's attempt chain
        return bool(response.attempts) and response.result is not None

    def summary(self) -> dict:
        return {
            **super().summary(),
            "workers_respawned": self.workers_respawned,
            "artifact_rebuilds": self.artifact_rebuilds,
            "batching": dict(self.batching),
        }


def _tenant_points(rng: np.random.Generator, scenario: ServiceChaosScenario
                   ) -> np.ndarray:
    return rng.normal(size=(scenario.n_points, scenario.dim))


def run_service_chaos(
    scenario: ServiceChaosScenario,
    *,
    artifact_dir: str | None = None,
) -> ServiceChaosOutcome:
    """Run one seeded storm against a fresh service; classify everything.

    With ``artifact_dir`` set the sweep also exercises the warm-start
    path end to end: tenants are registered twice (fit-and-save, then
    verified-load) and, when the scenario asks, one artifact is
    corrupted in between and must be rebuilt.
    """
    rng = np.random.default_rng(scenario.seed)
    outcome = ServiceChaosOutcome(scenario=scenario)

    # --- tenants: regular ones plus the three adversarial specials ---
    datasets = {
        f"tenant-{i}": _tenant_points(rng, scenario)
        for i in range(scenario.n_tenants)
    }
    datasets["slow"] = _tenant_points(rng, scenario)
    datasets["faulty-disk"] = _tenant_points(rng, scenario)
    datasets["starved"] = _tenant_points(rng, scenario)
    quotas = {
        "slow": TenantQuota(max_inflight=4, deadline_s=0.01),
        "faulty-disk": TenantQuota(max_inflight=4),
        "starved": TenantQuota(max_inflight=4, max_io_ops=5),
    }
    predictor_kwargs = {"faulty-disk": {"fault_rate": 0.35, "fault_seed": 3}}

    # Which request ids a worker dies on, fixed up front so the decision
    # is deterministic and safe to read from any worker thread.
    max_ids = (scenario.n_tenants + 3) * scenario.requests_per_tenant + 64
    kill_ids = frozenset(
        int(i) for i in range(1, max_ids + 1)
        if rng.random() < scenario.worker_death_rate
    )

    def hook(item) -> None:
        if item.tenant.name == "slow":
            time.sleep(0.03)  # past the 10 ms deadline, every time
        if item.pending.request_id in kill_ids:
            raise WorkerDeath(f"chaos kill of request "
                              f"{item.pending.request_id}")

    service = PredictionService(
        workers=scenario.workers,
        max_queue=scenario.max_queue,
        artifact_dir=artifact_dir,
        memory=scenario.memory,
        pre_request_hook=hook,
        coalesce=scenario.coalesce,
        coalesce_window_ms=scenario.coalesce_window_ms,
    )

    for name, points in datasets.items():
        service.register_tenant(
            name, points, quota=quotas.get(name),
            **predictor_kwargs.get(name, {}),
        )

    # --- artifact corruption between registrations -------------------
    if artifact_dir is not None and scenario.corrupt_artifact:
        victim = "tenant-0"
        path = service.store.path_for(victim)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        service.register_tenant(victim, datasets[victim])  # must rebuild

    # --- unloaded references for the bit-identity check --------------
    references = {}
    workloads = {}
    for name, points in datasets.items():
        tenant = service.tenant(name)
        workload = tenant.predictor.make_workload(
            points, n_queries=16, k=5, seed=scenario.seed + 1
        )
        workloads[name] = workload
        references[name] = tenant.model.predict(workload).per_query.copy()

    # --- the storm ----------------------------------------------------
    pending = []
    with service:
        submit_rng = np.random.default_rng(scenario.seed + 2)
        for round_i in range(scenario.requests_per_tenant):
            for name in datasets:
                if name == "faulty-disk":
                    method = "resampled"
                elif name in ("slow", "starved"):
                    method = "cutoff"
                else:
                    method = ("warm" if submit_rng.random() < 0.7
                              else "resampled")
                try:
                    pending.append((name, method, service.submit(
                        name, workloads[name], method=method,
                        seed=round_i,
                    )))
                except TenantQuotaExceededError:
                    outcome.classified["refused_quota"] += 1
                except ServiceOverloadedError:
                    outcome.classified["shed_overload"] += 1
                except ReproError as error:  # untyped leak = violation
                    outcome.violations.append(
                        f"submit({name}) raised unexpected "
                        f"{type(error).__name__}: {error}"
                    )

        response_ops = dict.fromkeys(datasets, 0)
        for name, method, future in pending:
            label = f"{method} request {future.request_id} of {name!r}"
            try:
                response = future.result(timeout=HANG_TIMEOUT_S)
            except TimeoutError:
                outcome.hung(label)
                continue
            response_ops[name] += response.io_ops
            outcome.classify(
                response, label,
                expected=references[name] if method == "warm" else None,
            )

    outcome.workers_respawned = service.workers_respawned
    outcome.artifact_rebuilds = (service.store.rebuilds()
                                 if service.store else 0)
    outcome.batching = service.metrics()["batching"]

    # --- reconciliation: three sums per tenant must agree -------------
    books = {}
    for name in datasets:
        snapshot = service.tenant(name).ledger.snapshot()
        books[name] = {
            "response_ops": response_ops[name],
            "ledger_ops": snapshot["charged_ops"],
            "governor_ops": snapshot["governor_ops"],
        }
    outcome.reconcile(books)
    return outcome


def assert_service_invariant(outcome: ServiceChaosOutcome) -> None:
    """The service invariant, as one assertion.

    Every request terminated (no hangs), every terminal state was one
    of the allowed three, and every tenant's three op sums agree --
    i.e. no charge leaked across tenants and none went missing.
    """
    outcome.assert_clean("service")
