"""Long-lived multi-tenant prediction serving.

The facade answers one caller at a time; this package turns it into a
*service*: a threaded front end that accepts prediction requests from
many tenants concurrently and keeps every single-request robustness
guarantee the earlier layers built (typed errors, budgets, breakers,
the degradation chain) intact under contention.  The pieces:

:mod:`repro.service.artifacts`
    checksummed, versioned model artifacts -- save a fitted predictor
    (its compensation-grown :class:`~repro.kernels.geometry.LeafGeometry`
    plus the configuration that produced it) and load it back with a
    bit-identical-prediction guarantee; corrupt or version-skewed
    files raise :class:`~repro.errors.ArtifactCorruptError` and are
    rebuilt, never trusted.
:mod:`repro.service.tenancy`
    per-tenant quotas (in-flight slots, lifetime charged-op
    allowances), ledgers, and circuit breakers, enforced at admission
    so one tenant's appetite never starves the others.
:mod:`repro.service.server`
    the :class:`PredictionService` itself: a bounded request queue,
    worker threads with supervision (a dead worker is detected,
    its request answered with a typed error, and the thread
    respawned), request deadlines with retry/backoff, and load-shedding
    backpressure -- full queues raise
    :class:`~repro.errors.ServiceOverloadedError` instead of hanging.
:mod:`repro.service.chaos`
    the service-level chaos harness: inject worker death, artifact
    corruption, slow tenants, and disk faults mid-request and assert
    the invariant that every request terminates bit-identical,
    degraded-with-record, or with a typed error -- never hung.
"""

from .artifacts import (
    ARTIFACT_VERSION,
    ArtifactStore,
    FittedModel,
    fit_model,
    load_artifact,
    save_artifact,
)
from .chaos import (
    ServiceChaosOutcome,
    ServiceChaosScenario,
    assert_service_invariant,
    run_service_chaos,
)
from .server import (
    PendingPrediction,
    PredictionService,
    ServiceResponse,
    WorkerDeath,
)
from .tenancy import TenantLedger, TenantQuota

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "FittedModel",
    "fit_model",
    "load_artifact",
    "save_artifact",
    "PendingPrediction",
    "PredictionService",
    "ServiceResponse",
    "WorkerDeath",
    "TenantLedger",
    "TenantQuota",
    "ServiceChaosOutcome",
    "ServiceChaosScenario",
    "assert_service_invariant",
    "run_service_chaos",
]
