"""Service-level chaos sweeps: the no-hang / no-lie / no-leak invariant.

Each sweep floods a fresh service with a seeded storm -- worker kills,
a corrupted warm-start artifact, a tenant that always blows its
deadline, a tenant on a faulty disk, a tenant with a starvation-level
I/O allowance -- and asserts that every admitted request terminated in
one of the three allowed states and that every tenant's three op sums
(responses, ledger, governor) reconcile exactly.  Seeds are read from
``CHAOS_SEED`` when set so CI shards the sweep the same way the disk
chaos suite does.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.errors import DegradedResultWarning
from repro.service import (
    ServiceChaosScenario,
    assert_service_invariant,
    run_service_chaos,
)

SEEDS = ([int(os.environ["CHAOS_SEED"])]
         if os.environ.get("CHAOS_SEED") else [0, 1])


@pytest.fixture(autouse=True)
def _quiet_degradation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        yield


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_invariant_holds(seed, tmp_path):
    outcome = run_service_chaos(
        ServiceChaosScenario(seed=seed), artifact_dir=tmp_path
    )
    assert_service_invariant(outcome)
    # the storm actually stormed: every injected failure family showed
    # up and was survived, not skipped
    assert outcome.classified.get("identical", 0) > 0
    assert outcome.classified.get("typed_error", 0) > 0
    assert outcome.artifact_rebuilds == 1
    assert "deadline" in outcome.causes_seen
    assert "budget" in outcome.causes_seen


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_invariant_holds_with_coalescing(seed, tmp_path):
    """The same storm with the batched execution plane on: the no-hang /
    no-lie / no-leak invariant is coalescing-independent, fused members
    still classify byte-identical against the uncoalesced oracle, and
    the attribution split keeps every tenant's three op sums equal."""
    outcome = run_service_chaos(
        ServiceChaosScenario(seed=seed, coalesce=True), artifact_dir=tmp_path
    )
    assert_service_invariant(outcome)
    assert outcome.classified.get("identical", 0) > 0
    assert outcome.classified.get("typed_error", 0) > 0
    # the coalescer genuinely fused requests rather than degenerating
    # into singleton batches
    batching = outcome.batching
    assert batching["enabled"]
    assert batching["batches_dispatched"] > 0
    assert batching["batched_requests"] > batching["batches_dispatched"]


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_without_artifacts(seed):
    outcome = run_service_chaos(
        ServiceChaosScenario(seed=seed, corrupt_artifact=False)
    )
    assert_service_invariant(outcome)
    assert outcome.artifact_rebuilds == 0


def test_heavy_worker_slaughter_never_hangs(tmp_path):
    """Half of all requests kill their worker; the supervisor must keep
    the pool alive and every future must still resolve."""
    outcome = run_service_chaos(
        ServiceChaosScenario(seed=7, worker_death_rate=0.5,
                             requests_per_tenant=8),
        artifact_dir=tmp_path,
    )
    assert_service_invariant(outcome)
    assert outcome.workers_respawned >= 1
    assert outcome.classified.get("hung", 0) == 0


def test_calm_storm_no_untyped_failures():
    """With the kill and corruption knobs at zero, only the adversarial
    tenants' own deadline/budget verdicts remain -- no worker deaths,
    no rebuilds, no untyped errors, and the books still reconcile."""
    outcome = run_service_chaos(
        ServiceChaosScenario(seed=3, worker_death_rate=0.0,
                             corrupt_artifact=False, n_tenants=2,
                             requests_per_tenant=4)
    )
    assert_service_invariant(outcome)
    assert outcome.classified.get("untyped_error", 0) == 0
    assert outcome.workers_respawned == 0
