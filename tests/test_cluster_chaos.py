"""Cluster chaos sweeps: replica storms under the exact invariant.

Each sweep drives a fresh sharded cluster through kills, restarts,
artifact corruption, a slow replica, a faulty replica, and deliberate
routing-table staleness, then asserts the cluster invariant: every
request terminated bit-identical / failover-with-causal-record /
explicitly degraded / typed error, no hangs, anti-entropy healed from a
peer without a data rebuild, and per-shard op sums reconcile exactly
across the router's legs, every replica generation's ledgers, and the
responses themselves.  Seeds come from ``CHAOS_SEED`` when set so CI
shards the sweep like the disk and service chaos suites.

The topology sweep adds the elastic axis on top: mid-storm scale-out
with a corrupted donor, a kill during the handoff, a shard split under
traffic, stale-epoch probes at every fence, and a graceful scale-in --
with the invariant extended across epoch boundaries (per-epoch op
books sum to the drained totals exactly).

The controller sweep hands the topology to the autonomous loop: an
over-partitioned cluster's load decays mid-storm and the controller --
ticked deterministically once per round -- must merge the stranded
sibling pair through a mid-surgery replica kill and a post-fence
artifact corruption, shrinking the topology with zero erroneous
responses and a zero flap counter.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import (
    ClusterChaosScenario,
    assert_cluster_invariant,
    run_cluster_chaos,
)

SEEDS = ([int(os.environ["CHAOS_SEED"])]
         if os.environ.get("CHAOS_SEED") else [0, 1])


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_invariant_holds(seed, tmp_path):
    outcome = run_cluster_chaos(
        ClusterChaosScenario(seed=seed), artifact_root=tmp_path
    )
    assert_cluster_invariant(outcome)
    # the storm actually stormed, and the cluster actually absorbed it:
    # clean bit-identical service, real failovers with causal records,
    # and a peer heal -- all present, not skipped
    assert outcome.classified.get("identical", 0) > 0
    assert outcome.classified.get("failover", 0) > 0
    assert outcome.healed and outcome.rebuilds == 0
    assert all(h["via"].startswith("peer:") for h in outcome.healed)
    assert outcome.router["hedges"] > 0  # the slow replica was hedged
    # reconciliation ran over nonzero books (all-zero sums prove nothing)
    assert any(
        sums["router_ops"] > 0
        for sums in outcome.reconciliation.values()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_invariant_holds_with_coalescing(seed, tmp_path):
    """The same storm with replica-side request coalescing on: fused
    shard legs must stay bit-identical, failovers keep their causal
    records, and per-shard op books still reconcile exactly across the
    router's legs, every replica generation, and the responses."""
    outcome = run_cluster_chaos(
        ClusterChaosScenario(seed=seed, coalesce=True),
        artifact_root=tmp_path,
    )
    assert_cluster_invariant(outcome)
    assert outcome.classified.get("identical", 0) > 0
    assert outcome.classified.get("failover", 0) > 0
    assert any(
        sums["router_ops"] > 0
        for sums in outcome.reconciliation.values()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_double_kill_forces_explicit_degradation(seed, tmp_path):
    outcome = run_cluster_chaos(
        ClusterChaosScenario(seed=seed, double_kill=True),
        artifact_root=tmp_path,
    )
    assert_cluster_invariant(outcome)
    # with every owner of shard 0 down for a window, the router served
    # the explicitly degraded closed-form answer -- never a hang, never
    # a silent wrong answer
    assert outcome.classified.get("degraded", 0) > 0
    assert outcome.causes_seen.get("unavailable", 0) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_topology_storm_invariant_holds(seed, tmp_path):
    """The elastic storm: the same invariant must hold while the
    topology itself is changing under the traffic."""
    outcome = run_cluster_chaos(
        ClusterChaosScenario(seed=seed, scale_events=True),
        artifact_root=tmp_path,
    )
    assert_cluster_invariant(outcome)
    # every scheduled topology event actually happened
    assert [e["op"] for e in outcome.topology] == \
        ["add", "split", "remove"]
    add = outcome.topology[0]
    assert add["refits"] == 0  # warmed from peer bytes, never refitted
    assert all(w["via"].startswith("peer:") for w in add["warmed"])
    # the corrupted donor was healed mid-storm, from a peer
    assert outcome.warm_heals > 0 and outcome.rebuilds == 0
    # every fence refused its stale-epoch probe (add, split, remove)
    assert outcome.stale_rejections == 3
    # the books span multiple epochs and still reconcile (the invariant
    # asserted the cross-epoch sums; here: the handoffs really happened)
    assert len(outcome.epoch_books) >= 3
    # split successors carried charged traffic of their own
    children = outcome.topology[1]["children"]
    for child in children:
        assert outcome.reconciliation[child]["router_ops"] > 0
    # the parent's pre-split charges survived the handoff
    parent = outcome.topology[1]["shard"]
    assert outcome.reconciliation[parent]["router_ops"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_controller_storm_shrinks_topology(seed, tmp_path):
    """The autonomous storm: the controller must merge the stranded
    cheap pair under decaying load -- through a mid-surgery replica
    kill and a post-fence artifact corruption -- with the full
    invariant intact and the flap counter at zero."""
    outcome = run_cluster_chaos(
        ClusterChaosScenario(seed=seed, n_shards=3, controller=True,
                             controller_dwell=2, merge_when=2.5),
        artifact_root=tmp_path,
    )
    assert_cluster_invariant(outcome)
    ctl = outcome.controller
    # the topology shrank: the invariant already asserted end < start
    # and flaps == 0; here, the storm's specific shape
    assert ctl["shards_start"] == 3 and ctl["shards_end"] == 2
    assert ctl["counters"]["merge"] == 1
    # the controller waited out the dwell window before firing
    assert ctl["counters"]["dwell_waits"] >= 1
    merges = [e for e in outcome.topology if e["op"] == "controller:merge"]
    assert len(merges) == 1
    merged = merges[0]["successors"][0]
    # the merged child is on the controller's birth book (flap guard)
    assert str(merged) in {str(k) for k in ctl["born"]}
    # zero erroneous responses anywhere in the storm
    assert outcome.classified.get("untyped_error", 0) == 0
    assert outcome.classified.get("mismatch", 0) == 0
    # the post-fence corruption was healed by peer adoption, no refit
    assert outcome.warm_heals > 0 and outcome.rebuilds == 0
    # the merged shard carried charged traffic under the new epoch
    assert outcome.reconciliation[merged]["router_ops"] > 0
    # the merge fence refused its stale-epoch probe
    assert outcome.stale_rejections == 1


def test_storm_without_failures_is_all_identical(tmp_path):
    """Reduced storm: no corruption, no slow or faulty replica -- only
    the kill/restart cycle remains.  Every verdict must be bit-identical
    (direct or via failover), nothing needs healing."""
    outcome = run_cluster_chaos(
        ClusterChaosScenario(
            seed=3, rounds=3, corrupt_replicas=0,
            slow_replica=False, faulty_replica=False,
        ),
        artifact_root=tmp_path,
    )
    assert not outcome.violations
    assert outcome.classified.get("mismatch", 0) == 0
    assert outcome.classified.get("untyped_error", 0) == 0
    assert outcome.healed == []
