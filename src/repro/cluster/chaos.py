"""Cluster chaos harness: replica storms with an exact invariant.

PR 6's service harness proved the single-node contract; this one
extends it across whole-replica loss.  A seeded storm drives the
cluster through replica kills and restarts, per-replica artifact
corruption, a slow replica (hedged around), a faulty replica (typed
error responses tripping its breaker), and deliberate routing-table
staleness (the table keeps naming a killed replica).  The invariant:

* **every request terminates** in exactly one of four ways --
  bit-identical to the unloaded single-replica reference, served by
  failover *with a causal record* (``tried`` explains every candidate
  passed over, and the answer is still bit-identical), explicitly
  degraded (closed-form fallback, ``cause="unavailable"``), or a typed
  error; never hung, never silently wrong;
* **single-kill availability** -- while at most one replica is down,
  no request for a shard with a healthy peer may end unavailable;
* **anti-entropy heals without refitting** -- a corrupt artifact
  planted before the storm is adopted bit-identically from a peer
  (``"adopted"`` in the store's events, zero ``"rebuilt"``);
* **per-shard op sums reconcile exactly** four ways: the router's
  drained per-leg sums == the sum over every replica's ledgers
  (including ledgers retired by kills) == the sum over the responses'
  own legs == the per-epoch books summed across epochs.

**The controller axis** (``controller=True``) hands the topology to
the autonomous loop instead of the operator: the storm starts
over-partitioned (one blob carved into a cheap sibling pair), traffic
*decays* a third of the way in, and the controller -- ticked
deterministically once per round -- must notice the stranded pair,
wait out its dwell window, and merge it while one of the pair's owners
is killed mid-surgery and the merged artifact is corrupted right after
the fence (anti-entropy must adopt a peer's bytes, never refit).  The
invariant extends: the topology must *shrink* with zero erroneous
responses, the flap counter must stay zero (no split-then-merge or
inverse within the dwell window), and the per-epoch op books still
reconcile exactly across the autonomous fence.

**The topology axis** (``scale_events=True``) drives the same storm
through *elastic* transitions: a replica is scaled out mid-storm with
a deliberately corrupted donor artifact (warming must skip the corrupt
copy, adopt a verified peer's bytes, and refit nothing), killed right
after the handoff and later restarted; a shard is split into freshly
tuned successors while its traffic continues; the scaled-out replica
is finally removed with a graceful drain.  A stale-epoch probe pins
each topology change's *previous* epoch and must be refused with a
typed :class:`~repro.errors.StaleRoutingEpochError`, then succeed on
retry against the fresh table.  The invariant extends across every
epoch boundary: each response is still identical / failover-with-
cause / degraded-with-cause / typed -- never dropped -- and the
per-epoch op books summed across epochs equal the drained per-shard
sums to the op.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import PredictionError, StaleRoutingEpochError
from ..runtime.storm import HANG_TIMEOUT_S, StormOutcome
from ..service.server import WorkerDeath
from ..workload.queries import density_biased_knn_workload
from .cluster import PredictionCluster
from .replicas import shard_tenant

__all__ = [
    "ClusterChaosOutcome",
    "ClusterChaosScenario",
    "assert_cluster_invariant",
    "run_cluster_chaos",
]


@dataclass(frozen=True)
class ClusterChaosScenario:
    """One deterministic cluster storm.

    ``seed`` drives the dataset, the partition, the request stream, and
    the kill schedule.  ``rounds`` requests are issued per shard; the
    primary of shard 0 is killed a third of the way in (the routing
    table is *left stale* on purpose), restarted two thirds in, and --
    when ``double_kill`` is set -- the remaining owner of shard 0 is
    also killed for a window, forcing the degraded/unavailable path.
    ``corrupt_replicas`` artifacts of shard 0 are corrupted *before*
    the storm; the pre-storm anti-entropy pass must heal them from a
    peer without a single rebuild.

    ``scale_events`` adds the topology axis: scale-out with a corrupt
    donor early in the storm, a kill of the freshly added replica
    right after the handoff, a mid-storm split of shard 1, a stale-
    epoch probe at each fence, and a graceful scale-in near the end.

    ``controller`` adds the autonomous axis: the cluster starts
    over-partitioned (use ``n_shards=3`` so one blob is carved into a
    cheap sibling pair), per-round request volume decays at
    ``rounds // 3``, and the controller is ticked once per round; one
    owner of the merge pair is killed on the tick that fires the
    surgery and the merged artifact is corrupted right after it.
    """

    seed: int = 0
    n_points: int = 600
    dim: int = 5
    n_shards: int = 2
    n_replicas: int = 3
    replication: int = 2
    rounds: int = 18
    n_queries: int = 6
    k: int = 5
    memory: int = 200
    corrupt_replicas: int = 1
    slow_replica: bool = True
    faulty_replica: bool = True
    double_kill: bool = False
    scale_events: bool = False
    controller: bool = False
    controller_dwell: int = 2
    merge_when: float = 1.5
    slow_s: float = 0.12
    hedge_after_s: float = 0.04
    #: run every replica service with the batched execution plane on --
    #: the cluster invariant (bit-identity / failover-with-cause /
    #: degraded / typed, plus exact per-shard op reconciliation of the
    #: split attributions) must hold unchanged
    coalesce: bool = False


@dataclass(kw_only=True)
class ClusterChaosOutcome(StormOutcome):
    """What one storm observed, classified request by request.

    ``reconciliation`` holds four op sums per shard that must agree:
    the router's drained legs, every replica generation's ledgers, the
    responses' own legs, and the per-epoch books summed across epochs.
    """

    typed_errors = frozenset({
        "ReplicaUnavailableError",
        "DeadlineExceededError",
        "ServiceOverloadedError",
        "TenantQuotaExceededError",
        "WorkerDeath",
    })

    healed: list[dict] = field(default_factory=list)
    rebuilds: int = 0
    router: dict = field(default_factory=dict)
    #: topology events (scale-out/in, splits) the storm performed
    topology: list = field(default_factory=list)
    #: charged ops per routing epoch per shard (epoch fence books)
    epoch_books: dict = field(default_factory=dict)
    #: stale-epoch probes that were (correctly) refused with the typed error
    stale_rejections: int = 0
    #: artifacts healed *mid-storm* (the corrupted scale-out donor)
    warm_heals: int = 0
    #: controller-axis summary: shard counts and the loop's own report
    controller: dict = field(default_factory=dict)

    def has_record(self, response) -> bool:
        # a failover must name every candidate it passed over; a
        # degraded verdict carries its cause and is not checked further
        return response.failover_from is None or bool(response.tried)

    def summary(self) -> dict:
        return {
            **super().summary(),
            "healed": list(self.healed),
            "rebuilds": self.rebuilds,
            "router": self.router,
            "topology": list(self.topology),
            "stale_rejections": self.stale_rejections,
            "warm_heals": self.warm_heals,
            "controller": dict(self.controller),
            "epoch_books": {
                str(epoch): {str(s): int(v) for s, v in book.items()}
                for epoch, book in sorted(self.epoch_books.items())
            },
        }


def two_blob_dataset(rng, *, n_points, dim, n_shards, k):
    """The cluster storms' data and tuning workload.

    Two gaussian blobs pulled apart, so the similarity partition has
    real structure to find and the shards genuinely differ.
    """
    half = n_points // 2
    data = np.vstack([
        rng.normal(loc=0.0, scale=1.0, size=(half, dim)),
        rng.normal(loc=6.0, scale=0.5, size=(n_points - half, dim)),
    ])
    tuning = density_biased_knn_workload(data, max(16, 4 * n_shards), k, rng)
    return data, tuning


def run_cluster_chaos(
    scenario: ClusterChaosScenario, *, artifact_root: str
) -> ClusterChaosOutcome:
    """Run one seeded storm against a fresh cluster; classify everything."""
    rng = np.random.default_rng(scenario.seed)
    outcome = ClusterChaosOutcome(scenario=scenario)

    data, tuning = two_blob_dataset(
        rng, n_points=scenario.n_points, dim=scenario.dim,
        n_shards=scenario.n_shards, k=scenario.k,
    )

    latency_factors = {}
    if scenario.slow_replica:
        latency_factors["replica-2"] = 3.0  # routed last, hedged around

    cluster = PredictionCluster(
        data, tuning,
        artifact_root=artifact_root,
        n_shards=scenario.n_shards,
        n_replicas=scenario.n_replicas,
        replication=scenario.replication,
        memory=scenario.memory,
        fit_seed=scenario.seed,
        seed=scenario.seed,
        latency_factors=latency_factors,
        hedge_after_s=scenario.hedge_after_s,
        merge_when=scenario.merge_when,
        coalesce=scenario.coalesce,
    )
    controller = None
    if scenario.controller:
        # Attached but never started: the storm drives tick() itself so
        # the kill/corrupt schedule lands deterministically mid-surgery.
        controller = cluster.start_controller(
            autostart=False,
            dwell_epochs=scenario.controller_dwell,
            cooldown_epochs=2,
        )
        outcome.controller["shards_start"] = len(cluster.active_shards())

    def heal(when: str, *, mid_storm: bool = True) -> dict:
        """One anti-entropy pass.  Every heal in this storm has a
        verified peer copy, so a rebuild from data is a violation."""
        report = cluster.anti_entropy()
        rebuilt = [s for s, entry in report.items()
                   if entry["rebuilt"] is not None]
        if rebuilt:
            outcome.violations.append(
                f"{when} heal rebuilt shard(s) {rebuilt} from data "
                f"although verified peers existed"
            )
        if mid_storm:
            outcome.warm_heals += sum(
                len(entry["healed"]) for entry in report.values()
            )
        return report

    # --- pre-storm corruption + anti-entropy heal ---------------------
    shard0_owners = cluster.router.table.owners_of(0)
    victims = list(shard0_owners[:scenario.corrupt_replicas])
    reference_bytes = {
        name: cluster.replicas[name].artifact_path(0).read_bytes()
        for name in shard0_owners
    }
    for name in victims:
        cluster.corrupt_artifact(name, 0)
    outcome.healed = heal("pre-storm", mid_storm=False)[0]["healed"]
    healed_names = {entry["replica"] for entry in outcome.healed}
    if healed_names != set(victims):
        outcome.violations.append(
            f"anti-entropy healed {sorted(healed_names)}, "
            f"expected {sorted(victims)}"
        )
    for name in victims:
        healed_bytes = cluster.replicas[name].artifact_path(0).read_bytes()
        if healed_bytes != reference_bytes[name]:
            outcome.violations.append(
                f"healed artifact on {name} is not bit-identical to the "
                f"pre-corruption bytes"
            )
    outcome.rebuilds = sum(
        replica.service.store.rebuilds()
        for replica in cluster.replicas.values()
    )
    if outcome.rebuilds:
        outcome.violations.append(
            f"{outcome.rebuilds} data rebuild(s) during peer heal"
        )

    # --- chaos knobs on the live replicas -----------------------------
    if scenario.slow_replica:
        cluster.replicas["replica-2"].slow_s = scenario.slow_s
    if scenario.faulty_replica:
        # replica-1 kills a deterministic third of its shard-1 requests;
        # the dying worker answers with a typed error first, which is
        # what feeds the router's breaker and triggers failover.  The
        # fault is scoped to shard 1 so it exercises failover on a
        # *live* primary while shard 0 tests failover on a *dead* one
        # -- replica-1 is also shard 0's only failover target, and a
        # replica faulting everywhere would make the single-kill
        # availability guarantee untestable.
        def faulty_hook(item) -> None:
            if (item.tenant.name == shard_tenant(1)
                    and item.pending.request_id % 3 == 0):
                raise WorkerDeath(
                    f"chaos kill of request {item.pending.request_id}"
                )
        cluster.replicas["replica-1"].request_hook = faulty_hook

    # --- unloaded references: the bit-identity oracle -----------------
    # Warm predictions depend only on (shard points, tuned config,
    # fit_seed), so any live owner's model is *the* reference.  Split
    # successors get their reference installed the moment they exist.
    workloads: dict[int, object] = {}
    references: dict[int, np.ndarray] = {}

    def install_reference(shard: int) -> None:
        workload = shard_workload(
            cluster, shard, scenario.n_queries, scenario.k, rng
        )
        workloads[shard] = workload
        for owner in cluster.router.table.owners_of(shard):
            replica = cluster.replicas[owner]
            if replica.down or replica.service is None:
                continue
            model = replica.service.tenant(shard_tenant(shard)).model
            references[shard] = model.predict(workload).per_query.copy()
            return
        outcome.violations.append(
            f"no live owner to build shard {shard}'s reference"
        )

    for shard in cluster.active_shards():
        install_reference(shard)

    # --- the storm ----------------------------------------------------
    primary0 = shard0_owners[0]
    peer0 = shard0_owners[1] if len(shard0_owners) > 1 else None
    kill_at = scenario.rounds // 3
    restart_at = 2 * scenario.rounds // 3
    double_window = (
        range(kill_at + 1, restart_at - 1) if scenario.double_kill
        else range(0)
    )
    # Topology schedule (scale_events only), interleaved with the kill
    # storm but never overlapping its down window with another down
    # replica, so the single-kill availability guarantee stays testable.
    scale_add_at = 2 if scenario.scale_events else -1
    scale_kill_at = scale_add_at + 1       # killed right after handoff
    scale_restart_at = scale_add_at + 3
    split_at = scenario.rounds // 2 if scenario.scale_events else -1
    scale_remove_at = (
        (7 * scenario.rounds) // 9 if scenario.scale_events else -1
    )
    scaled_name: str | None = None
    responses = []

    def downs() -> int:
        return sum(1 for r in cluster.replicas.values() if r.down)

    def send(shard: int, method: str = "warm", **kwargs) -> None:
        """One request, filed with the submit-time down count and owner
        set the single-kill availability rule is judged against."""
        down, owners = downs(), cluster.router.table.owners_of(shard)
        response = cluster.request(shard, workloads[shard], method=method,
                                   **kwargs)
        responses.append((shard, down, method, owners, response))

    def probe_stale(shard: int, pinned_epoch: int) -> None:
        """Pin the fenced-off epoch: the dispatch must be refused with
        the typed error, and the un-pinned retry must serve normally
        -- the stale-router recovery story, exercised at every fence."""
        try:
            cluster.request(shard, workloads[shard], epoch=pinned_epoch)
        except StaleRoutingEpochError:
            outcome.stale_rejections += 1
        else:
            outcome.violations.append(
                f"dispatch pinned to fenced-off epoch {pinned_epoch} "
                f"(shard {shard}) was not refused"
            )
        send(shard)

    # Controller-axis schedule: the merge fires on tick ``dwell`` (the
    # pair is a candidate from tick 1 and must persist the dwell
    # window), so the mid-surgery kill lands on that round's tick and
    # the victim restarts two rounds later.  Request volume decays a
    # third of the way in -- the load story that justifies shrinking.
    merge_kill_at = (
        scenario.controller_dwell - 1 if scenario.controller else -1
    )
    decay_at = scenario.rounds // 3 if scenario.controller else -1
    merge_victim: str | None = None
    heal_pending = False

    def controller_tick(round_i: int) -> None:
        nonlocal merge_victim, heal_pending
        pre_epoch = cluster.router.table.epoch
        if round_i == merge_kill_at:
            pairs = cluster.topology.merge_candidates()
            if pairs:
                owners = cluster.router.table.owners_of(pairs[0]["pair"][0])
                if len(owners) > 1 and downs() == 0:
                    merge_victim = owners[-1]
                    cluster.kill_replica(merge_victim)
        record = controller.tick()
        if record["action"] not in ("idle",) and "skip" not in record["action"]:
            outcome.topology.append(
                {"op": f"controller:{record['action']}", **{
                    k: v for k, v in record.items()
                    if k in ("tick", "pair", "shard", "successors", "ratio")
                }}
            )
        for successor in record.get("successors", ()):
            install_reference(successor)
        if record["action"] == "merge":
            merged = record["successors"][0]
            # Corrupt one owner's copy of the *just-merged* artifact.
            # The warm in-memory model keeps serving bit-identically;
            # the on-disk rot is healed once every listed owner is back
            # up -- anti-entropy must adopt a verified peer's bytes,
            # never refit.
            owner = cluster.router.table.owners_of(merged)[0]
            cluster.corrupt_artifact(owner, merged)
            heal_pending = True
            probe_stale(merged, pre_epoch)
        if round_i == merge_kill_at + 2:
            if merge_victim is not None:
                cluster.restart_replica(merge_victim)
                merge_victim = None
            if heal_pending:
                heal("post-merge")
                heal_pending = False

    try:
        for round_i in range(scenario.rounds):
            if controller is not None:
                controller_tick(round_i)
            if round_i == scale_add_at:
                # Scale out with a sabotaged donor: corrupt the
                # cost-ordered first owner's copy of shard 0 -- the
                # artifact the warm path would read first -- so the
                # peer-bytes warm-up must skip it for a verified peer.
                donor0 = cluster.router.table.owners_of(0)[0]
                cluster.corrupt_artifact(donor0, 0)
                pre_epoch = cluster.router.table.epoch
                report = cluster.add_replica()
                scaled_name = report["replica"]
                outcome.topology.append({
                    "op": "add", "replica": scaled_name,
                    "epoch": report["epoch"],
                    "refits": report["refits"],
                    "warmed": report["warmed"],
                })
                if report["refits"]:
                    outcome.violations.append(
                        f"scale-out refit {report['refits']} artifact(s) "
                        f"although verified peers existed"
                    )
                if any(w["shard"] == 0 and w["via"] == f"peer:{donor0}"
                       for w in report["warmed"]):
                    outcome.violations.append(
                        f"scale-out warmed shard 0 from the corrupted "
                        f"donor {donor0}"
                    )
                heal("mid-storm")  # the sabotaged donor, from a peer
                probe_stale(0, pre_epoch)
            if round_i == scale_kill_at and scaled_name is not None:
                cluster.kill_replica(scaled_name)
            if round_i == scale_restart_at and scaled_name is not None:
                cluster.restart_replica(scaled_name)
            if round_i == split_at:
                # Split the highest non-zero shard (shard 0 is the kill
                # storm's stage) into freshly tuned successors.
                target = max(
                    (s for s in cluster.active_shards() if s != 0),
                    default=None,
                )
                pre_epoch = cluster.router.table.epoch
                if target is not None:
                    try:
                        children = cluster.split_shard(target)
                    except PredictionError as error:
                        outcome.topology.append({
                            "op": "split-refused", "shard": target,
                            "reason": str(error),
                        })
                    else:
                        outcome.topology.append({
                            "op": "split", "shard": target,
                            "children": list(children),
                            "epoch": cluster.router.table.epoch,
                        })
                        for child in children:
                            install_reference(child)
                        probe_stale(children[0], pre_epoch)
            if round_i == scale_remove_at and scaled_name is not None:
                pre_epoch = cluster.router.table.epoch
                report = cluster.remove_replica(scaled_name)
                outcome.topology.append({
                    "op": "remove", "replica": scaled_name,
                    "epoch": report["epoch"],
                    "retired_ops": report["retired_ops"],
                })
                probe_stale(cluster.active_shards()[0], pre_epoch)
                scaled_name = None
            if round_i == kill_at:
                # Kill shard 0's primary and *leave the routing table
                # stale* -- the router must discover the loss itself.
                cluster.kill_replica(primary0)
            if scenario.double_kill and peer0 is not None:
                if round_i == double_window.start:
                    cluster.kill_replica(peer0)
                if round_i == double_window.stop:
                    cluster.restart_replica(peer0)
            if round_i == restart_at:
                cluster.restart_replica(primary0)
            # The controller axis models its load decay explicitly:
            # double request volume before ``decay_at``, single after
            # -- the drop in demand is what justifies shrinking.
            reps = 2 if scenario.controller and round_i < decay_at else 1
            for shard in cluster.active_shards():
                for _ in range(reps):
                    send(shard)
                if round_i % 3 == 2:
                    # A charged full-method request per shard every
                    # third round keeps the reconciliation sums nonzero
                    # -- warm requests charge no I/O, and an invariant
                    # over all-zero books proves nothing.
                    send(shard, "cutoff", seed=round_i)
        cluster.wait_idle(HANG_TIMEOUT_S)
        response_ops = Counter()
        for shard, down_at_submit, method, owners, response in responses:
            response_ops[shard] += response.charged_ops()
            label = f"request {response.request_id} (shard {shard})"
            # Bit-identity is a *warm* guarantee: every owner holds the
            # same fitted geometry.  Full methods sample afresh.
            outcome.classify(
                response, label,
                expected=references[shard] if method == "warm" else None,
            )
            # Single-kill availability: with at most one replica down
            # and a second owner listed at submit time (``owners`` is
            # the submit-time set -- a retired shard has no final
            # owners), no verdict may end unavailable.
            unavailable = (response.method_used == "closed_form"
                           or response.error_type
                           == "ReplicaUnavailableError")
            if unavailable and down_at_submit <= 1 and len(owners) >= 2:
                outcome.violations.append(
                    f"{label} unavailable although a healthy peer owned "
                    f"the shard (down={down_at_submit}, "
                    f"tried={response.tried})"
                )

        # --- reconciliation: four per-shard sums must agree -----------
        # Over every shard that ever carried traffic -- retired parents
        # included: a split must not make a parent's charges vanish.
        # Summed across epochs, the per-epoch books must equal the
        # drained sums to the op: the two-epoch overlap of every
        # handoff is exactly attributed, never double-counted.
        router_ops = cluster.router.drain(timeout_s=HANG_TIMEOUT_S)
        epoch_ops = Counter()
        for epoch, book in cluster.router.epoch_ops(
            timeout_s=HANG_TIMEOUT_S
        ).items():
            outcome.epoch_books[epoch] = dict(book)
            epoch_ops.update(book)
        outcome.reconcile({
            shard: {
                "router_ops": int(router_ops.get(shard, 0)),
                "replica_ops": cluster.charged_ops(shard),
                "response_ops": int(response_ops[shard]),
                "epoch_ops": int(epoch_ops[shard]),
            }
            for shard in sorted(set(response_ops)
                                | set(cluster.active_shards()))
        })
        outcome.router = cluster.router.metrics()
        if controller is not None:
            report = controller.report()
            outcome.controller.update({
                "shards_end": len(cluster.active_shards()),
                "flaps": report["flaps"],
                "counters": dict(report["counters"]),
                "born": report["born"],
                "epoch": report["epoch"],
            })
    finally:
        cluster.stop()
    return outcome


def shard_workload(cluster, shard, n_queries, k, rng):
    """A workload whose queries all belong to one shard: drawn from the
    shard's own points, radii against the shard's points (matching what
    the shard's tenant serves)."""
    return density_biased_knn_workload(
        cluster.shard_points[shard], n_queries, k, rng
    )


def assert_cluster_invariant(outcome: ClusterChaosOutcome) -> None:
    """The cluster invariant, as one assertion."""
    outcome.assert_clean("cluster")
    if outcome.scenario.scale_events:
        assert outcome.stale_rejections > 0, (
            "topology storm ran but no stale-epoch probe was refused "
            "-- the fence is not fencing"
        )
    if outcome.scenario.controller:
        ctl = outcome.controller
        assert ctl["shards_end"] < ctl["shards_start"], (
            f"controller storm ended with {ctl['shards_end']} shards, "
            f"started with {ctl['shards_start']} -- the load decay was "
            f"never absorbed into a smaller topology"
        )
        assert ctl["counters"].get("merge", 0) >= 1, (
            "controller storm fired no merge"
        )
        assert ctl["flaps"] == 0, (
            f"controller flapped {ctl['flaps']} time(s): a shard was "
            f"split and merged back (or inverse) within the dwell window"
        )
        assert outcome.stale_rejections > 0, (
            "controller merge fenced no stale probe -- the autonomous "
            "surgery is not epoch-fenced"
        )
