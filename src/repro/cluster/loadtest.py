"""Cluster load test: routed throughput and the cost of failover.

Two questions the committed ``BENCH_cluster.json`` answers on record:

1. what does similarity-sharded routing cost or buy against a single
   service given the *same total worker count* (``n_replicas x
   workers_per_replica``), and
2. what does a mid-window replica kill do to the tail -- the
   ``failover`` block isolates the latency of responses that were
   actually served by a non-primary owner, so the p99 of failover
   itself is a number, not an anecdote.

Closed-loop clients (one per shard, plus matching clients on the
baseline) hammer for a fixed wall-clock window; a third of the way in
the primary owner of shard 0 is killed, two thirds in it is restarted
-- the routed side must keep answering through both transitions.

:func:`run_controller_loadtest` measures the *autonomous* question: an
over-partitioned cluster under closed-loop load has its load decay a
third of the way in (one client retires); the topology controller,
ticked by an operator thread, notices the stranded cheap sibling pair,
waits out its dwell window, and merges -- shrinking the topology under
live traffic.  The committed ``BENCH_controller.json`` must show the
loop absorbed the surgery: zero errored responses across the merge
fence, zero refits (the merged artifact is fitted once and adopted by
peers), post-merge throughput within noise of pre-merge, and a zero
flap counter.

:func:`run_elasticity_loadtest` measures the *elastic* question
instead: a cluster under closed-loop load scales out mid-window -- a
new replica is built, warmed from peer bytes, and fenced in under a
new routing epoch while the clients keep hammering.  The committed
``BENCH_elasticity.json`` must show the handoff was absorbed (zero
errors across the epoch change) and that routing followed the new
table (post-scale >= pre-scale).  That ratio is synthetic: the
starting replicas carry a small per-request delay and the scaled-out
replica does not, so it measures traffic moving onto the undelayed
replica, not added capacity.  The payload records the delay
(``baseline_slow_s``) and the new replica's advertised cost
(``scale_latency_factor``) next to it.

Every load test here runs on :class:`~repro.runtime.storm.ClosedLoop`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from ..runtime.storm import ClosedLoop, percentiles, record_of
from ..service.server import PredictionService
from ..workload.queries import density_biased_knn_workload
from .chaos import shard_workload, two_blob_dataset
from .cluster import PredictionCluster

__all__ = [
    "ClusterLoadTestResult",
    "ControllerLoadTestResult",
    "ElasticityLoadTestResult",
    "run_cluster_loadtest",
    "run_controller_loadtest",
    "run_elasticity_loadtest",
]


def _build_cluster(*, seed, n_points, dim, n_shards, k, **cluster_kwargs):
    """The two-blob data and a fresh cluster over it."""
    data, tuning = two_blob_dataset(
        np.random.default_rng(seed), n_points=n_points, dim=dim,
        n_shards=n_shards, k=k,
    )
    cluster = PredictionCluster(
        data, tuning, n_shards=n_shards, fit_seed=seed, seed=seed,
        **cluster_kwargs,
    )
    return data, cluster


def _one_request(request):
    """A closed-loop client step that makes one request."""
    return lambda: [record_of(request())]


def _shard_clients(cluster, n_queries, k, seed) -> list:
    """One closed-loop client per active shard, hammering its shard."""
    return [
        _one_request(partial(
            cluster.request, shard,
            shard_workload(cluster, shard, n_queries, k,
                           np.random.default_rng(seed + shard)),
        ))
        for shard in cluster.active_shards()
    ]


@dataclass
class ClusterLoadTestResult:
    """One routed-vs-single window, summarized for the benchmark file.

    ``cluster`` counts the routed side's verdicts (``ok`` includes the
    ``failover`` ones) with overall and failover-only latency
    percentiles; ``single`` is the equal-worker single-service baseline.
    """

    duration_s: float
    n_shards: int
    n_replicas: int
    replication: int
    workers_total: int
    cluster: dict = field(default_factory=dict)
    single: dict = field(default_factory=dict)
    router: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def run_cluster_loadtest(
    *,
    artifact_root: str,
    n_shards: int = 2,
    n_replicas: int = 3,
    replication: int = 2,
    workers_per_replica: int = 2,
    duration_s: float = 1.5,
    n_points: int = 600,
    dim: int = 6,
    memory: int = 200,
    n_queries: int = 16,
    k: int = 5,
    seed: int = 0,
    kill_mid_window: bool = True,
) -> ClusterLoadTestResult:
    """One measured window: routed cluster vs equal-worker single service.

    With ``kill_mid_window`` the primary of shard 0 is killed at t/3 and
    restarted at 2t/3, so the window contains a whole failover-and-
    recovery cycle and the failover percentiles are populated.
    """
    data, cluster = _build_cluster(
        seed=seed, n_points=n_points, dim=dim, n_shards=n_shards, k=k,
        artifact_root=artifact_root, n_replicas=n_replicas,
        replication=replication, workers_per_replica=workers_per_replica,
        memory=memory,
    )
    primary0 = cluster.router.table.owners_of(0)[0]

    def chaos_operator() -> None:
        time.sleep(duration_s / 3)
        cluster.kill_replica(primary0)
        time.sleep(duration_s / 3)
        cluster.restart_replica(primary0)

    try:
        routed = ClosedLoop().run(
            _shard_clients(cluster, n_queries, k, seed), duration_s,
            chaos_operator if kill_mid_window else None,
        )
        router = cluster.router.metrics()
    finally:
        cluster.stop()
    counts = routed.counts()
    whole = routed.window("start", "end")

    # --- single-service baseline: same total workers, one tenant ------
    service = PredictionService(
        workers=n_replicas * workers_per_replica, memory=memory,
    )
    service.register_tenant("all", data, fit_seed=seed)
    baseline_workload = density_biased_knn_workload(
        data, n_queries, k, np.random.default_rng(seed)
    )
    with service:
        single = ClosedLoop().run(
            [_one_request(partial(service.request, "all", baseline_workload))
             for _ in range(n_shards)],
            duration_s,
        ).window("start", "end")

    return ClusterLoadTestResult(
        duration_s=duration_s, n_shards=n_shards, n_replicas=n_replicas,
        replication=replication,
        workers_total=n_replicas * workers_per_replica,
        cluster={
            **whole,
            "ok": counts["ok"] + counts["failover"],
            "failover": counts["failover"],
            "degraded": counts["degraded"],
            "failover_latency_ms": percentiles(
                end - start for start, end, status in routed.records
                if status == "failover"
            ),
        },
        single={key: single[key]
                for key in ("resolved", "throughput_rps", "latency_ms")},
        router=router,
    )


@dataclass
class ElasticityLoadTestResult:
    """One mid-window scale-out, split into pre/mid/post sub-windows.

    ``pre`` covers requests fully resolved before the scale-out began,
    ``post`` requests started after the new table was installed, and
    ``mid`` everything straddling the handoff -- the requests the
    epoch fence must absorb without a single dropped or errored
    response.

    ``post_over_pre`` is the throughput ratio the benchmark asserts on.
    It is a *routing* ratio, not added capacity: the starting replicas
    carry ``baseline_slow_s`` of synthetic per-request delay, and the
    added replica carries none and advertises ``scale_latency_factor``
    so the router moves primary traffic onto it.
    """

    duration_s: float
    n_shards: int
    n_replicas_start: int
    baseline_slow_s: float
    scale_latency_factor: float
    scale: dict = field(default_factory=dict)
    pre: dict = field(default_factory=dict)
    mid: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)
    errors: int = 0
    post_over_pre: float = 0.0
    router: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def run_elasticity_loadtest(
    *,
    artifact_root: str,
    n_shards: int = 2,
    n_replicas: int = 2,
    replication: int = 2,
    workers_per_replica: int = 2,
    duration_s: float = 1.5,
    n_points: int = 600,
    dim: int = 6,
    memory: int = 200,
    n_queries: int = 16,
    k: int = 5,
    seed: int = 0,
    baseline_slow_s: float = 0.004,
    scale_latency_factor: float = 0.5,
) -> ElasticityLoadTestResult:
    """One measured window with a scale-out a third of the way in.

    The starting replicas each carry ``baseline_slow_s`` of synthetic
    per-request delay; the replica added mid-window does not, and its
    ``scale_latency_factor`` advertises it as the cheapest owner, so
    the router's cost ordering moves primary traffic onto it the
    moment the new epoch's table lands.  Post-scale throughput beating
    pre-scale therefore shows that routing followed the new table; its
    size is set by the synthetic delay, not by added capacity.
    """
    _, cluster = _build_cluster(
        seed=seed, n_points=n_points, dim=dim, n_shards=n_shards, k=k,
        artifact_root=artifact_root, n_replicas=n_replicas,
        replication=replication, workers_per_replica=workers_per_replica,
        memory=memory,
    )
    for replica in cluster.replicas.values():
        replica.slow_s = baseline_slow_s
    loop = ClosedLoop()
    scale: dict = {}

    def scale_operator() -> None:
        time.sleep(duration_s / 3)
        started = loop.mark("scale_start")
        report = cluster.add_replica(latency_factor=scale_latency_factor)
        done = loop.mark("scale_done")
        scale.update(report, wall_s=round(done - started, 4))

    try:
        loop.run(_shard_clients(cluster, n_queries, k, seed), duration_s,
                 scale_operator)
        pre = loop.window("start", "scale_start")
        post = loop.window("scale_done", "end")
        return ElasticityLoadTestResult(
            duration_s=duration_s, n_shards=n_shards,
            n_replicas_start=n_replicas,
            baseline_slow_s=baseline_slow_s,
            scale_latency_factor=scale_latency_factor,
            scale=scale,
            pre=pre,
            mid=loop.straddling("scale_start", "scale_done"),
            post=post,
            errors=loop.counts()["error"],
            post_over_pre=round(
                post["throughput_rps"] / max(pre["throughput_rps"], 1e-9), 3
            ),
            router=cluster.router.metrics(),
        )
    finally:
        cluster.stop()


@dataclass
class ControllerLoadTestResult:
    """One load-decay window absorbed by the autonomous controller.

    ``pre`` covers requests fully resolved between the load decay and
    the merge surgery (same client population as ``post``, so the
    throughput ratio is apples-to-apples), ``post`` requests started
    after the merged table landed, and ``mid`` everything straddling
    the surgery.  ``post_over_pre`` is the ratio the benchmark gates
    on: the merge must be absorbed, not paid for in throughput.
    """

    duration_s: float
    n_shards_start: int
    n_shards_end: int = 0
    n_replicas: int = 0
    merge_when: float = 0.0
    dwell_epochs: int = 0
    merge: dict = field(default_factory=dict)
    controller: dict = field(default_factory=dict)
    pre: dict = field(default_factory=dict)
    mid: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)
    errors: int = 0
    degraded: int = 0
    refits: int = 0
    flaps: int = -1
    post_over_pre: float = 0.0
    router: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def run_controller_loadtest(
    *,
    artifact_root: str,
    n_shards: int = 3,
    n_replicas: int = 3,
    replication: int = 2,
    workers_per_replica: int = 2,
    duration_s: float = 1.8,
    n_points: int = 600,
    dim: int = 6,
    memory: int = 200,
    n_queries: int = 12,
    k: int = 5,
    seed: int = 0,
    n_clients: int = 3,
    merge_when: float = 2.5,
    split_when: float = 4.0,
    dwell_epochs: int = 2,
    tick_every_s: float = 0.05,
) -> ControllerLoadTestResult:
    """One measured window with a load decay and an autonomous merge.

    The dataset is two blobs carved into ``n_shards`` > 2 shards, so
    one blob is over-partitioned into a cheap sibling pair from the
    start -- the topology a sustained load decay strands.  A third of
    the way in one closed-loop client retires (the decay); an operator
    thread then starts ticking the attached controller, which must
    wait out the merge pair's dwell window and fire exactly one
    epoch-fenced merge under the surviving traffic.  Clients follow
    the live topology (they re-read ``active_shards`` every loop), so
    the same client population hammers 3 shards before the surgery
    and 2 after it.
    """
    _, cluster = _build_cluster(
        seed=seed, n_points=n_points, dim=dim, n_shards=n_shards, k=k,
        artifact_root=artifact_root, n_replicas=n_replicas,
        replication=replication, workers_per_replica=workers_per_replica,
        memory=memory, merge_when=merge_when, split_when=split_when,
    )
    controller = cluster.start_controller(
        autostart=False, dwell_epochs=dwell_epochs,
    )
    # built on first use, since merged shards appear mid-window
    workload_for = cache(
        lambda shard: shard_workload(cluster, shard, n_queries, k,
                                     np.random.default_rng(seed + shard))
    )

    loop = ClosedLoop()
    decay_at = duration_s / 3
    merge: dict = {}

    def client(retires: bool):
        def step():
            if retires and time.monotonic() >= loop.marks["start"] + decay_at:
                return None
            return [record_of(cluster.request(shard, workload_for(shard)))
                    for shard in cluster.active_shards()]
        return step

    def operator() -> None:
        time.sleep(decay_at)
        deadline = loop.mark("decay") + duration_s
        while time.monotonic() < deadline:
            before = time.monotonic()
            record = controller.tick()
            if record["action"] == "merge":
                loop.marks["merge_start"] = before
                loop.mark("merge_done")
                merge.update(record)
                return
            time.sleep(tick_every_s)

    try:
        # the last client is the decaying load: it retires at t/3
        loop.run(
            [client(i == n_clients - 1) for i in range(n_clients)],
            duration_s, operator,
        )
        report = controller.report()
        counts = loop.counts()
        result = ControllerLoadTestResult(
            duration_s=duration_s, n_shards_start=n_shards,
            n_shards_end=len(cluster.active_shards()),
            n_replicas=n_replicas, merge_when=merge_when,
            dwell_epochs=dwell_epochs, merge=merge,
            controller={key: report[key]
                        for key in ("epoch", "counters", "born")},
            errors=counts["error"], degraded=counts["degraded"],
            refits=sum(
                replica.service.store.rebuilds()
                for replica in cluster.replicas.values()
                if not replica.down and replica.service is not None
            ),
            flaps=report["flaps"],
            router=cluster.router.metrics(),
        )
        if merge:
            result.pre = loop.window("decay", "merge_start")
            result.mid = loop.straddling("merge_start", "merge_done")
            result.post = loop.window("merge_done", "end")
            result.post_over_pre = round(
                result.post["throughput_rps"]
                / max(result.pre["throughput_rps"], 1e-9), 3
            )
        return result
    finally:
        cluster.stop()
