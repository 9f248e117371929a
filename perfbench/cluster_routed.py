"""Workload ``cluster_routed``: whole workloads through the sharded cluster.

Closed loop, 2 client threads (the host's core count when this was
sized): ``PredictionCluster.predict(workload)`` with 32-query 21-NN
workloads that span both shards.  The cluster is built with its
constructor's defaults -- 2 shards, 3 replicas, replication 2 -- on the
TEXTURE48 analogue at scale 0.5 (13,349 x 48-d).  It is the only
workload that crosses the cluster's partition, router and replica legs.
The clients run in 1 s CPU windows and stop between them while the CPU
calibration runs (``common.Windows``).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from common import (DATA_SEED, Windows, median, percentile, repeat_share,
                    timed, timing)
from tracing import Tracer, wrap_kernel

DATASET, SCALE = "TEXTURE48", 0.5
TUNING_QUERIES, POOL, QUERIES, K = 64, 32, 32, 21
CLIENTS = 2
#: the clients run in windows this long, calibrated between them
WINDOW_S = 1.0
#: the constructor's default memory budget, used to refit the reference
MEMORY = 2_000
WORK_DIR = Path(__file__).resolve().parent / ".work"


def setup(seed: int, seconds: float) -> dict:
    from repro import IndexCostPredictor, PredictionCluster
    from repro.data import datasets

    phases: dict[str, float] = {}
    with timed(phases, "data.generate_ms"):
        points = datasets.load(DATASET, scale=SCALE, seed=DATA_SEED)
    with timed(phases, "workload.make_ms"):
        predictor = IndexCostPredictor(dim=points.shape[1])
        tuning = predictor.make_workload(points, TUNING_QUERIES, K, seed=seed)
        pool = [predictor.make_workload(points, QUERIES, K,
                                        seed=seed * 10_000 + j)
                for j in range(POOL)]
        rng = np.random.default_rng([seed, 11])
        # each client walks its own seeded sequence through the pool
        orders = [rng.integers(0, POOL, size=1 << 16) for _ in range(CLIENTS)]
    WORK_DIR.mkdir(exist_ok=True)
    artifacts = tempfile.mkdtemp(dir=WORK_DIR)
    with timed(phases, "cluster.construct_ms"):
        cluster = PredictionCluster(points, tuning, artifact_root=artifacts)
    state = {"points": points, "pool": pool, "orders": orders,
             "cluster": cluster, "artifacts": artifacts}
    return {"state": state, "phases": phases}


def prepare(state: dict) -> None:
    """Expected merged answers: the ``reference`` kernel over each
    shard's model refitted with ``fit_model``, merged by the partition."""
    from repro import fit_model, get_kernel

    cluster = state["cluster"]
    reference = get_kernel("reference")
    models = {
        shard: fit_model(cluster.shard_points[shard], c_data=config.c_data,
                         c_dir=config.c_dir, memory=MEMORY,
                         seed=cluster.fit_seed)
        for shard, config in cluster.shard_configs.items()
    }
    expected = []
    for workload in state["pool"]:
        merged = np.full(workload.n_queries, -1, dtype=np.int64)
        shards = cluster.partition.shard_of(workload.queries)
        for shard, model in models.items():
            idx = np.flatnonzero(shards == shard)
            merged[idx] = reference.count_knn(
                model.geometry, workload.queries[idx], workload.radii[idx])
        expected.append(merged)
    state["expected"] = expected


def close(state: dict) -> None:
    state["cluster"].stop()
    shutil.rmtree(state["artifacts"], ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:  # another set-up's artifacts are still there
        pass


def _clients(state: dict, seconds: float, offset: int) -> dict:
    """``CLIENTS`` closed-loop threads for ``seconds``, in windows of
    ``WINDOW_S`` with the clients stopped between them for the CPU
    calibration; ``offset`` picks where in its sequence each client
    starts."""
    cluster, pool = state["cluster"], state["pool"]
    lock = threading.Lock()
    records = []
    positions = [offset] * CLIENTS
    windows = Windows()

    def client(c: int, stop_at: float) -> None:
        order = state["orders"][c]
        while time.perf_counter() < stop_at:
            index = int(order[positions[c] % order.size])
            start = time.perf_counter()
            prediction = cluster.predict(pool[index])
            latency = time.perf_counter() - start
            with lock:
                records.append((index, latency, prediction))
            positions[c] += 1

    start, busy = time.perf_counter(), 0.0
    while time.perf_counter() - start < seconds:
        window_start = time.perf_counter()
        threads = [threading.Thread(target=client,
                                    args=(c, window_start + WINDOW_S))
                   for c in range(CLIENTS)]
        windows.open(len(records))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy += time.perf_counter() - window_start
        windows.close(len(records))
    # the clients' time, without the calibrations between windows
    return {"records": records, "elapsed": busy, "windows": windows}


def _classify(state: dict, loop: dict) -> dict:
    expected = state["expected"]
    latencies, failures, route, queue_wait, execute, keys = [], [], [], [], [], []
    for index, latency, prediction in loop["records"]:
        keys.append(index)
        legs = [_winning_leg(r) for r in prediction.responses]
        bad = [r for r in prediction.responses if r.status != "ok"]
        if bad:
            failures.append((bad[0].status, f"pool {index}: shard "
                             f"{bad[0].shard} {bad[0].cause} {bad[0].error}"))
            continue
        if not np.array_equal(prediction.per_query, expected[index]):
            failures.append(("wrong", f"pool {index}: merged answer differs "
                                      f"from the reference kernel"))
            continue
        latencies.append(latency)
        route.append(latency - sum(leg.latency_s for leg in legs))
        queue_wait += [leg.queue_wait_s for leg in legs]
        execute += [leg.latency_s - leg.queue_wait_s for leg in legs]
    return {"latencies": latencies, "failures": failures, "route": route,
            "queue_wait": queue_wait, "execute": execute, "keys": keys,
            "attempted": len(loop["records"]), "elapsed": loop["elapsed"],
            "windows": loop["windows"]}


def _winning_leg(response):
    """The service response of the leg that served a shard request."""
    for leg in response.legs:
        if leg.replica == response.served_by:
            return leg.wait(0.0)
    return None


def _end_to_end(result: dict) -> dict:
    n = result["attempted"]
    return {
        "success_pct": 100.0 * (n - len(result["failures"])) / n,
        "ref_cpu_ms_per_op": result["windows"].ref_cpu_ms_per_op(),
    }


def run(state: dict, seconds: float, trace: bool) -> dict:
    if not trace:
        result = _classify(state, _clients(state, seconds, 0))
        e2e = _end_to_end(result)
        return {
            "attempted": result["attempted"],
            "failures": result["failures"],
            "end_to_end": e2e,
            "report": {**timing(result["latencies"]),
                       **result["windows"].report(),
                       "ops_per_s": result["attempted"] / result["elapsed"],
                       "failed_pct": 100.0 - e2e["success_pct"]},
            "pool": {"size": POOL, "repeat_share": repeat_share(
                result["keys"])},
        }
    from repro.cluster.partition import WorkloadPartition

    cluster = state["cluster"]
    untraced = _classify(state, _clients(state, seconds / 2, 0))
    before = cluster.router.metrics()
    tracer = Tracer()
    with tracer:
        tracer.wrap(WorkloadPartition, "split", "cluster.partition")
        wrap_kernel(tracer)
        traced = _classify(state, _clients(state, seconds / 2, 1 << 15))
    after = cluster.router.metrics()
    spans = tracer.summary()
    partition = spans.get("cluster.partition", {"total_s": 0.0, "calls": 1})
    kernel = spans.get("kernels.count",
                       {"calls": 0, "total_s": 0.0, "count": 0})
    n = traced["attempted"]
    layers = {
        "cluster.partition_ms": 1e3 * partition["total_s"]
        / partition["calls"],
        "cluster.route_ms": 1e3 * median(traced["route"]),
        "cluster.legs_per_req": (after["legs"] - before["legs"]) / n,
        "cluster.hedges": after["hedges"] - before["hedges"],
        "cluster.failovers": after["failovers"] - before["failovers"],
        "service.queue_wait_p50_ms": 1e3 * median(traced["queue_wait"]),
        "service.queue_wait_p99_ms": 1e3 * percentile(
            traced["queue_wait"], 99),
        "service.exec_ms": 1e3 * median(traced["execute"]),
        "kernels.count_ms": 1e3 * kernel["total_s"] / kernel["calls"]
        if kernel["calls"] else 0.0,
        "kernels.dispatches_per_op": kernel["calls"] / n,
        "kernels.pairs": kernel["count"] / n,
        "pool.size": POOL,
        "pool.repeat_share": repeat_share(untraced["keys"] + traced["keys"]),
    }
    base, with_trace = timing(untraced["latencies"]), timing(
        traced["latencies"])
    layers["trace.overhead_pct"] = 100.0 * (
        with_trace["p50_ms"] / base["p50_ms"] - 1.0)
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failures": untraced["failures"] + traced["failures"],
        "layers": layers,
        "report": {"untraced": base, "traced": with_trace},
    }
