"""Workload ``serve_open``: open-loop multi-tenant serving.

One ``PredictionService`` configured as ``repro serve`` configures it
(4 workers, coalescing on with a 2 ms window, queue 32, per-tenant
in-flight 8) serves 4 tenants, each built from a different dataset
analogue and chosen with a fixed popularity skew.  One generator thread
sends requests at Poisson arrival times drawn at set-up.  A request is
a warm call with 24 21-NN queries from the tenant's set-up pool; every
50th request (a fixed 2%) asks for the governed ``cutoff`` method
instead, which does charged disk reads under a deadline budget and
cannot be fused.

Phases: a low fixed rate (what the coalescing window costs), a high
fixed rate (what coalescing gains), then a bisection of a fixed rate
ladder for the highest sustainable rate.  Latency is timed from each
request's scheduled send time, so generator lag counts against it.
The CPU cost per request is the median over windows of 50 consecutive
requests of the high phase; each window holds the same mix of tenants
and one ``cutoff`` request, and a short pause in the schedule after each
window leaves room for the CPU calibration.
"""

from __future__ import annotations

import time

import numpy as np

from common import (DATA_SEED, Windows, median, percentile, repeat_share,
                    timed, timing)
from tracing import Tracer, wrap_kernel

#: (dataset analogue, scale, popularity share) per tenant
TENANTS = (
    ("COLOR64", 0.06, 0.4),
    ("TEXTURE48", 0.3, 0.3),
    ("TEXTURE60", 0.03, 0.2),
    ("STOCK360", 0.05, 0.1),
)
#: the service the way ``repro serve`` builds it by default
WORKERS, MAX_QUEUE, MAX_INFLIGHT, WINDOW_MS, MEMORY = 4, 32, 8, 2.0, 2_000
POOL, QUERIES, K = 32, 24, 21
#: every FULL_EVERY-th request asks for the full method, on one of the
#: first FULL_POOL pool workloads of its tenant; a CPU window is
#: FULL_EVERY requests long, so it holds exactly one
FULL_EVERY, FULL_POOL, FULL_METHOD, FULL_SEED = 50, 4, "cutoff", 0
#: warm requests take their tenants from shuffled blocks of this many,
#: each holding the popularity skew exactly
MIX_BLOCK = 10
#: the pause after each window of the high phase: the service drains
#: and the CPU calibration runs
GAP_S = 0.1
#: the full requests' deadline: it puts them under a governed budget
FULL_DEADLINE_S = 30.0
LOW_RPS, HIGH_RPS = 40.0, 100.0
#: the fixed rate ladder, 5% steps from the low rate through the high
#: rate to 7x it; it is searched by bisection above the fixed phases'
#: verdicts
LADDER = tuple(round(HIGH_RPS * 1.05 ** i) for i in range(-19, 41))
RUNG_S = 1.8
#: unmeasured traffic at the high rate before the first measured phase
WARMUP_S = 1.0
#: a rung is sustainable when the warm p99 stays within this limit, no
#: request is refused or shed, and the backlog does not grow
LIMIT_MS = 50.0
#: shares of the run's seconds: low phase, high phase, ladder
SPLIT = (0.2, 0.5, 0.3)


def setup(seed: int, seconds: float) -> dict:
    from repro import IndexCostPredictor, PredictionService, TenantQuota
    from repro.data import datasets

    phases: dict[str, float] = {}
    with timed(phases, "data.generate_ms"):
        data = [datasets.load(name, scale=scale, seed=DATA_SEED + i)
                for i, (name, scale, _) in enumerate(TENANTS)]
    with timed(phases, "workload.make_ms"):
        pools = []
        for i, points in enumerate(data):
            predictor = IndexCostPredictor(dim=points.shape[1], memory=MEMORY)
            pools.append([
                predictor.make_workload(points, QUERIES, K,
                                        seed=seed * 10_000 + i * POOL + j)
                for j in range(POOL)
            ])
        schedules = _schedules(seed, seconds)
    with timed(phases, "service.register_ms"):
        service = PredictionService(
            workers=WORKERS, max_queue=MAX_QUEUE, memory=MEMORY,
            default_quota=TenantQuota(max_inflight=MAX_INFLIGHT),
            coalesce=True, coalesce_window_ms=WINDOW_MS,
        )
        for i, points in enumerate(data):
            service.register_tenant(f"tenant-{i}", points)
        service.start()
    state = {"data": data, "pools": pools, "schedules": schedules,
             "service": service}
    return {"state": state, "phases": phases}


def _schedules(seed: int, seconds: float) -> dict:
    """Every phase's arrivals in time order: (offset s, tenant, pool
    index, full?).

    Requests arrive at Poisson times.  The middle request of every
    ``FULL_EVERY`` is a full request; the full requests rotate through
    the tenants and their full pools: a warm request that runs beside a
    cutoff waits for it, so the cutoffs set the warm tail, and drawing
    them at random would make the p99 depend on which tenant's cutoff
    happened to land where.  Warm requests take their tenants from
    shuffled blocks that hold the popularity skew exactly, so every run
    and every CPU window serves the same mix.
    """
    rng = np.random.default_rng([seed, 7])
    block = np.repeat(np.arange(len(TENANTS)),
                      [round(t[2] * MIX_BLOCK) for t in TENANTS])

    def arrivals(rate: float, duration: float, gap: float = 0.0) -> list:
        n = rng.poisson(rate * duration)
        offsets = np.sort(rng.uniform(0.0, duration, size=n))
        offsets += np.arange(n) // FULL_EVERY * gap
        tenants = np.concatenate([rng.permutation(block)
                                  for _ in range(n // block.size + 1)])
        indices = rng.integers(0, POOL, size=n)
        schedule, warm = [], 0
        for i, offset in enumerate(offsets):
            j, position = divmod(i, FULL_EVERY)
            if position == FULL_EVERY // 2:
                schedule.append((float(offset), j % len(TENANTS),
                                 (j // len(TENANTS)) % FULL_POOL, True))
            else:
                schedule.append((float(offset), int(tenants[warm]),
                                 int(indices[i]), False))
                warm += 1
        return schedule

    low_s, high_s, _ = (seconds * part for part in SPLIT)
    return {
        "warmup": arrivals(HIGH_RPS, WARMUP_S),
        "low": arrivals(LOW_RPS, low_s),
        "high": arrivals(HIGH_RPS, high_s, GAP_S),
        "ladder": [arrivals(rate, RUNG_S) for rate in LADDER],
    }


def prepare(state: dict) -> None:
    """Expected answers, computed apart from the service: warm answers
    by the ``reference`` kernel over models refitted with ``fit_model``,
    full answers by an unloaded facade call."""
    from repro import IndexCostPredictor, fit_model, get_kernel

    reference = get_kernel("reference")
    warm, full = [], []
    for points, pool in zip(state["data"], state["pools"]):
        predictor = IndexCostPredictor(dim=points.shape[1], memory=MEMORY)
        model = fit_model(points, c_data=predictor.c_data,
                          c_dir=predictor.c_dir, memory=MEMORY, seed=0)
        warm.append([reference.count_knn(model.geometry, w.queries, w.radii)
                     for w in pool])
        full.append([
            predictor.predict(points, w, method=FULL_METHOD,
                              seed=FULL_SEED).per_query
            for w in pool[:FULL_POOL]
        ])
    state["expected"] = {"warm": warm, "full": full}


def close(state: dict) -> None:
    state["service"].stop()


def _send(state: dict, schedule: list, duration: float,
          windows: Windows | None = None) -> dict:
    """Send one phase open loop, then wait for every answer.

    With ``windows``, every ``FULL_EVERY`` requests make a CPU window:
    before the first send of the next one the phase waits for every
    answer, then calibrates.  A last window left short is dropped."""
    from repro import ServiceOverloadedError, TenantQuotaExceededError

    service = state["service"]
    pools = state["pools"]
    sent, refused, shed = [], 0, 0
    backlog = {}
    start = time.perf_counter()
    for i, (offset, tenant, index, full) in enumerate(schedule):
        if offset >= duration:
            break
        if windows is not None and i % FULL_EVERY == 0:
            if i:
                for *_, pending, _, _, _ in sent[-FULL_EVERY:]:
                    pending.result(timeout=120.0)
                windows.close(i)
            windows.open(i)
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        if "mid" not in backlog and offset >= duration / 2:
            backlog["mid"] = _outstanding(sent)
        sent_at = time.perf_counter()
        kwargs = ({"method": FULL_METHOD, "seed": FULL_SEED,
                   "deadline_s": FULL_DEADLINE_S} if full else {})
        try:
            pending = service.submit(f"tenant-{tenant}",
                                     pools[tenant][index], **kwargs)
        except TenantQuotaExceededError:
            refused += 1
            continue
        except ServiceOverloadedError:
            shed += 1
            continue
        sent.append((due, sent_at, pending, tenant, index, full))
    backlog["end"] = _outstanding(sent)
    records = [
        (due, sent_at, pending.result(timeout=120.0), tenant, index, full)
        for due, sent_at, pending, tenant, index, full in sent
    ]
    return {"records": records, "refused": refused, "shed": shed,
            "backlog": backlog}


def _outstanding(sent: list) -> int:
    return sum(1 for _, _, pending, *_ in sent if not pending.done())


def _classify(state: dict, phase: dict) -> dict:
    """Latencies and failures of one phase's answered requests."""
    expected = state["expected"]
    warm, full, lag, failures = [], [], [], []
    queue_wait, execute, io_ops = [], [], []
    for due, sent_at, response, tenant, index, is_full in phase["records"]:
        latency = sent_at - due + response.latency_s
        lag.append(sent_at - due)
        failure = None
        if response.status != "ok":
            failure = (response.status, response.error)
        elif is_full:
            if (response.method_used != FULL_METHOD
                    or "degradation" in response.result.detail):
                failure = ("degraded", "full request degraded")
            elif not np.array_equal(response.result.per_query,
                                    expected["full"][tenant][index]):
                failure = ("wrong", "full answer differs from the "
                                    "unloaded answer")
        elif not np.array_equal(response.result.per_query,
                                expected["warm"][tenant][index]):
            failure = ("wrong", "warm answer differs from the reference "
                                "kernel")
        if failure:
            failures.append((failure[0],
                             f"tenant-{tenant}/{index}: {failure[1]}"))
            continue
        if is_full:
            full.append(latency)
            io_ops.append(response.io_ops)
        else:
            warm.append(latency)
            queue_wait.append(response.queue_wait_s)
            execute.append(response.latency_s - response.queue_wait_s)
    failures += ([("refused", "tenant in-flight quota")] * phase["refused"]
                 + [("shed", "queue full")] * phase["shed"])
    return {"warm": warm, "full": full, "lag": lag, "failures": failures,
            "queue_wait": queue_wait, "execute": execute, "io_ops": io_ops,
            "attempted": len(phase["records"]) + phase["refused"]
            + phase["shed"],
            "keys": [(r[3], r[4]) for r in phase["records"]],
            "phase": phase}


def _fixed(state: dict, share: float,
           windows: Windows | None = None) -> tuple[dict, dict]:
    """The low and high fixed-rate phases, each cut to ``share`` of
    its scheduled length; ``windows`` measures the high phase."""
    low_s, high_s, _ = (state["seconds"] * part for part in SPLIT)
    low = _classify(state, _send(state, state["schedules"]["low"],
                                 low_s * share))
    high = _classify(state, _send(state, state["schedules"]["high"],
                                  high_s * share, windows))
    return low, high


def _sustainable(result: dict, phase: dict) -> bool:
    """No request refused or shed, every answer right, the warm p99
    within the limit, and a backlog that did not grow."""
    p99 = percentile([v * 1e3 for v in result["warm"]], 99)
    backlog = phase["backlog"]
    return (not result["failures"] and p99 <= LIMIT_MS
            and backlog["end"] <= backlog.get("mid", 0) + WORKERS)


def _ladder(state: dict, seconds: float, low: int) -> dict:
    """Bisect the ladder above rung ``low`` (-1: none), the highest rung
    a fixed phase found sustainable, for the highest sustainable rung.

    Refused and shed requests on a rung are the signal that the rung is
    not sustainable, not failures; wrong or errored answers are."""
    start = time.perf_counter()
    rungs, failures, attempted = [], [], 0
    high = len(LADDER)
    while high - low > 1 and time.perf_counter() - start + RUNG_S <= seconds:
        mid = (low + high) // 2
        phase = _send(state, state["schedules"]["ladder"][mid], RUNG_S)
        result = _classify(state, phase)
        # wrong answers are failures anywhere; a refusal is a verdict
        failures += [f for f in result["failures"]
                     if f[0] not in ("refused", "shed")]
        attempted += len(phase["records"])
        ok = _sustainable(result, phase)
        rungs.append({"rps": LADDER[mid], "sustainable": ok,
                      "p99_ms": 1e3 * percentile(result["warm"], 99),
                      "refused_or_shed": phase["refused"] + phase["shed"],
                      "backlog": phase["backlog"]})
        low, high = (mid, high) if ok else (low, mid)
    return {"max_rps": float(LADDER[low]) if low >= 0 else 0.0,
            "rungs": rungs, "failures": failures, "attempted": attempted}


def run(state: dict, seconds: float, trace: bool) -> dict:
    state["seconds"] = seconds
    warmup = _classify(state, _send(state, state["schedules"]["warmup"],
                                    WARMUP_S))
    if not trace:
        windows = Windows()
        low, high = _fixed(state, 1.0, windows)
        floor = -1
        for rate, phase in ((LOW_RPS, low), (HIGH_RPS, high)):
            if _sustainable(phase, phase["phase"]):
                floor = max(i for i, r in enumerate(LADDER) if r <= rate)
        ladder = _ladder(state, seconds * SPLIT[2], floor)
        warm_high = timing(high["warm"])
        warm_low = timing(low["warm"])
        full = timing(low["full"] + high["full"])
        checked = [warmup, low, high]
        attempted = sum(p["attempted"] for p in checked) + ladder["attempted"]
        failures = [f for p in checked for f in p["failures"]]
        failures += ladder["failures"]
        e2e = {
            "success_pct": 100.0 * (attempted - len(failures)) / attempted,
            # every thread: generator and workers
            "ref_cpu_ms_per_op": windows.ref_cpu_ms_per_op(),
        }
        keys = low["keys"] + high["keys"]
        return {
            "attempted": attempted,
            "failures": failures,
            "end_to_end": e2e,
            "report": {
                "failed_pct": 100.0 - e2e["success_pct"],
                "low.p50_ms": warm_low["p50_ms"],
                "low.p99_ms": warm_low["p99_ms"],
                "high.p50_ms": warm_high["p50_ms"],
                "high.p90_ms": warm_high["p90_ms"],
                "high.p99_ms": warm_high["p99_ms"],
                "full.p50_ms": full["p50_ms"],
                "max_rps": ladder["max_rps"],
                "samples": {"low": warm_low["n"], "high": warm_high["n"],
                            "full": full["n"]},
                "gen.lag_p99_ms": 1e3 * percentile(low["lag"] + high["lag"],
                                                   99),
                "ladder": ladder["rungs"],
                **windows.report(),
            },
            "pool": {"size": POOL * len(TENANTS),
                     "repeat_share": repeat_share(keys)},
        }
    service = state["service"]
    low, high = _fixed(state, 0.5)
    tracer = Tracer()
    before = _batching(service)
    with tracer:
        wrap_kernel(tracer)
        t_low, t_high = _fixed(state, 0.5)
    after = _batching(service)
    spans = tracer.summary().get("kernels.count",
                                 {"calls": 0, "total_s": 0.0, "count": 0})
    traced = [t_low, t_high]
    n_ops = sum(len(p["warm"]) + len(p["full"]) for p in traced)
    windows = after["windows"] - before["windows"]
    batches = after["batches"] - before["batches"]
    layers = {
        "service.queue_wait_p50_ms": 1e3 * median(
            t_low["queue_wait"] + t_high["queue_wait"]),
        "service.queue_wait_p99_ms": 1e3 * percentile(
            t_low["queue_wait"] + t_high["queue_wait"], 99),
        "service.exec_ms": 1e3 * median(t_low["execute"] + t_high["execute"]),
        "service.batch_mean": (after["batched"] - before["batched"]) / batches
        if batches else 0.0,
        "service.window_hit_rate": (after["hits"] - before["hits"]) / windows
        if windows else 0.0,
        "service.shed": sum(kind == "shed" for p in traced
                            for kind, _ in p["failures"]),
        "service.refused": sum(kind == "refused" for p in traced
                               for kind, _ in p["failures"]),
        "kernels.count_ms": 1e3 * spans["total_s"] / spans["calls"]
        if spans["calls"] else 0.0,
        "kernels.dispatches_per_op": spans["calls"] / n_ops,
        "kernels.pairs": spans["count"] / n_ops,
        "serve.low_p50_ms": timing(low["warm"])["p50_ms"],
        "serve.low_p99_ms": timing(low["warm"])["p99_ms"],
        "serve.full_p50_ms": timing(low["full"] + high["full"])["p50_ms"],
        "gen.lag_p99_ms": 1e3 * percentile(high["lag"], 99),
        "runtime.io_ops_per_full": median(low["io_ops"] + high["io_ops"]),
        "pool.size": POOL * len(TENANTS),
        "pool.repeat_share": repeat_share(low["keys"] + high["keys"]),
    }
    base, with_trace = timing(high["warm"]), timing(t_high["warm"])
    layers["trace.overhead_pct"] = 100.0 * (
        with_trace["p50_ms"] / base["p50_ms"] - 1.0)
    phases = [warmup, low, high, t_low, t_high]
    return {
        "attempted": sum(p["attempted"] for p in phases),
        "failures": [f for p in phases for f in p["failures"]],
        "layers": layers,
        "report": {"untraced": {"high": base, "low": timing(low["warm"])},
                   "traced": {"high": with_trace,
                              "low": timing(t_low["warm"])}},
    }


def _batching(service) -> dict:
    metrics = service.metrics()["batching"]
    return {"batches": metrics["batches_dispatched"],
            "batched": metrics["batched_requests"],
            "windows": service.coalesce_windows,
            "hits": service.coalesce_window_hits}
