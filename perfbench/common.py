"""Shared pieces of the benchmark: metric catalogue, statistics, host block.

The metric catalogue here is the single list every workload reports
against; ``BENCHMARK.json`` must name exactly the same metrics with the
same units (``test_perfbench.py`` checks it).
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import time
from contextlib import contextmanager

#: end-to-end metrics, reported by every workload from untraced runs
END_TO_END = {
    "setup_s": "s",
    "success_pct": "%",
    "ref_cpu_ms_per_op": "ms",
}

#: per-layer metrics, reported by every workload from a traced run; a
#: layer the workload does not cross reads 0
PER_LAYER = {
    # set-up, medians over the repeated set-ups of one run
    "setup.import_ms": "ms",
    "data.generate_ms": "ms",
    "workload.make_ms": "ms",
    "ondisk.build_ms": "ms",
    "ondisk.measure_ms": "ms",
    "service.register_ms": "ms",
    "cluster.construct_ms": "ms",
    # one-shot prediction: wall time per prediction, split by layer
    "core.predict_ms": "ms",
    "core.self_ms": "ms",
    "disk.load_ms": "ms",
    "core.read_queries_ms": "ms",
    "core.scan_sample_ms": "ms",
    "rtree.upper_ms": "ms",
    "rtree.lower_ms": "ms",
    "core.compensate_ms": "ms",
    "rtree.lower_trees": "count",
    "trace.self_sum_pct": "%",
    # one-shot prediction: accuracy and I/O, simulated next to analytic
    "core.rel_error_pct": "%",
    "disk.io_s": "s",
    "costmodel.io_s": "s",
    "disk.seeks": "count",
    "disk.transfers": "count",
    "disk.ops.read_query_points": "count",
    "costmodel.ops.read_query_points": "count",
    "disk.ops.scan_and_sample": "count",
    "costmodel.ops.scan_and_sample": "count",
    "disk.ops.spill": "count",
    "costmodel.ops.spill": "count",
    "disk.ops.build_lower": "count",
    "costmodel.ops.build_lower": "count",
    # counting kernels, every workload
    "kernels.count_ms": "ms",
    "kernels.dispatches_per_op": "count",
    "kernels.pairs": "count",
    # service: served requests (serve_open) and replica legs (cluster_routed)
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.exec_ms": "ms",
    "service.batch_mean": "count",
    "service.window_hit_rate": "ratio",
    "service.shed": "count",
    "service.refused": "count",
    "serve.low_p50_ms": "ms",
    "serve.low_p99_ms": "ms",
    "serve.full_p50_ms": "ms",
    "gen.lag_p99_ms": "ms",
    "runtime.io_ops_per_full": "count",
    # cluster: partition, route and legs
    "cluster.partition_ms": "ms",
    "cluster.route_ms": "ms",
    "cluster.legs_per_req": "count",
    "cluster.hedges": "count",
    "cluster.failovers": "count",
    # inputs and the tracer itself
    "pool.size": "count",
    "pool.repeat_share": "ratio",
    "trace.overhead_pct": "%",
}

#: how many times each run repeats its set-up; ``setup_s`` is the median
SETUP_REPEATS = 3

#: The dataset analogues stand for the paper's fixed real datasets, so
#: they come from this seed and not from ``--seed``, which makes every
#: other input.  The analogue generator's seed sets a dataset's
#: structure: TEXTURE48 at scale 0.5 averaged 38 leaf accesses per 21-NN
#: query from seed 103 and 20 from seed 105, whichever the query seed.
DATA_SEED = 0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


#: the calibration's CPU time on the host the benchmark was sized on, a
#: 2-vCPU Xeon guest at rest
REF_CALIBRATION_S = 0.040


class Windows:
    """Process CPU time per operation, window by window, each window
    scaled by a calibration measured right before and right after it.

    On a shared host the same code costs a different amount of CPU time
    from one minute to the next: neighbours contend for the caches and
    the cores, and time stolen from the guest is not the only effect.
    The calibration is a fixed piece of work that uses no code of the
    program, and it slows down with the host.  A window's CPU time per
    operation times ``REF_CALIBRATION_S`` over the mean of its two
    calibrations is what the window would have cost on the reference
    host.  The caller keeps the program idle between ``close`` and the
    next ``open``, so the calibration has the cores to itself and its
    CPU time stays out of every window.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        # a small broadcast count like the kernels', a sort that fits the
        # caches and a streaming pass that does not; every buffer is
        # allocated here, so the calibration takes no page faults
        self._queries = rng.random((24, 1, 60))
        self._points = rng.random((1, 64, 60))
        self._pairs = np.empty((24, 64, 60))
        self._sums = np.empty((24, 64))
        self._part = rng.random(1 << 16)
        self._sorted = np.empty_like(self._part)
        self._big = rng.random(1 << 20)
        self._scaled = np.empty_like(self._big)
        self.rows: list[tuple[float, int, float]] = []
        self._calibration = self.calibrate()
        self._start: tuple[float, int] | None = None

    def calibrate(self) -> float:
        """Run the calibration once; its CPU time in seconds."""
        import numpy as np

        start = time.thread_time()
        table, acc = {}, 0
        for i in range(100_000):
            table[i & 255] = acc
            acc = (acc + i * 7) % 1009
        for _ in range(60):
            np.subtract(self._queries, self._points, out=self._pairs)
            np.square(self._pairs, out=self._pairs)
            self._pairs.sum(axis=2, out=self._sums)
            acc += int(np.count_nonzero(self._sums < 10.0))
        for _ in range(6):
            self._sorted[:] = self._part
            self._sorted.sort()
            np.multiply(self._big, 1.5, out=self._scaled)
            acc += int(self._sorted[100] + self._scaled.sum())
        return time.thread_time() - start

    def open(self, ops: int) -> None:
        """Start a window; ``ops`` is the operation count so far.  A
        window opened again before ``close`` is dropped."""
        self._start = (time.process_time(), ops)

    def close(self, ops: int) -> None:
        """End the open window and calibrate."""
        cpu, start_ops = self._start
        cpu = time.process_time() - cpu
        before, self._calibration = self._calibration, self.calibrate()
        self.rows.append((cpu, ops - start_ops,
                          (before + self._calibration) / 2))
        self._start = None

    def ref_cpu_ms_per_op(self) -> float:
        """Median over the windows of the reference host's CPU ms per
        operation."""
        return median([1e3 * cpu / ops * REF_CALIBRATION_S / calibration
                       for cpu, ops, calibration in self.rows if ops])

    def report(self) -> dict:
        """The raw numbers behind ``ref_cpu_ms_per_op``."""
        cpu = sum(row[0] for row in self.rows)
        ops = sum(row[1] for row in self.rows)
        return {"windows": len(self.rows),
                "cpu_ms_per_op": 1e3 * cpu / ops if ops else 0.0,
                "calibration_ms": 1e3 * median([r[2] for r in self.rows])}


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``
    inclusive method); 0 for an empty sample."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[
        round(pct) - 1
    ])


def timing(values_s) -> dict:
    """A timing summary in ms: median, p90, p99 and the sample count."""
    ms = [v * 1e3 for v in values_s]
    return {"n": len(ms), "p50_ms": median(ms), "p90_ms": percentile(ms, 90),
            "p99_ms": percentile(ms, 99)}


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks so far, from ``/proc/stat``; (0, 0)
    where there is no such file.  Time stolen by the hypervisor shows
    up as latency that no change to the program can explain."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def repeat_share(keys) -> float:
    """Share of operations whose input was already sent earlier in the run."""
    keys = list(keys)
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


@contextmanager
def timed(phases: dict, name: str):
    """Add the wall time of the block to ``phases[name]`` (seconds)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def host_block() -> dict:
    """What a result must carry to be compared with another host's."""
    import numpy
    from repro.kernels import default_kernel_name

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": default_kernel_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def per_layer(values: dict) -> dict:
    """Every per-layer metric, 0 for a layer the workload did not cross."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
