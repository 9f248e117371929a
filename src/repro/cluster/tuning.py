"""Per-shard index configuration via the page-size tuning application.

The whole point of similarity sharding is that shards face different
cost profiles, so each shard gets its *own* index configuration: the
existing page-size sweep (:func:`repro.apps.pagesize.sweep_page_sizes`)
runs as a library call on the shard's data slice against the shard's
workload slice, with the sampling predictor as the cost oracle, and the
predicted optimum becomes that shard's :class:`ShardConfig` -- the
tuned :class:`~repro.disk.accounting.DiskParameters` plus the page
capacities the geometry dictates at the winning page size.

Every replica that owns a shard uses the *identical* tuned
configuration and fit seed, which is what makes warm-start artifacts
bit-identical across the shard's owners (replica heterogeneity is
modeled at the routing layer as a latency factor, never as divergent
index geometry -- divergent geometry would make failover answers
unverifiable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.pagesize import sweep_page_sizes
from ..disk.accounting import DiskParameters
from ..errors import PredictionError
from ..runtime.budget import Budget
from ..workload.queries import KNNWorkload

__all__ = ["DEFAULT_TUNING_PAGE_SIZES", "ShardConfig", "tune_shard"]

#: candidate page sizes for per-shard tuning; a narrower set than the
#: full application sweep because tuning runs once per shard at cluster
#: construction and only has to separate the regimes
DEFAULT_TUNING_PAGE_SIZES = (8192, 16384, 32768, 65536)


@dataclass(frozen=True)
class ShardConfig:
    """One shard's tuned index configuration -- the routing cost oracle.

    ``predicted_seconds`` is the sweep's predicted per-query cost at the
    winning page size; the router multiplies it by each owner's latency
    factor to order candidates.  ``disk`` carries the tuned page size
    with the transfer time rescaled to it.

    ``tuning_io_ops`` is what producing this configuration *cost*: the
    charged operations summed over every candidate the sweep priced.
    Elastic reorganization (shard splits, drift re-tunes) uses it both
    as the admission estimate against the reorg budget and as the
    actual charge attributed after re-tuning -- reorganization I/O is
    accounted like any other I/O, not hand-waved.
    """

    shard: int
    page_bytes: int
    c_data: int
    c_dir: int
    predicted_accesses: float
    predicted_seconds: float
    n_tuning_queries: int
    disk: DiskParameters
    tuning_io_ops: int = 0

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "page_bytes": self.page_bytes,
            "c_data": self.c_data,
            "c_dir": self.c_dir,
            "predicted_accesses": round(self.predicted_accesses, 3),
            "predicted_seconds": round(self.predicted_seconds, 6),
            "n_tuning_queries": self.n_tuning_queries,
            "tuning_io_ops": self.tuning_io_ops,
        }


def tune_shard(
    shard: int,
    data: np.ndarray,
    workload: KNNWorkload,
    *,
    memory: int = 2_000,
    page_sizes: tuple[int, ...] = DEFAULT_TUNING_PAGE_SIZES,
    base_disk: DiskParameters | None = None,
    method: str = "cutoff",
    seed: int = 0,
) -> ShardConfig:
    """Tune one shard's page size on its own data and workload slice.

    ``method`` defaults to ``"cutoff"`` rather than the sweep's
    ``"resampled"`` default: tuning runs once per shard per cluster
    construction, and the cheaper method ranks the candidates the same
    way at a fraction of the cost.  Raises
    :class:`~repro.errors.PredictionError` when no candidate completes
    (the sweep found no usable optimum).
    """
    sweep = sweep_page_sizes(
        data, workload,
        memory=memory, page_sizes=page_sizes,
        base_disk=base_disk, method=method, seed=seed,
    )
    optimum = sweep.predicted_optimum
    if optimum is None:
        raise PredictionError(
            f"page-size tuning for shard {shard} produced no usable "
            f"optimum across {len(page_sizes)} candidates"
        )
    base = base_disk or DiskParameters()
    charged = sum(
        Budget.io_ops(point.io_cost)
        for point in sweep.points
        if point.io_cost is not None
    )
    return ShardConfig(
        shard=shard,
        page_bytes=optimum.page_bytes,
        c_data=optimum.c_data,
        c_dir=optimum.c_dir,
        predicted_accesses=optimum.predicted_accesses,
        predicted_seconds=optimum.predicted_seconds,
        n_tuning_queries=workload.n_queries,
        disk=base.with_page_bytes(optimum.page_bytes),
        tuning_io_ops=int(charged),
    )
