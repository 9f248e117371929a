"""Shared experiment plumbing for the benchmark harness.

``get_setup`` assembles (and caches) everything an experiment needs for
one dataset: the synthetic analogue points, the density-biased k-NN
workload, a configured :class:`IndexCostPredictor`, and the measured
on-disk ground truth (built index, build cost, per-query leaf accesses,
query I/O).  Ground truth is by far the most expensive piece, so the
cache keys on the full parameter tuple and benchmarks across files
share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.predictor import IndexCostPredictor
from ..data import datasets
from ..disk.accounting import IOCost
from ..ondisk.builder import OnDiskIndex
from ..ondisk.measure import MeasurementResult, measure_knn
from ..workload.queries import KNNWorkload
from .config import DEFAULT_K, DEFAULT_MEMORY_FRACTION

__all__ = [
    "ExperimentSetup",
    "get_setup",
    "pearson_correlation",
]


@dataclass(frozen=True)
class ExperimentSetup:
    """One dataset's experiment context, ground truth included."""

    name: str
    points: np.ndarray
    workload: KNNWorkload
    predictor: IndexCostPredictor
    index: OnDiskIndex
    measurement: MeasurementResult

    @property
    def measured_mean(self) -> float:
        return self.measurement.mean_accesses

    @property
    def build_cost(self) -> IOCost:
        return self.index.build_cost

    @property
    def ondisk_total_cost(self) -> IOCost:
        """Build + query I/O: what Table 3 reports as "on-disk"."""
        return self.index.build_cost + self.measurement.io_cost


@lru_cache(maxsize=8)
def get_setup(
    dataset: str = "TEXTURE60",
    *,
    scale: float = 0.1,
    n_queries: int = 200,
    k: int = DEFAULT_K,
    memory: int | None = None,
    seed: int = 1,
) -> ExperimentSetup:
    """Build (once) the full experiment context for a dataset analogue.

    ``memory`` defaults to the paper's Table 3 ratio (M = 10,000 for
    N = 275,465) applied to the scaled cardinality.
    """
    points = datasets.load(dataset, scale=scale, seed=seed)
    if memory is None:
        # The paper's Table 3 ratio, floored at 2,000 points: below that
        # the upper tree's per-leaf sample gets too thin to define page
        # geometry (the paper's own M=1,000 runs lean on N=275k).
        memory = max(2_000, math.ceil(points.shape[0] * DEFAULT_MEMORY_FRACTION))
    predictor = IndexCostPredictor(dim=points.shape[1], memory=memory)
    workload = predictor.make_workload(points, n_queries, k, seed=seed)
    index = predictor.build_ondisk(points)
    measurement = measure_knn(index, workload)
    return ExperimentSetup(
        name=dataset,
        points=points,
        workload=workload,
        predictor=predictor,
        index=index,
        measurement=measurement,
    )


def pearson_correlation(predicted: np.ndarray, measured: np.ndarray) -> float:
    """Correlation between per-query predictions and measurements
    (the quantity Figures 11 and 12 visualize)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    if predicted.shape != measured.shape or predicted.size < 2:
        raise ValueError("need two equal-length series with >= 2 entries")
    if predicted.std() == 0 or measured.std() == 0:
        return 0.0
    return float(np.corrcoef(predicted, measured)[0, 1])
