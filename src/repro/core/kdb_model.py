"""Mini-index prediction for space-partitioning indexes (k-d-B-tree).

The Section 3 recipe for a page geometry that needs *no* compensation:
a k-d-B-tree's page boundaries are median split planes, and a sample's
medians converge to the data's medians, so the mini tree's pages are
unbiased estimates of the full tree's pages at any sampling fraction
above the trivial floor.  The contrast with the R-tree (whose MBRs
shrink under sampling, Theorem 1) is demonstrated in the structure-
comparison benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.registry import get_kernel
from ..rtree.kdb import KDBTree
from ..workload.queries import KNNWorkload, RangeWorkload
from .counting import PredictionResult, count_accesses

__all__ = ["KDBMiniIndexModel"]


@dataclass(frozen=True)
class KDBMiniIndexModel:
    """Sampling predictor for k-d-B-tree page accesses."""

    c_data: int

    def predict(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        sampling_fraction: float,
        rng: np.random.Generator,
    ) -> PredictionResult:
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        if not 0 < sampling_fraction <= 1:
            raise ValueError("sampling_fraction must be in (0, 1]")
        n_sample = max(1, round(n * sampling_fraction))
        if n_sample < n:
            sample = points[rng.choice(n, size=n_sample, replace=False)]
        else:
            sample = points
        # The mini tree must carve the *full* dataspace, which the
        # sample's own bounding box underestimates slightly; computing
        # the data's bounds costs the same full scan that determines
        # the query spheres.
        mini = KDBTree.bulk_load(
            sample,
            self.c_data,
            virtual_n=n,
            region=(points.min(axis=0), points.max(axis=0)),
        )
        per_query = count_accesses(mini.leaf_geometry, workload)
        return PredictionResult(
            per_query=per_query,
            detail={
                "zeta": sample.shape[0] / n,
                "n_mini_leaves": int(mini.n_leaves),
                "kernel": get_kernel().name,
            },
        )
