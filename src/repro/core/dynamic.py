"""Sampling-based prediction for *dynamic* (insertion-built) indexes.

Section 4.7 claims the technique covers "all index structures that
organize the data in fixed-capacity pages" -- not just bulk-loaded
ones.  For a tuple-at-a-time R*-tree there is no fixed topology to
impose, so the mini-index follows the paper's original Section 3
recipe literally: run the *same insertion algorithm* on a sample with
the data-page capacity scaled by the sampling fraction ("if we use as
a sample 1/10 of the original data ... the page capacity is reduced by
the factor 1/10"), then grow the resulting leaf pages by Theorem 1's
compensation factor.

The effective page capacity of the full index is not known without
building it; it is estimated from the mini-index itself -- R*-tree
page utilization is scale-free, so ``C_eff ~ C_max * (mini occupancy /
mini capacity)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.registry import get_kernel
from ..rtree.rstar import FrozenRStarTree, RStarTree
from ..workload.queries import KNNWorkload, RangeWorkload
from .compensation import grow_geometry
from .counting import PredictionResult, count_accesses

__all__ = ["DynamicMiniIndexModel", "measure_dynamic_index"]


def measure_dynamic_index(
    points: np.ndarray,
    c_data: int,
    c_dir: int,
    *,
    shuffle_seed: int | None = 0,
) -> FrozenRStarTree:
    """Build the full dynamic R*-tree (the measurement baseline)."""
    tree = RStarTree.build(
        np.asarray(points, dtype=np.float64), c_data, c_dir,
        shuffle_seed=shuffle_seed,
    )
    return tree.freeze()


@dataclass(frozen=True)
class DynamicMiniIndexModel:
    """Mini-index predictor for the dynamic R*-tree (Section 3 recipe)."""

    c_data: int
    c_dir: int
    compensate: bool = True

    def predict(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        sampling_fraction: float,
        rng: np.random.Generator,
        *,
        shuffle_seed: int | None = 0,
    ) -> PredictionResult:
        """Predict mean leaf accesses of the full R*-tree from a sample.

        The mini-tree's data pages have capacity
        ``max(2, round(C_data * zeta))``; directory capacity is kept
        (the directory describes pages, whose *count* is preserved).
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        if not 0 < sampling_fraction <= 1:
            raise ValueError("sampling_fraction must be in (0, 1]")
        n_sample = max(2, round(n * sampling_fraction))
        if n_sample < n:
            sample = points[rng.choice(n, size=n_sample, replace=False)]
        else:
            sample = points
        zeta = sample.shape[0] / n

        c_mini = max(2, round(self.c_data * zeta))
        mini = RStarTree.build(
            sample, c_mini, self.c_dir, shuffle_seed=shuffle_seed
        ).freeze()
        geometry = mini.leaf_geometry

        occupancy = sample.shape[0] / max(1, mini.n_leaves)
        c_eff_estimate = self.c_data * (occupancy / c_mini)
        compensated = False
        if self.compensate and zeta < 1.0 and c_eff_estimate * zeta > 1.0:
            try:
                geometry = grow_geometry(geometry, c_eff_estimate, zeta)
                compensated = True
            except ValueError:
                pass
        per_query = count_accesses(geometry, workload)
        return PredictionResult(
            per_query=per_query,
            detail={
                "zeta": zeta,
                "c_mini": c_mini,
                "n_mini_leaves": int(mini.n_leaves),
                "c_eff_estimate": c_eff_estimate,
                "compensated": compensated,
                "kernel": get_kernel().name,
            },
        )
