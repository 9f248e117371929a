"""The unrestricted-memory mini-index predictor (Section 3).

Sample the dataset, bulk load a mini-index *with the full index's
topology* on the sample, grow every leaf page by the compensation
factor of Theorem 1, then count query-region/leaf-page intersections.
This is the conceptually pure model; the phased predictors in
:mod:`repro.core.cutoff` and :mod:`repro.core.resampled` are its
restricted-memory implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.registry import get_kernel
from ..rtree.bulkload import BulkLoadConfig
from ..rtree.tree import RTree
from ..workload.queries import KNNWorkload, RangeWorkload
from .compensation import grow_geometry
from .counting import PredictionResult, count_accesses

__all__ = ["MiniIndexModel"]


@dataclass(frozen=True)
class MiniIndexModel:
    """Sampling-based predictor with the whole sample held in memory.

    ``compensate=False`` disables Theorem 1's page growth -- that is the
    "no compensation" series of Figure 2.
    """

    c_data: int
    c_dir: int
    compensate: bool = True
    config: BulkLoadConfig | None = None

    def predict(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        sampling_fraction: float,
        rng: np.random.Generator,
    ) -> PredictionResult:
        """Predict mean leaf-page accesses from a fresh random sample.

        ``sampling_fraction`` is the paper's ``zeta``; it must exceed
        ``1/C`` so that sampled pages retain volume (Section 3.3).
        """
        geometry, detail = self.fit_geometry(points, sampling_fraction, rng)
        per_query = count_accesses(geometry, workload)
        detail["kernel"] = get_kernel().name
        return PredictionResult(per_query=per_query, detail=detail)

    def fit_geometry(
        self,
        points: np.ndarray,
        sampling_fraction: float,
        rng: np.random.Generator,
    ) -> tuple["LeafGeometry", dict]:
        """The fitted, compensation-grown leaf geometry and its record.

        This is the *model* half of :meth:`predict` -- everything up to
        (but not including) the counting dispatch.  The returned
        geometry is what a warm-start artifact persists: counting it
        against any workload reproduces :meth:`predict` bit-identically
        for the same sample, which is the service layer's
        save/load-equality contract.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        if not 0 < sampling_fraction <= 1:
            raise ValueError("sampling_fraction must be in (0, 1]")
        n_sample = max(1, round(n * sampling_fraction))
        if n_sample < n:
            sample_ids = rng.choice(n, size=n_sample, replace=False)
            sample = points[sample_ids]
        else:
            sample = points
        tree = self.build_mini_index(sample, n)
        geometry = tree.leaf_geometry
        zeta = sample.shape[0] / n
        compensated = False
        if self.compensate and zeta < 1.0:
            try:
                geometry = grow_geometry(
                    geometry, tree.topology.c_eff_data, zeta
                )
                compensated = True
            except ValueError:
                # zeta <= 1/C: sampled pages expect at most one point and
                # Theorem 1 is undefined (Section 3.3) -- predict from
                # the raw sampled pages, as the paper's Figure 2 does in
                # that regime.
                pass
        return geometry, {
            "zeta": zeta,
            "n_sample": sample.shape[0],
            "n_mini_leaves": geometry.k,
            "compensated": compensated,
        }

    def build_mini_index(self, sample: np.ndarray, full_n: int) -> RTree:
        """The mini-index: full-index topology imposed on the sample."""
        return RTree.bulk_load(
            sample,
            self.c_data,
            self.c_dir,
            virtual_n=full_n,
            config=self.config,
        )
