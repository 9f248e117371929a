"""Application: determining the optimal indexed dimensionality (§6.2).

Instead of indexing all ``d`` dimensions, the index can store only the
first ``m`` (KLT-sorted, so the most informative) dimensions, with the
full vectors kept in an *object server*.  The optimal multi-step k-NN
algorithm of Seidl & Kriegel then accesses an index page exactly when
its reduced-space MINDIST does not exceed the query's full-space k-NN
distance (reduced-space distances lower-bound full-space ones, so the
filter is lossless).

For each candidate ``m`` this sweep predicts the number of *index* page
accesses (Figure 14): points are projected onto their leading ``m``
dimensions, page capacities grow because projected points are smaller,
and the prediction counts leaf pages whose projected MBR intersects the
sphere with the *full-dimensional* radius.  The number of object-server
candidates (points passing the filter) is predicted from the same
sample, scaled by the sampling ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.predictor import IndexCostPredictor
from ..disk.accounting import DiskParameters
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..rtree.tree import RTree
from ..workload.queries import KNNWorkload

__all__ = ["DimensionPoint", "DimensionSweep", "sweep_index_dimensions"]


@dataclass(frozen=True)
class DimensionPoint:
    """Predicted/measured index accesses with ``m`` indexed dimensions."""

    n_dimensions: int
    c_data: int
    predicted_accesses: float
    measured_accesses: float | None = None
    predicted_candidates: float | None = None
    measured_candidates: float | None = None


@dataclass(frozen=True)
class DimensionSweep:
    points: tuple[DimensionPoint, ...]


def _projected_workload(workload: KNNWorkload, m: int) -> KNNWorkload:
    """The workload in the reduced space, keeping full-space radii."""
    return KNNWorkload(
        k=workload.k,
        query_ids=workload.query_ids,
        queries=workload.queries[:, :m],
        radii=workload.radii,
    )


def _candidate_counts(
    projected: np.ndarray, workload: KNNWorkload, chunk_rows: int = 65536
) -> np.ndarray:
    """Points passing the lower-bound filter, per query (exact)."""
    counts = np.zeros(workload.n_queries, dtype=np.int64)
    radii_sq = workload.radii**2
    queries = workload.queries[:, : projected.shape[1]]
    query_sq = np.einsum("qd,qd->q", queries, queries)
    for start in range(0, projected.shape[0], chunk_rows):
        block = projected[start : start + chunk_rows]
        block_sq = np.einsum("nd,nd->n", block, block)
        dists_sq = query_sq[:, None] + block_sq[None, :] - 2.0 * (queries @ block.T)
        counts += np.count_nonzero(dists_sq <= radii_sq[:, None], axis=1)
    return counts


def sweep_index_dimensions(
    data: np.ndarray,
    workload: KNNWorkload,
    dimensions: tuple[int, ...],
    *,
    memory: int = 10_000,
    disk: DiskParameters | None = None,
    method: str = "resampled",
    measure: bool = False,
    candidates: bool = False,
    seed: int = 0,
) -> DimensionSweep:
    """Predict index page accesses for each candidate prefix length.

    ``data`` must already be KLT-transformed (leading columns carry the
    most variance); ``dimensions`` are the prefix lengths to evaluate.
    """
    data = np.asarray(data, dtype=np.float64)
    disk = disk or DiskParameters()
    for m in dimensions:
        if not 1 <= m <= data.shape[1]:
            raise ValueError(f"cannot index {m} of {data.shape[1]} dimensions")

    # Distinct prefixes can still share (m, c_data): the measured tree's
    # cached geometry is reused across such cells.
    measured_geometry: dict[tuple[int, int], LeafGeometry] = {}

    def cell(m: int) -> DimensionPoint:
        projected = np.ascontiguousarray(data[:, :m])
        reduced_workload = _projected_workload(workload, m)
        predictor = IndexCostPredictor(
            dim=m, memory=memory, disk_parameters=disk
        )
        prediction = predictor.predict(
            projected, reduced_workload, method=method, seed=seed
        )
        measured_accesses: float | None = None
        measured_candidates: float | None = None
        predicted_candidates: float | None = None
        if measure:
            key = (m, predictor.c_data)
            geometry = measured_geometry.get(key)
            if geometry is None:
                geometry = RTree.bulk_load(
                    projected, predictor.c_data, predictor.c_dir
                ).leaf_geometry
                measured_geometry[key] = geometry
            counts = get_kernel().count_knn(
                geometry, reduced_workload.queries, reduced_workload.radii
            )
            measured_accesses = float(np.mean(counts))
        if candidates:
            measured_candidates = float(
                np.mean(_candidate_counts(projected, reduced_workload))
            )
            # Sample-based estimate: candidates among a sample, rescaled.
            rng = np.random.default_rng(seed)
            n_sample = min(memory, projected.shape[0])
            sample_ids = rng.choice(projected.shape[0], n_sample, replace=False)
            sample_counts = _candidate_counts(projected[sample_ids], reduced_workload)
            predicted_candidates = float(
                np.mean(sample_counts) * projected.shape[0] / n_sample
            )
        return DimensionPoint(
            n_dimensions=m,
            c_data=predictor.c_data,
            predicted_accesses=prediction.mean_accesses,
            measured_accesses=measured_accesses,
            predicted_candidates=predicted_candidates,
            measured_candidates=measured_candidates,
        )

    return DimensionSweep(points=tuple(cell(m) for m in dimensions))
