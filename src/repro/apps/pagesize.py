"""Application: determining the optimal index page size (Section 6.1).

Small pages mean many expensive random seeks; large pages drag
unnecessary points through the disk interface.  The optimum lies in
between, and finding it by building the real index once per candidate
page size takes hours -- the prediction model finds it in seconds
(Figure 13: the model tracks the measured cost closely and identifies
the same optimal page size, 64 KB for the LANDSAT/TEXTURE60 data).

For each candidate page size the sweep derives the page capacities the
geometry dictates, predicts the mean leaf accesses per query with the
chosen sampling predictor, and prices a query as ``accesses * (t_seek +
t_xfer(page))`` -- all accesses random, as the paper confirms they are
on the real index.  Optionally the measured curve (full index, exact
sphere counts) is computed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.predictor import IndexCostPredictor
from ..disk.accounting import DiskParameters, IOCost
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..rtree.tree import RTree
from ..workload.queries import KNNWorkload

__all__ = ["PageSizePoint", "PageSizeSweep", "sweep_page_sizes"]

DEFAULT_PAGE_SIZES = (4096, 8192, 16384, 32768, 65536, 131072, 262144)


@dataclass(frozen=True)
class PageSizePoint:
    """Predicted (and optionally measured) query cost at one page size."""

    page_bytes: int
    c_data: int
    c_dir: int
    predicted_accesses: float
    predicted_seconds: float
    measured_accesses: float | None = None
    measured_seconds: float | None = None
    #: the prediction's charged ledger (what shard tuning reports as
    #: its I/O)
    io_cost: IOCost | None = None


@dataclass(frozen=True)
class PageSizeSweep:
    """The full sweep plus the located optima."""

    points: tuple[PageSizePoint, ...]

    @property
    def predicted_optimum(self) -> PageSizePoint | None:
        if not self.points:
            return None
        return min(self.points, key=lambda p: p.predicted_seconds)

    @property
    def measured_optimum(self) -> PageSizePoint | None:
        measured = [p for p in self.points if p.measured_seconds is not None]
        if not measured:
            return None
        return min(measured, key=lambda p: p.measured_seconds)


def _query_seconds(accesses: float, disk: DiskParameters) -> float:
    """Cost of one query: every leaf access is one random page read."""
    return accesses * (disk.t_seek + disk.t_xfer)


def sweep_page_sizes(
    data: np.ndarray,
    workload: KNNWorkload,
    *,
    memory: int = 10_000,
    page_sizes: tuple[int, ...] = DEFAULT_PAGE_SIZES,
    base_disk: DiskParameters | None = None,
    method: str = "resampled",
    measure: bool = False,
    seed: int = 0,
) -> PageSizeSweep:
    """Predict per-query I/O cost across candidate page sizes.

    ``base_disk`` fixes the physical drive (seek time and bandwidth);
    each candidate page size rescales the transfer time accordingly.
    With ``measure=True`` the exact per-size access counts are computed
    from a fully built index for comparison (slow -- that is the point
    of the application).
    """
    data = np.asarray(data, dtype=np.float64)
    base_disk = base_disk or DiskParameters()

    # Candidate page sizes can round to the same (c_data, c_dir)
    # capacities; the measured path shares one built tree's cached leaf
    # geometry across those cells instead of rebuilding and restacking.
    measured_geometry: dict[tuple[int, int], LeafGeometry] = {}

    def measured_counts(c_data: int, c_dir: int) -> np.ndarray:
        geometry = measured_geometry.get((c_data, c_dir))
        if geometry is None:
            geometry = RTree.bulk_load(data, c_data, c_dir).leaf_geometry
            measured_geometry[(c_data, c_dir)] = geometry
        return get_kernel().count_knn(
            geometry, workload.queries, workload.radii
        )

    def cell(page_bytes: int) -> PageSizePoint:
        disk = base_disk.with_page_bytes(page_bytes)
        predictor = IndexCostPredictor(
            dim=data.shape[1], memory=memory, disk_parameters=disk,
        )
        prediction = predictor.predict(data, workload, method=method, seed=seed)
        measured_accesses: float | None = None
        measured_seconds: float | None = None
        if measure:
            counts = measured_counts(predictor.c_data, predictor.c_dir)
            measured_accesses = float(np.mean(counts))
            measured_seconds = _query_seconds(measured_accesses, disk)
        return PageSizePoint(
            page_bytes=page_bytes,
            c_data=predictor.c_data,
            c_dir=predictor.c_dir,
            predicted_accesses=prediction.mean_accesses,
            predicted_seconds=_query_seconds(prediction.mean_accesses, disk),
            measured_accesses=measured_accesses,
            measured_seconds=measured_seconds,
            io_cost=prediction.io_cost,
        )

    return PageSizeSweep(
        points=tuple(cell(page_bytes) for page_bytes in page_sizes)
    )
