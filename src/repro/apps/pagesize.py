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
from ..runtime.batch import BatchRunner, BatchTask
from ..runtime.budget import Budget
from ..rtree.tree import RTree
from ..workload.queries import KNNWorkload

__all__ = ["PageSizePoint", "PageSizeSweep", "sweep_page_sizes"]

DEFAULT_PAGE_SIZES = (4096, 8192, 16384, 32768, 65536, 131072, 262144)


@dataclass(frozen=True)
class PageSizePoint:
    """Predicted (and optionally measured) query cost at one page size.

    ``status`` is ``"ok"`` for a completed cell; a budget-governed sweep
    marks cells it could not finish ``"over_budget"``, ``"rejected"``
    (never admitted -- the global budget was spent), or ``"failed"``,
    with NaN costs.  The optimum properties only consider ``"ok"``
    cells.
    """

    page_bytes: int
    c_data: int
    c_dir: int
    predicted_accesses: float
    predicted_seconds: float
    measured_accesses: float | None = None
    measured_seconds: float | None = None
    status: str = "ok"
    #: the prediction's charged ledger -- what a budget-governed sweep's
    #: admission control observes between cells
    io_cost: IOCost | None = None


@dataclass(frozen=True)
class PageSizeSweep:
    """The full sweep plus the located optima."""

    points: tuple[PageSizePoint, ...]

    @property
    def predicted_optimum(self) -> PageSizePoint | None:
        ok = [p for p in self.points if p.status == "ok"]
        if not ok:
            return None
        return min(ok, key=lambda p: p.predicted_seconds)

    @property
    def measured_optimum(self) -> PageSizePoint | None:
        measured = [
            p for p in self.points
            if p.status == "ok" and p.measured_seconds is not None
        ]
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
    budget: Budget | None = None,
    cell_deadline_s: float | None = None,
    max_workers: int = 4,
) -> PageSizeSweep:
    """Predict per-query I/O cost across candidate page sizes.

    ``base_disk`` fixes the physical drive (seek time and bandwidth);
    each candidate page size rescales the transfer time accordingly.
    With ``measure=True`` the exact per-size access counts are computed
    from a fully built index for comparison (slow -- that is the point
    of the application).

    A ``budget`` (global wall-clock and I/O caps across the whole sweep)
    or ``cell_deadline_s`` (per-cell wall-clock cap) runs the sweep
    through the admission-controlled
    :class:`~repro.runtime.batch.BatchRunner` with ``max_workers``
    concurrent cells: pathological cells come back marked
    ``over_budget`` / ``rejected`` / ``failed`` instead of wedging the
    sweep, and :attr:`PageSizeSweep.predicted_optimum` skips them.
    Without either, cells run serially and the sweep is bit-identical to
    the ungoverned behavior.
    """
    data = np.asarray(data, dtype=np.float64)
    base_disk = base_disk or DiskParameters()

    # Candidate page sizes can round to the same (c_data, c_dir)
    # capacities; the measured path shares one built tree's cached leaf
    # geometry across those cells instead of rebuilding and restacking.
    # (LeafGeometry is immutable, so concurrent cells may share it; a
    # rare duplicate build under races is only wasted work.)
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

    if budget is None and cell_deadline_s is None:
        return PageSizeSweep(
            points=tuple(cell(page_bytes) for page_bytes in page_sizes)
        )

    runner = BatchRunner(
        budget=budget, task_deadline_s=cell_deadline_s,
        max_workers=max_workers,
    )
    report = runner.run([
        BatchTask(name=str(page_bytes), fn=lambda pb=page_bytes: cell(pb))
        for page_bytes in page_sizes
    ])
    points: list[PageSizePoint] = []
    for page_bytes, task in zip(page_sizes, report.tasks):
        if task.status == "ok":
            points.append(task.result)
        else:
            points.append(PageSizePoint(
                page_bytes=page_bytes, c_data=0, c_dir=0,
                predicted_accesses=float("nan"),
                predicted_seconds=float("nan"),
                status=task.status,
            ))
    return PageSizeSweep(points=tuple(points))
