"""Page-access counting against a predicted leaf-page layout.

Every prediction method in the paper ends the same way: given the
(estimated, compensation-grown) leaf pages and the query workload,
count for each query how many pages its region intersects and report
the average (Figures 5 and 7, last steps).  This module is that shared
final step, for both k-NN spheres and range boxes -- a thin dispatch
to the selected counting kernel (:func:`repro.kernels.get_kernel`,
looked up on every call), so every predictor runs the same batched
fast path and the backend is selected in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..disk.accounting import IOCost
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..workload.queries import KNNWorkload, RangeWorkload

__all__ = [
    "PredictionResult",
    "count_accesses",
    "count_grid_accesses",
    "knn_accesses_per_query",
    "range_accesses_per_query",
]


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of one prediction run.

    ``per_query`` holds the predicted leaf-page accesses of each query
    (the paper's correlation diagrams plot these against measurements);
    ``io_cost`` is the seek/transfer count the *prediction itself*
    incurred on the simulated disk (zero for the unrestricted-memory
    model).  ``detail`` carries method-specific diagnostics such as the
    sampling ratios and counting kernel used.
    """

    per_query: np.ndarray
    io_cost: IOCost = field(default_factory=IOCost)
    detail: dict = field(default_factory=dict)

    @property
    def mean_accesses(self) -> float:
        """Average predicted leaf-page accesses per query."""
        return float(np.mean(self.per_query))

    def relative_error(self, measured_mean: float) -> float:
        """Signed relative error vs. a measured mean (paper's metric:
        negative = underestimation, positive = overestimation)."""
        if measured_mean <= 0:
            raise ValueError("measured mean must be positive")
        return (self.mean_accesses - measured_mean) / measured_mean


def count_accesses(
    geometry: LeafGeometry,
    workload: KNNWorkload | RangeWorkload,
) -> np.ndarray:
    """Per-query count of leaf pages each query region intersects.

    Dispatches on the workload type (k-NN spheres vs. range boxes) to
    the selected counting kernel.
    """
    backend = get_kernel()
    if isinstance(workload, KNNWorkload):
        return backend.count_knn(geometry, workload.queries, workload.radii)
    return backend.count_range(geometry, workload.lower, workload.upper)


def count_grid_accesses(
    geometry: LeafGeometry,
    workload: KNNWorkload,
    radii_grid: np.ndarray,
) -> np.ndarray:
    """Fused (queries x radii) counts: one geometry pass, ``(g, q)`` rows.

    Row ``r`` is bit-identical to
    ``count_accesses(geometry, workload.with_radii(radii_grid[r]))`` --
    the fused dispatch exists so sweeps probing one geometry at many
    radius rows stop re-dispatching the kernel per row.  ``radii_grid``
    may be ``(g, q)`` or ``(g,)`` (a constant radius per row).
    """
    return get_kernel().count_grid(geometry, workload.queries, radii_grid)


def knn_accesses_per_query(
    lower: np.ndarray,
    upper: np.ndarray,
    workload: KNNWorkload,
) -> np.ndarray:
    """Per-query count of leaf boxes intersecting each k-NN sphere."""
    return get_kernel().count_knn(
        LeafGeometry.from_corners(lower, upper), workload.queries, workload.radii
    )


def range_accesses_per_query(
    lower: np.ndarray,
    upper: np.ndarray,
    workload: RangeWorkload,
) -> np.ndarray:
    """Per-query count of leaf boxes intersecting each range box."""
    return get_kernel().count_range(
        LeafGeometry.from_corners(lower, upper), workload.lower, workload.upper
    )
