"""Measured query cost on the on-disk index -- the ground truth.

The paper's reference numbers come from actually running the k-NN
queries on the bulk-loaded on-disk index and counting leaf-page
accesses plus the disk operations they cause.  ``measure_knn`` replays
the reads of the optimal best-first search (Hjaltason & Samet,
:func:`~repro.rtree.search.best_first_knn`) without running it per
query: the search reads exactly the leaves whose MINDIST is within the
final k-th neighbor distance, and it reads them in heap order.  So:

1. one blocked scan gives each query's k-th squared distance from the
   index's own points, in the search's arithmetic
   (:func:`~repro.workload.queries.search_kth_sq`);
2. one top-down MINDIST pass over the layout's directory (the batched
   kernel's pair pass) gives the leaves within it and, for each, its
   ancestors' MINDIST;
3. sorting those leaves by the heap's key reproduces the search's pop
   order, and the same ``disk.read(first, count)`` calls are issued in
   it, with the same ``drop_head()`` after each query.

Leaf visits in search order are almost never adjacent, which is why
the paper observes a seek-to-transfer ratio near 1 for queries.  The
test suite keeps the per-query search loop as the oracle and holds this
replay bit-identical to it: per-query counts, ``IOCost``, and every
read a fault injector sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..disk.accounting import IOCost
from ..errors import InputValidationError
from ..kernels.batched import NumpyBatchedKernel
from ..rtree.tree import RTree
from ..workload.queries import KNNWorkload, search_kth_sq
from .builder import OnDiskIndex

__all__ = ["MeasurementResult", "measure_knn"]


@dataclass(frozen=True)
class MeasurementResult:
    """Measured per-query leaf accesses and the I/O they cost."""

    per_query: np.ndarray
    io_cost: IOCost

    @property
    def mean_accesses(self) -> float:
        return float(np.mean(self.per_query))


def measure_knn(index: OnDiskIndex, workload: KNNWorkload) -> MeasurementResult:
    """Run the workload's k-NN queries on disk, charging leaf reads.

    Raises :class:`~repro.errors.InputValidationError` when the queries
    and the index disagree in dimensionality, when ``k`` exceeds the
    indexed points, or when a query is not finite.
    """
    tree = index.tree
    n, dim = tree.points.shape
    queries = workload.queries
    if queries.shape[1] != dim:
        raise InputValidationError(
            f"the workload's queries are {queries.shape[1]}-d but the "
            f"index holds {dim}-d points"
        )
    if workload.k > n:
        raise InputValidationError(
            f"k={workload.k} exceeds the {n} points in the index"
        )
    if not np.isfinite(queries).all():
        raise InputValidationError("the workload's queries are not all finite")
    kth_sq = search_kth_sq(tree.points, queries, workload.k)
    rows, leaves = _read_order(tree, queries, kth_sq)
    spans = index.leaf_pages[tree.layout.full]
    firsts = spans[leaves, 0].tolist()
    counts = spans[leaves, 1].tolist()
    per_query = np.bincount(rows, minlength=workload.n_queries).astype(np.int64)
    disk = index.file.disk
    start_cost = disk.cost
    start = 0
    for stop in np.cumsum(per_query).tolist():
        for i in range(start, stop):
            disk.read(firsts[i], counts[i])
        disk.drop_head()
        start = stop
    return MeasurementResult(per_query=per_query, io_cost=disk.cost - start_cost)


def _read_order(
    tree: RTree, queries: np.ndarray, kth_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(query, leaf row)`` of every leaf read, in the search's order.

    The search pops nodes by ``(MINDIST, push counter)``.  A child is
    pushed when its parent pops, so among the leaves read the counter
    order is the parents' pop order, then child order.  Unrolled up the
    tree, the key of a leaf is its MINDIST, its parent's, its
    grandparent's and so on up to the root (the same for every leaf),
    and last its depth-first position -- which is its row in
    ``leaf_geometry``.
    """
    rows, leaves, leaf_sq, ancestor_sq = NumpyBatchedKernel().knn_pairs(
        tree.layout.directory(), queries, kth_sq
    )
    order = np.lexsort((leaves, *ancestor_sq, leaf_sq, rows))
    return rows[order], leaves[order]
