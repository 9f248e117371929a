"""Best-first k-NN search over any MBR node graph.

Both the bulk-loaded tree (:class:`~repro.rtree.tree.RTree`) and the
dynamic R*-tree (:class:`~repro.rtree.rstar.RStarTree`) expose the same
node shape -- ``mbr``, ``is_leaf``, ``children`` / ``point_ids`` -- so
the optimal incremental NN algorithm of Hjaltason & Samet lives here
once.  A node is read only when its MINDIST does not exceed the current
k-th best distance, making leaf accesses minimal for the layout; that
optimality is what ties measured accesses to the paper's
sphere-intersection counts.

Box MINDIST (:meth:`~repro.rtree.geometry.MBR.mindist_sq`) and point
distances both add their squared per-dimension terms in the counting
kernels' order (:func:`~repro.kernels.geometry.ordered_sum_sq`), so no
point is ever nearer than its own leaf's box: over an MBR tree the
search reads exactly the leaves within its final k-th distance, which
is what lets :func:`~repro.ondisk.measure.measure_knn` replay its reads
from a kernel pass.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..kernels.geometry import ordered_sum_sq
from .node import LeafNode, Node

__all__ = ["best_first_knn", "incremental_nn"]


def incremental_nn(points, root, query):
    """Yield ``(point_id, distance)`` in non-decreasing distance order.

    The full incremental variant of Hjaltason & Samet: the priority
    queue mixes nodes and individual points, so neighbors stream out
    lazily -- callers that stop after ``k`` results touch exactly the
    pages an optimal k-NN search would.
    """
    query = np.asarray(query, dtype=np.float64)
    if root is None or root.mbr is None:
        return
    counter = itertools.count()
    # Heap entries: (dist_sq, tiebreak, is_point, payload).
    heap = [(root.mbr.mindist_sq(query), next(counter), False, root)]
    while heap:
        dist_sq, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            yield int(payload), float(np.sqrt(dist_sq))
            continue
        if payload.is_leaf:
            ids = np.asarray(payload.point_ids, dtype=np.int64)
            dists_sq = ordered_sum_sq(points[ids] - query)
            for pid, dsq in zip(ids.tolist(), dists_sq.tolist()):
                heapq.heappush(heap, (dsq, next(counter), True, pid))
        else:
            for child in payload.children:
                if child.mbr is None:
                    continue
                heapq.heappush(
                    heap,
                    (child.mbr.mindist_sq(query), next(counter), False, child),
                )


def best_first_knn(
    points: np.ndarray,
    root: Node | None,
    query: np.ndarray,
    k: int,
    *,
    collect_leaves: bool = False,
) -> tuple[np.ndarray, np.ndarray, int, int, tuple[LeafNode, ...] | None]:
    """Optimal k-NN search; returns (ids, distances, leaf_accesses,
    node_accesses, accessed_leaves-or-None)."""
    query = np.asarray(query, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    collected: list[LeafNode] | None = [] if collect_leaves else None
    if root is None or root.mbr is None:
        return (
            np.empty(0, np.int64),
            np.empty(0),
            0,
            0,
            tuple(collected) if collected is not None else None,
        )

    counter = itertools.count()  # tie-break for the heap
    frontier: list[tuple[float, int, Node]] = [
        (root.mbr.mindist_sq(query), next(counter), root)
    ]
    # Max-heap (by negated distance) of the best k candidates so far.
    best: list[tuple[float, int]] = []
    kth_sq = np.inf
    leaf_accesses = 0
    node_accesses = 0

    while frontier and frontier[0][0] <= kth_sq:
        dist_sq, _, node = heapq.heappop(frontier)
        node_accesses += 1
        if node.is_leaf:
            leaf_accesses += 1
            if collected is not None:
                collected.append(node)
            ids = np.asarray(node.point_ids, dtype=np.int64)
            dists_sq = ordered_sum_sq(points[ids] - query)
            for pid, dsq in zip(ids.tolist(), dists_sq.tolist()):
                if len(best) < k:
                    heapq.heappush(best, (-dsq, pid))
                elif dsq < -best[0][0]:
                    heapq.heapreplace(best, (-dsq, pid))
            if len(best) == k:
                kth_sq = -best[0][0]
        else:
            for child in node.children:
                if child.mbr is None:
                    continue
                child_dist = child.mbr.mindist_sq(query)
                if child_dist <= kth_sq:
                    heapq.heappush(frontier, (child_dist, next(counter), child))

    order = sorted((-neg, pid) for neg, pid in best)
    ids = np.array([pid for _, pid in order], dtype=np.int64)
    dists = np.sqrt(np.array([dsq for dsq, _ in order]))
    return (
        ids,
        dists,
        leaf_accesses,
        node_accesses,
        tuple(collected) if collected is not None else None,
    )
