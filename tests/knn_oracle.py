"""Node-graph oracles for ``measure_knn`` and the on-disk layout.

``repro.ondisk.measure.measure_knn`` replays the leaf reads of the
optimal k-NN search from blocked passes.  ``measure_by_search`` is the
search itself, run once per query: it charges each visited leaf's pages
in visiting order and drops the head after every query.  The replay
must match it bit for bit -- per-query counts, ``IOCost``, and the read
sequence.

The replay reads the index's directory levels, leaf ancestors and leaf
page spans off its page layout's arrays; ``directory_levels_by_walk``
and ``leaf_pages_by_walk`` derive the same from a walk of the node
graph.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.geometry import LeafGeometry
from repro.ondisk.measure import MeasurementResult


def measure_by_search(index, workload) -> MeasurementResult:
    """Run the workload's k-NN queries on disk, charging leaf reads."""
    disk = index.file.disk
    start_cost = disk.cost
    per_query = np.zeros(workload.n_queries, dtype=np.int64)
    for i, query in enumerate(workload.queries):
        result = index.tree.knn(query, workload.k, collect_leaves=True)
        per_query[i] = result.leaf_accesses
        for leaf in result.accessed_leaves:
            first, count = index.leaf_page_span(leaf)
            disk.read(first, count)
        disk.drop_head()
    return MeasurementResult(per_query=per_query, io_cost=disk.cost - start_cost)


def directory_levels_by_walk(tree) -> list[tuple[LeafGeometry, np.ndarray]]:
    """Each directory level below the root, top down, walked on the node
    graph: its non-empty nodes' boxes in depth-first order, and for every
    non-empty leaf the position of its ancestor at that level."""
    nodes: list[list] = []
    paths: list[tuple[int, ...]] = []

    def walk(node, path: tuple[int, ...], depth: int) -> None:
        if node.mbr is None:
            return
        if node.is_leaf:
            paths.append(path)
            return
        if depth:
            if len(nodes) < depth:
                nodes.append([])
            path = path + (len(nodes[depth - 1]),)
            nodes[depth - 1].append(node)
        for child in node.children:
            walk(child, path, depth + 1)

    walk(tree.root, (), 0)
    assert len({len(path) for path in paths}) <= 1, "leaves at several depths"
    ancestors = np.array(paths, dtype=np.intp).reshape(len(paths), len(nodes))
    return [
        (
            LeafGeometry.from_corners(
                np.stack([node.mbr.lower for node in level]),
                np.stack([node.mbr.upper for node in level]),
            ),
            ancestors[:, depth],
        )
        for depth, level in enumerate(nodes)
    ]


def leaf_pages_by_walk(index) -> list[tuple[int, int]]:
    """(first page, page count) of every leaf, empty ones included,
    laid out leaf after leaf in the graph's leaf order."""
    spans = []
    page = index.file.start_page
    per_page = index.file.points_per_page
    for leaf in index.tree.root.iter_leaves():
        pages = max(1, math.ceil(leaf.n_points / per_page))
        spans.append((page, pages))
        page += pages
    return spans
