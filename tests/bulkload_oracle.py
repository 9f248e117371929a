"""The per-node recursive bulk load as the oracle for ``build_subtree``.

``repro.rtree.bulkload.build_subtree`` runs the partition walk first
and sets every box afterwards, one pass per level.  This is the loader
it replaced: each leaf's box from its own points, each internal box
as the running union of its children's.  Both walk the same
``_divide``, so they must build the same node graph bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.topology import Topology
from repro.rtree.bulkload import BulkLoadConfig, _divide
from repro.rtree.geometry import MBR
from repro.rtree.node import InternalNode, LeafNode, Node


def build_subtree_recursive(
    points: np.ndarray,
    ids: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
    config: BulkLoadConfig | None = None,
    *,
    stop_level: int = 1,
) -> Node:
    """Bulk load the subtree rooted at ``level``, one node at a time."""
    config = config or BulkLoadConfig()
    if level == stop_level:
        mbr = MBR.of_points(points[ids]) if ids.shape[0] > 0 else None
        return LeafNode(point_ids=ids, mbr=mbr, level=level, virtual_n=n_virtual)
    children = [
        build_subtree_recursive(
            points, part_ids, level - 1, part_virtual, topology, config,
            stop_level=stop_level,
        )
        for part_ids, part_virtual in _divide(
            points, ids, level, n_virtual, topology, config
        )
    ]
    mbr: MBR | None = None
    for child in children:
        if child.mbr is not None:
            mbr = child.mbr if mbr is None else mbr.union(child.mbr)
    n_points = sum(child.n_points for child in children)
    return InternalNode(children=children, mbr=mbr, level=level, n_points=n_points)


def assert_same_graph(got: Node, want: Node) -> None:
    """Field-by-field equality of two node graphs; corners bitwise."""
    assert type(got) is type(want)
    assert got.level == want.level
    assert got.n_points == want.n_points
    if want.mbr is None:
        assert got.mbr is None
    else:
        assert got.mbr is not None
        for mine, theirs in ((got.mbr.lower, want.mbr.lower),
                             (got.mbr.upper, want.mbr.upper)):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()
    if isinstance(want, LeafNode):
        assert got.virtual_n == want.virtual_n
        assert got.point_ids.dtype == want.point_ids.dtype
        assert np.array_equal(got.point_ids, want.point_ids)
        return
    assert got.fanout == want.fanout
    for mine, theirs in zip(got.children, want.children):
        assert_same_graph(mine, theirs)
