"""The per-node recursive bulk load as the oracle for ``build_subtree``.

``repro.rtree.bulkload.build_subtree`` walks one id array level by
level, permuting each node's slice in place, and reads the leaf corners
off the reordered points in one pass.  Here each node divides its own id
array by binary splits into fresh child arrays, each leaf's box comes
from its own points, and each internal box is the running union of its
children's.  Nothing here calls the walk, so a bug in it shows up as a
difference: the two must agree bit for bit on the leaf ids and their
order, the corners and the virtual counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.topology import Topology, split_child_counts, subtree_capacity
from repro.rtree.bulkload import BulkLoadConfig, PageLayout
from repro.rtree.geometry import MBR
from repro.rtree.node import InternalNode, LeafNode, Node
from repro.rtree.split import midpoint_rank


def partition_ids_at_rank(
    points: np.ndarray, ids: np.ndarray, dim: int, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``ids`` so the ``rank`` smallest coordinates in ``dim`` go left.

    ``points`` is the global ``(N, d)`` matrix; ``ids`` indexes into it.
    Equivalent to sorting ``ids`` by ``points[ids, dim]`` and cutting at
    ``rank``, but in expected linear time via quickselect.
    """
    n = ids.shape[0]
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside [0, {n}]")
    if rank == 0:
        return ids[:0], ids
    if rank == n:
        return ids, ids[:0]
    order = np.argpartition(points[ids, dim], rank - 1)
    return ids[order[:rank]], ids[order[rank:]]


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


def _divide(
    points: np.ndarray,
    ids: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
    config: BulkLoadConfig,
) -> list[tuple[np.ndarray, int]]:
    """Divide a node's ids into its children's shares by binary splits."""
    child_cap = subtree_capacity(level - 1, topology.c_data, topology.c_dir)
    fanout = max(1, math.ceil(n_virtual / child_cap))
    parts: list[tuple[np.ndarray, int]] = []
    pending: list[tuple[np.ndarray, int, int]] = [(ids, n_virtual, fanout)]
    while pending:
        part_ids, part_virtual, part_fanout = pending.pop()
        if part_fanout == 1:
            parts.append((part_ids, part_virtual))
            continue
        left_virtual, right_virtual = split_child_counts(
            part_virtual, part_fanout, child_cap
        )
        rank = _split_rank(
            points, part_ids, part_virtual, left_virtual, part_fanout, child_cap, config
        )
        dim = config.dimension_rule(points[part_ids])
        left_ids, right_ids = partition_ids_at_rank(points, part_ids, dim, rank)
        if part_ids.shape[0] == part_virtual:
            left_virtual, right_virtual = rank, part_virtual - rank
        elif config.rank_mode == "midpoint" and part_ids.shape[0] > 0:
            f_left = part_fanout // 2
            f_right = part_fanout - f_left
            left_virtual = round(part_virtual * rank / part_ids.shape[0])
            left_virtual = min(left_virtual, f_left * child_cap)
            left_virtual = max(left_virtual, part_virtual - f_right * child_cap)
            left_virtual = max(min(left_virtual, part_virtual - f_right), f_left)
            right_virtual = part_virtual - left_virtual
        f_left = part_fanout // 2
        pending.append((right_ids, right_virtual, part_fanout - f_left))
        pending.append((left_ids, left_virtual, f_left))
    return parts


def _split_rank(
    points: np.ndarray,
    ids: np.ndarray,
    n_virtual: int,
    left_virtual: int,
    fanout: int,
    child_cap: int,
    config: BulkLoadConfig,
) -> int:
    """Actual-point rank at which to cut ``ids`` for this binary split."""
    n_actual = ids.shape[0]
    if config.rank_mode == "midpoint" and n_actual > 0:
        dim = config.dimension_rule(points[ids])
        rank = midpoint_rank(points, ids, dim)
    else:
        rank = round(n_actual * left_virtual / n_virtual)
    if n_actual == n_virtual:
        f_left = fanout // 2
        f_right = fanout - f_left
        rank = min(rank, f_left * child_cap)
        rank = max(rank, n_actual - f_right * child_cap)
    return max(0, min(rank, n_actual))


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


def assert_same_layout(got: PageLayout, want: Node, dim: int) -> None:
    """The flat result against the oracle's graph: ``order`` is the
    leaves' ids in depth-first order, each level's bounds and fanouts
    are the node sizes and child counts, corners match bitwise (``±inf``
    rows for empty leaves), and so do the virtual counts."""
    levels: list[list[Node]] = []
    frontier = [want]
    while True:
        levels.append(frontier)
        if frontier[0].is_leaf:
            break
        frontier = [child for node in frontier for child in node.children]
    levels.reverse()
    leaves = levels[0]
    assert all(leaf.is_leaf for leaf in leaves)
    assert got.stop_level == leaves[0].level
    want_order = np.concatenate([leaf.point_ids for leaf in leaves])
    assert got.order.dtype == want_order.dtype
    assert np.array_equal(got.order, want_order)
    assert len(got.bounds) == len(levels)
    for edges, nodes in zip(got.bounds, levels):
        sizes = [node.n_points for node in nodes]
        assert edges.tolist() == np.concatenate([[0], np.cumsum(sizes)]).tolist()
    assert len(got.fanouts) == len(levels) - 1
    for fanouts, nodes in zip(got.fanouts, levels[1:]):
        assert fanouts.tolist() == [node.fanout for node in nodes]
    assert got.virtual_n.tolist() == [leaf.virtual_n for leaf in leaves]
    want_lower = np.full((len(leaves), dim), np.inf)
    want_upper = np.full((len(leaves), dim), -np.inf)
    for row, leaf in enumerate(leaves):
        if leaf.mbr is not None:
            want_lower[row], want_upper[row] = leaf.mbr.lower, leaf.mbr.upper
    assert got.full.tolist() == [leaf.mbr is not None for leaf in leaves]
    for mine, theirs in ((got.lower, want_lower), (got.upper, want_upper)):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
