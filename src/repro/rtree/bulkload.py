"""Top-down bulk loading of VAMSplit R*-tree page layouts.

This is the algorithm of Berchtold, Boehm & Kriegel (EDBT 1998) used by
the paper for both the on-disk index and the in-memory mini-index: the
tree is generated level-wise; at each node the required fanout is
computed from the subtree capacity, and the points are divided among the
children by recursive binary splits along the maximum-variance dimension
(yielding the VAMSplit R*-tree layout of White & Jain).

Mini-index construction (Section 3.1 of the paper) must reproduce the
*full* index's structure -- height, node counts, fanouts -- while
holding only a sample.  We achieve that exactly by threading a *virtual*
point count through the recursion: fanouts and division sizes are
computed on the virtual (full-data) counts from the shared
:class:`~repro.core.topology.Topology`, while the sample points are cut
at proportional ranks.  With ``virtual_n == len(points)`` this reduces
to the ordinary loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.topology import Topology, split_child_counts, subtree_capacity
from .geometry import MBR
from .node import InternalNode, LeafNode, Node
from .split import (
    DimensionRule,
    max_variance_dimension,
    midpoint_rank,
    partition_ids_at_rank,
)

__all__ = ["BulkLoadConfig", "build_tree", "build_subtree"]


@dataclass(frozen=True)
class BulkLoadConfig:
    """Tunable pieces of the bulk loader.

    ``rank_mode`` selects where each binary split cuts: ``"balanced"``
    is the VAMSplit division (proportional point counts, the paper's
    choice); ``"midpoint"`` cuts at the spatial middle of the split
    dimension, which is what uniform-data cost models assume and is
    provided for the ablation study.
    """

    dimension_rule: DimensionRule = field(default=max_variance_dimension)
    rank_mode: str = "balanced"

    def __post_init__(self) -> None:
        if self.rank_mode not in ("balanced", "midpoint"):
            raise ValueError(f"unknown rank_mode {self.rank_mode!r}")


def build_tree(
    points: np.ndarray,
    topology: Topology,
    config: BulkLoadConfig | None = None,
    *,
    stop_level: int = 1,
) -> Node:
    """Bulk load a tree over ``points`` with the given (virtual) topology.

    ``topology.n_points`` may exceed ``len(points)`` -- that is the
    mini-index case, where the structure of the full index is imposed on
    the sample.  ``stop_level > 1`` stops the recursion early, producing
    the *upper tree* of the phased predictors: nodes at that level
    become leaves holding all their points, with their full-dataset
    point quota recorded in ``virtual_n``.  The returned root is an
    object graph of :class:`~repro.rtree.node.InternalNode` /
    ``LeafNode``.
    """
    config = config or BulkLoadConfig()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    if points.shape[0] > topology.n_points:
        raise ValueError(
            f"{points.shape[0]} points exceed the topology's virtual count "
            f"{topology.n_points}"
        )
    if not 1 <= stop_level <= topology.height:
        raise ValueError(f"stop_level {stop_level} outside [1, {topology.height}]")
    ids = np.arange(points.shape[0], dtype=np.int64)
    return build_subtree(
        points, ids, topology.height, topology.n_points, topology, config,
        stop_level=stop_level,
    )


def build_subtree(
    points: np.ndarray,
    ids: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
    config: BulkLoadConfig | None = None,
    *,
    stop_level: int = 1,
) -> Node:
    """Bulk load the subtree rooted at ``level`` over the given ids.

    The bulk-loading recursion is self-contained per node, so a lower
    tree (Section 4.4) over a resampled point set is built by calling
    this directly with the upper-tree leaf's level and virtual count.

    The partition walk builds the nodes without boxes; the boxes come
    afterwards from one pass per level (:func:`_bound_levels`), not
    from per-node point scans and unions.
    """
    config = config or BulkLoadConfig()
    levels: list[list[Node]] = [[] for _ in range(level - stop_level + 1)]
    root = _grow(points, ids, level, n_virtual, topology, config, stop_level,
                 levels)
    _bound_levels(points, levels)
    return root


def _grow(
    points: np.ndarray,
    ids: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
    config: BulkLoadConfig,
    stop_level: int,
    levels: list[list[Node]],
) -> Node:
    """The partition walk: nodes without boxes, listed per level.

    ``levels[i]`` receives the nodes at level ``stop_level + i`` in
    depth-first order, so the children of one node are consecutive in
    the list one level down.
    """
    node: Node
    if level == stop_level:
        node = LeafNode(point_ids=ids, mbr=None, level=level, virtual_n=n_virtual)
    else:
        children = [
            _grow(points, part_ids, level - 1, part_virtual, topology, config,
                  stop_level, levels)
            for part_ids, part_virtual in _divide(
                points, ids, level, n_virtual, topology, config
            )
        ]
        node = InternalNode(
            children=children, mbr=None, level=level,
            n_points=sum(child.n_points for child in children),
        )
    levels[level - stop_level].append(node)
    return node


def _bound_levels(points: np.ndarray, levels: list[list[Node]]) -> None:
    """Set every node's box: leaves from their points, parents from
    their children's corners, one min and one max ``reduceat`` per level.

    An empty node's corners are ``+inf`` / ``-inf``, which no minimum or
    maximum keeps, so a parent's box is the union of its non-empty
    children's boxes; a node with no points keeps ``mbr=None``.
    """
    leaves = levels[0]
    dim = points.shape[1]
    sizes = np.array([leaf.n_points for leaf in leaves], dtype=np.int64)
    lower = np.full((len(leaves), dim), np.inf)
    upper = np.full((len(leaves), dim), -np.inf)
    full = sizes > 0
    if np.any(full):
        rows = points[np.concatenate([leaf.point_ids for leaf in leaves])]
        starts = (np.cumsum(sizes) - sizes)[full]
        # ``+ 0.0`` as in ``mbr_of_points``: one signed zero per corner.
        lower[full] = np.minimum.reduceat(rows, starts, axis=0) + 0.0
        upper[full] = np.maximum.reduceat(rows, starts, axis=0) + 0.0
    _set_boxes(leaves, full, lower, upper)
    for nodes in levels[1:]:
        fanouts = np.array([node.fanout for node in nodes], dtype=np.int64)
        starts = np.cumsum(fanouts) - fanouts
        lower = np.minimum.reduceat(lower, starts, axis=0)
        upper = np.maximum.reduceat(upper, starts, axis=0)
        full = np.array([node.n_points > 0 for node in nodes], dtype=bool)
        _set_boxes(nodes, full, lower, upper)


def _set_boxes(
    nodes: list[Node], full: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> None:
    for i in np.flatnonzero(full).tolist():
        nodes[i].mbr = MBR._unchecked(lower[i], upper[i])


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
            # Unsampled build: virtual counts must track the actual
            # division (they differ under midpoint splits) so deeper
            # fanouts are computed from the true subtree sizes.
            left_virtual, right_virtual = rank, part_virtual - rank
        elif config.rank_mode == "midpoint" and part_ids.shape[0] > 0:
            # Sampled midpoint build: scale the observed split fraction
            # up to the virtual counts (clamped to the capacity bounds),
            # so the mini-index mirrors the midpoint index's structure
            # instead of VAMSplit's balanced one.
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
        # Proportional mapping of the virtual division onto the sample.
        rank = round(n_actual * left_virtual / n_virtual)
    if n_actual == n_virtual:
        # Unsampled build: enforce the capacity constraints exactly so
        # no subtree overflows (matters only for midpoint mode; the
        # balanced division already satisfies them).
        f_left = fanout // 2
        f_right = fanout - f_left
        rank = min(rank, f_left * child_cap)
        rank = max(rank, n_actual - f_right * child_cap)
    return max(0, min(rank, n_actual))
