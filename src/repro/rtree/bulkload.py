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
point count through the walk: fanouts and division sizes are
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
from .split import DimensionRule, max_variance_dimension, midpoint_rank

__all__ = ["BulkLoadConfig", "PageLayout", "build_tree", "build_subtree"]


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


@dataclass(frozen=True)
class PageLayout:
    """A bulk-loaded subtree as slices of one id array.

    Every node's ids are one contiguous slice of ``order``: node ``j``
    at level ``stop_level + i`` holds
    ``order[bounds[i][j]:bounds[i][j + 1]]``, so ``bounds[0]`` cuts the
    leaves and ``bounds[-1]`` is the root's ``[0, n]``.  ``fanouts[i]``
    counts the children of each node at level ``stop_level + 1 + i``;
    the children of one node are consecutive one level down, in
    depth-first order.  ``lower`` / ``upper`` are the leaves' ``(k, d)``
    corners (``+inf`` / ``-inf`` rows for a leaf with no points) and
    ``virtual_n`` their full-dataset point quotas.
    """

    order: np.ndarray
    bounds: tuple[np.ndarray, ...]
    fanouts: tuple[np.ndarray, ...]
    virtual_n: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    stop_level: int

    @property
    def full(self) -> np.ndarray:
        """Which leaves hold points (the rows of real corners)."""
        return self.bounds[0][1:] > self.bounds[0][:-1]

    def graph(self, ids: np.ndarray | None = None) -> Node:
        """The subtree as a node graph, leaves holding slices of ``ids``
        (default ``order``; the on-disk builder passes file positions).

        A parent's corners are the min and max of its children's rows,
        one ``reduceat`` per level; the empty rows' ``±inf`` never win,
        and a node with no points keeps ``mbr=None``.
        """
        ids = self.order if ids is None else ids
        edges = self.bounds[0].tolist()
        lower, upper = self.lower, self.upper
        nodes: list[Node] = [
            LeafNode(
                point_ids=ids[a:b],
                mbr=MBR._unchecked(lower[j], upper[j]) if b > a else None,
                level=self.stop_level, virtual_n=virtual,
            )
            for j, (a, b, virtual) in enumerate(
                zip(edges, edges[1:], self.virtual_n.tolist()))
        ]
        for i, fanout in enumerate(self.fanouts, start=1):
            starts = np.cumsum(fanout) - fanout
            lower = np.minimum.reduceat(lower, starts, axis=0)
            upper = np.maximum.reduceat(upper, starts, axis=0)
            sizes = np.diff(self.bounds[i]).tolist()
            nodes = [
                InternalNode(
                    children=nodes[first:first + count],
                    mbr=MBR._unchecked(lower[j], upper[j]) if size else None,
                    level=self.stop_level + i, n_points=size,
                )
                for j, (first, count, size) in enumerate(
                    zip(starts.tolist(), fanout.tolist(), sizes))
            ]
        return nodes[0]


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
    ``LeafNode`` (:meth:`PageLayout.graph`).
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
    ).graph()


def build_subtree(
    points: np.ndarray,
    ids: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
    config: BulkLoadConfig | None = None,
    *,
    stop_level: int = 1,
) -> PageLayout:
    """Bulk load the subtree rooted at ``level`` over the given ids.

    Each node's division is self-contained, so a lower tree
    (Section 4.4) over a resampled point set is built by calling this
    directly with the upper-tree leaf's level and virtual count.

    The walk goes one level at a time over a copy of ``ids``: each
    binary split permutes its own slice in place, so a node's ids end
    up as one contiguous slice and no per-node arrays or nodes are
    made.  Leaf corners come from one min and one max ``reduceat`` over
    the reordered points; :meth:`PageLayout.graph` builds the nodes for
    callers that want them.
    """
    config = config or BulkLoadConfig()
    order = np.array(ids)  # a copy: the walk permutes it in place
    n = order.shape[0]
    bounds = [[0, n]]
    virtual = [n_virtual]
    fanouts = []
    for parent_level in range(level, stop_level, -1):
        child_cap = subtree_capacity(parent_level - 1, topology.c_data,
                                     topology.c_dir)
        edges: list[int] = []
        child_virtual: list[int] = []
        fanout: list[int] = []
        for a, b, node_virtual in zip(bounds[-1], bounds[-1][1:], virtual):
            parts = _divide(points, order, a, b, node_virtual, child_cap,
                            config)
            fanout.append(len(parts))
            for start, part_virtual in parts:
                edges.append(start)
                child_virtual.append(part_virtual)
        bounds.append(edges + [n])
        virtual = child_virtual
        fanouts.append(np.array(fanout, dtype=np.int64))

    leaf_edges = np.array(bounds[-1], dtype=np.int64)
    full = leaf_edges[1:] > leaf_edges[:-1]
    lower = np.full((full.shape[0], points.shape[1]), np.inf)
    upper = np.full((full.shape[0], points.shape[1]), -np.inf)
    if np.any(full):
        rows = points.take(order, axis=0)
        starts = leaf_edges[:-1][full]
        # ``+ 0.0`` as in ``mbr_of_points``: one signed zero per corner.
        lower[full] = np.minimum.reduceat(rows, starts, axis=0) + 0.0
        upper[full] = np.maximum.reduceat(rows, starts, axis=0) + 0.0
    return PageLayout(
        order=order,
        bounds=(leaf_edges,) + tuple(
            np.array(edges, dtype=np.int64) for edges in reversed(bounds[:-1])),
        fanouts=tuple(reversed(fanouts)),
        virtual_n=np.array(virtual, dtype=np.int64),
        lower=lower,
        upper=upper,
        stop_level=stop_level,
    )


def _divide(
    points: np.ndarray,
    order: np.ndarray,
    start: int,
    stop: int,
    n_virtual: int,
    child_cap: int,
    config: BulkLoadConfig,
) -> list[tuple[int, int]]:
    """Divide a node's slice ``order[start:stop]`` among its children.

    The binary splits permute the slice in place, with the same
    ``dimension_rule`` and ``argpartition`` (Hoare's find) the per-node
    loader runs on an id array.  Returns each child's first position
    and virtual count, left to right.
    """
    fanout = max(1, math.ceil(n_virtual / child_cap))
    parts: list[tuple[int, int]] = []
    pending = [(start, stop, n_virtual, fanout)]
    while pending:
        a, b, part_virtual, part_fanout = pending.pop()
        if part_fanout == 1:
            parts.append((a, part_virtual))
            continue
        f_left = part_fanout // 2
        f_right = part_fanout - f_left
        left_virtual, right_virtual = split_child_counts(
            part_virtual, part_fanout, child_cap
        )
        n_actual = b - a
        part = order[a:b]
        rows = None
        if config.rank_mode == "midpoint" and n_actual > 0:
            rows = points.take(part, axis=0)
            dim = config.dimension_rule(rows)
            rank = midpoint_rank(points, part, dim)
        else:
            # Proportional mapping of the virtual division onto the sample.
            rank = round(n_actual * left_virtual / part_virtual)
        if n_actual == part_virtual:
            # Unsampled build: enforce the capacity constraints exactly so
            # no subtree overflows (matters only for midpoint mode; the
            # balanced division already satisfies them).
            rank = min(rank, f_left * child_cap)
            rank = max(rank, n_actual - f_right * child_cap)
        rank = max(0, min(rank, n_actual))
        if 0 < rank < n_actual:
            if rows is None:
                rows = points.take(part, axis=0)
                dim = config.dimension_rule(rows)
            part[:] = part[rows[:, dim].argpartition(rank - 1)]
        if n_actual == part_virtual:
            # Unsampled build: virtual counts must track the actual
            # division (they differ under midpoint splits) so deeper
            # fanouts are computed from the true subtree sizes.
            left_virtual, right_virtual = rank, part_virtual - rank
        elif config.rank_mode == "midpoint" and n_actual > 0:
            # Sampled midpoint build: scale the observed split fraction
            # up to the virtual counts (clamped to the capacity bounds),
            # so the mini-index mirrors the midpoint index's structure
            # instead of VAMSplit's balanced one.
            left_virtual = round(part_virtual * rank / n_actual)
            left_virtual = min(left_virtual, f_left * child_cap)
            left_virtual = max(left_virtual, part_virtual - f_right * child_cap)
            left_virtual = max(min(left_virtual, part_virtual - f_right), f_left)
            right_virtual = part_virtual - left_virtual
        pending.append((a + rank, b, right_virtual, f_right))
        pending.append((a, a + rank, left_virtual, f_left))
    return parts
