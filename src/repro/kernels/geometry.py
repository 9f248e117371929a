"""The canonical structure-of-arrays leaf-page representation.

Every prediction method in the paper ends the same way: count, per
query, how many leaf pages the query region intersects.  Historically
each predictor restacked ``(lower, upper)`` corner pairs ad hoc from
the node object graph before every counting call.  :class:`LeafGeometry`
is the one value they now all produce and consume: stacked ``(k, d)``
corner matrices plus the per-leaf occupancy (``n_points``) and
full-dataset quota (``virtual_n``) the statistics and phased predictors
need -- flat, C-contiguous, and cached once per tree instead of
re-extracted per call.

The transposed per-dimension columns (``lower_t`` / ``upper_t``) are
materialized lazily and cached on the instance: the batched counting
kernels stream dimension-by-dimension, and a ``(d, k)`` contiguous
layout turns each of their inner passes into a unit-stride read.

A geometry may also carry the *directory* above its leaves: per-level
child counts (``fanouts``), bottom-up, as a bulk-loaded tree lays its
nodes out.  The batched kernel then counts top-down, testing a leaf
only when its parent's box is within the radius.  Parent boxes are not
stored: :attr:`LeafGeometry.levels` derives them as ``reduceat`` unions
of the current leaf rows, so a grown geometry's parents cover its grown
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Level",
    "LeafGeometry",
    "grow_centered",
    "live_fanouts",
    "ordered_sum_sq",
]


def ordered_sum_sq(values: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, added in order j = 0 .. d-1.

    The kernels' numeric contract (see :mod:`~repro.kernels.reference`)
    for every squared distance in the package: MINDIST to a box and the
    distance to a point alike.  With one order for both, a point is
    never nearer than the box that holds it, and a box never nearer
    than its parent's.
    """
    return np.cumsum(values * values, axis=-1)[..., -1]


def grow_centered(
    lower: np.ndarray, upper: np.ndarray, side_factor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scale every box about its center by ``side_factor`` per dimension.

    The one box-growth arithmetic of the package: Theorem 1's
    compensation and every ``grown``/``scaled`` box go through it.  The
    *volume* factor ``delta`` corresponds to a per-side factor of
    ``delta ** (1/d)``.  Factors below 1 shrink; the box center is
    preserved exactly.
    """
    if side_factor < 0:
        raise ValueError("side_factor must be non-negative")
    center = (lower + upper) / 2.0
    half = (upper - lower) / 2.0 * side_factor
    return center - half, center + half


def live_fanouts(
    fanouts: tuple[np.ndarray, ...], keep: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The child counts of a directory over the rows where ``keep``.

    ``fanouts`` is bottom-up, as in :class:`LeafGeometry`, except that
    counts may be zero.  A dropped row leaves its parent's count, and a
    parent left with no child is dropped from its level and from its
    own parent's count in turn.
    """
    counts = []
    keep = np.asarray(keep, dtype=bool)
    for fanout in fanouts:
        parent = np.repeat(np.arange(fanout.shape[0]), fanout)
        kept = np.bincount(parent[keep], minlength=fanout.shape[0])
        keep = kept > 0
        counts.append(kept[keep])
    return tuple(counts)


class Level(NamedTuple):
    """One level of the counted tree, as the batched kernel walks it.

    ``lower_t`` / ``upper_t`` are the level's ``(d, m)`` box columns.
    The children of node ``c`` are rows ``child_start[c]`` to
    ``child_start[c] + fanout[c]`` of the level below; both are
    ``None`` at the leaves.
    """

    lower_t: np.ndarray
    upper_t: np.ndarray
    child_start: np.ndarray | None
    fanout: np.ndarray | None


def _corner_matrix(value: np.ndarray, name: str) -> np.ndarray:
    array = np.ascontiguousarray(value, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be a (k, d) matrix, got {array.shape}")
    return array


def _count_vector(value, k: int, name: str) -> np.ndarray:
    if value is None:
        return np.zeros(k, dtype=np.int64)
    array = np.ascontiguousarray(value, dtype=np.int64)
    if array.shape != (k,):
        raise ValueError(f"{name} must have shape ({k},), got {array.shape}")
    return array


@dataclass(frozen=True)
class LeafGeometry:
    """Stacked leaf-page boxes with per-leaf occupancy counts.

    ``lower`` and ``upper`` are ``(k, d)`` float64 corner matrices (row
    ``i`` is leaf ``i``); ``n_points`` holds the points actually stored
    in each leaf and ``virtual_n`` the full-dataset points the leaf's
    subtree *would* hold (zero where unknown -- e.g. for synthesized
    uniform pages).  Instances are immutable values: a compensation-grown
    geometry is a new object, so a cached geometry can be shared freely
    across predictors and sweep cells.

    ``fanouts`` is the optional directory over the rows, bottom-up:
    ``fanouts[0][j]`` consecutive rows are the children of parent
    ``j``, ``fanouts[1]`` groups those parents the same way, and so on
    to the top level the kernel tests first.  Every count is positive.
    Empty means a one-level geometry: the leaves are the top level.
    """

    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    n_points: np.ndarray = field(repr=False, default=None)
    virtual_n: np.ndarray = field(repr=False, default=None)
    fanouts: tuple[np.ndarray, ...] = field(repr=False, default=())

    def __post_init__(self) -> None:
        lower = _corner_matrix(self.lower, "lower")
        upper = _corner_matrix(self.upper, "upper")
        if lower.shape != upper.shape:
            raise ValueError(
                f"corner matrices disagree: {lower.shape} vs {upper.shape}"
            )
        k = lower.shape[0]
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(
            self, "n_points", _count_vector(self.n_points, k, "n_points")
        )
        object.__setattr__(
            self, "virtual_n", _count_vector(self.virtual_n, k, "virtual_n")
        )
        fanouts = tuple(
            np.ascontiguousarray(fanout, dtype=np.int64)
            for fanout in self.fanouts
        )
        children = k
        for i, fanout in enumerate(fanouts):
            if fanout.ndim != 1 or (fanout < 1).any() \
                    or int(fanout.sum()) != children:
                raise ValueError(
                    f"fanouts[{i}] must be positive counts summing to "
                    f"{children}"
                )
            children = fanout.shape[0]
        object.__setattr__(self, "fanouts", fanouts)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "LeafGeometry":
        """The geometry of a tree with no non-empty leaves."""
        return cls(np.empty((0, dim)), np.empty((0, dim)))

    @classmethod
    def from_corners(
        cls,
        lower: np.ndarray,
        upper: np.ndarray,
        *,
        n_points: np.ndarray | None = None,
        virtual_n: np.ndarray | None = None,
    ) -> "LeafGeometry":
        """Wrap already-stacked ``(k, d)`` corner arrays."""
        return cls(lower, upper, n_points, virtual_n)

    @classmethod
    def from_leaves(cls, leaves: Iterable, dim: int) -> "LeafGeometry":
        """Stack the non-empty leaves of a node graph.

        ``leaves`` yields objects with ``mbr`` (``None`` for an empty
        leaf), ``n_points`` and ``virtual_n`` attributes -- the
        :class:`~repro.rtree.node.LeafNode` interface.  Row order is
        iteration order, so a cached geometry enumerates leaves exactly
        as the tree's ``leaves`` list does.
        """
        boxes = [leaf for leaf in leaves if leaf.mbr is not None]
        if not boxes:
            return cls.empty(dim)
        return cls(
            np.stack([leaf.mbr.lower for leaf in boxes]),
            np.stack([leaf.mbr.upper for leaf in boxes]),
            np.array([leaf.n_points for leaf in boxes], dtype=np.int64),
            np.array(
                [getattr(leaf, "virtual_n", 0) for leaf in boxes],
                dtype=np.int64,
            ),
        )

    # -- shape ----------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of leaf pages."""
        return int(self.lower.shape[0])

    def __len__(self) -> int:
        return self.k

    @property
    def dim(self) -> int:
        return int(self.lower.shape[1])

    @property
    def is_empty(self) -> bool:
        return self.lower.shape[0] == 0

    @property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The legacy ``(lower, upper)`` pair, for array-level callers."""
        return self.lower, self.upper

    # -- kernel-facing layout -------------------------------------------

    @cached_property
    def lower_t(self) -> np.ndarray:
        """``(d, k)`` C-contiguous transpose of ``lower``, cached."""
        return np.ascontiguousarray(self.lower.T)

    @cached_property
    def upper_t(self) -> np.ndarray:
        """``(d, k)`` C-contiguous transpose of ``upper``, cached."""
        return np.ascontiguousarray(self.upper.T)

    @cached_property
    def levels(self) -> tuple[Level, ...]:
        """The directory top-down, then the leaves; cached.

        A parent's box is the ``minimum`` / ``maximum.reduceat`` union of
        its children's current rows, so it contains each of them and
        no child is ever nearer a query than its parent.
        """
        lower_t, upper_t = self.lower_t, self.upper_t
        levels = [Level(lower_t, upper_t, None, None)]
        for fanout in self.fanouts:
            child_start = np.cumsum(fanout) - fanout
            lower_t = np.minimum.reduceat(lower_t, child_start, axis=1)
            upper_t = np.maximum.reduceat(upper_t, child_start, axis=1)
            levels.append(Level(lower_t, upper_t, child_start, fanout))
        return tuple(reversed(levels))

    # -- derivation -----------------------------------------------------

    def scaled(self, side_factor: float) -> "LeafGeometry":
        """Every box scaled about its own center; counts and directory
        preserved (the parents follow the scaled rows)."""
        lower, upper = grow_centered(self.lower, self.upper, side_factor)
        return LeafGeometry(lower, upper, self.n_points, self.virtual_n,
                            self.fanouts)
