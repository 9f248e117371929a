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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = ["LeafGeometry", "grow_centered", "ordered_sum_sq"]


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
    uniform pages).  Instances are immutable values: derived geometries
    (compensation growth, concatenation) are new objects, so a cached
    geometry can be shared freely across predictors and sweep cells.
    """

    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    n_points: np.ndarray = field(repr=False, default=None)
    virtual_n: np.ndarray = field(repr=False, default=None)

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

    # -- derivation -----------------------------------------------------

    def scaled(self, side_factor: float) -> "LeafGeometry":
        """Every box scaled about its own center; counts preserved."""
        lower, upper = grow_centered(self.lower, self.upper, side_factor)
        return LeafGeometry(lower, upper, self.n_points, self.virtual_n)

    def concatenated(self, other: "LeafGeometry") -> "LeafGeometry":
        """The union page set of two geometries of equal dimension."""
        if other.dim != self.dim:
            raise ValueError(
                f"cannot concatenate {self.dim}-d and {other.dim}-d geometry"
            )
        return LeafGeometry(
            np.concatenate([self.lower, other.lower]),
            np.concatenate([self.upper, other.upper]),
            np.concatenate([self.n_points, other.n_points]),
            np.concatenate([self.virtual_n, other.virtual_n]),
        )
