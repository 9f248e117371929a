"""Minimal-bounding-rectangle (MBR) geometry.

All index pages in this library are axis-aligned hyperrectangles in
``d``-dimensional space.  Sets of boxes are represented as a pair of
``(n, d)`` float arrays (lower and upper corners) so that box-set
operations are single vectorized numpy expressions.  Counting the leaf
pages a query sphere intersects -- the paper's hot operation -- is the
counting kernels' job (:mod:`repro.kernels`).

A small :class:`MBR` value type is provided for code that deals with one
box at a time (tree nodes); it is a thin, immutable wrapper around the
same array representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.geometry import grow_centered, ordered_sum_sq

__all__ = [
    "MBR",
    "mbr_of_points",
    "volume",
    "grow_centered",
]


@dataclass(frozen=True)
class MBR:
    """An axis-aligned minimal bounding hyperrectangle.

    ``lower`` and ``upper`` are 1-d float arrays of equal length; the box
    is the closed region ``[lower, upper]``.  Degenerate boxes (zero
    extent in some or all dimensions) are legal -- a page holding a
    single point has a degenerate MBR.
    """

    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(
                f"MBR corners must be equal-length 1-d arrays, got "
                f"{lower.shape} and {upper.shape}"
            )
        if np.any(lower > upper):
            raise ValueError("MBR lower corner exceeds upper corner")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def _unchecked(cls, lower: np.ndarray, upper: np.ndarray) -> "MBR":
        """Wrap float64 corners that are valid by construction.

        For builders that derive corners as mins and maxes of points:
        skips the conversion and the ``lower <= upper`` check.
        """
        box = object.__new__(cls)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        return box

    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBR":
        """The minimal bounding box of a non-empty ``(n, d)`` point set."""
        lower, upper = mbr_of_points(points)
        return cls(lower, upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def extents(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def volume(self) -> float:
        return float(np.prod(self.extents))

    def margin(self) -> float:
        return float(np.sum(self.extents))

    def contains_point(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(self.lower <= point) and np.all(point <= self.upper))

    def intersects_box(self, other: "MBR") -> bool:
        return bool(
            np.all(self.lower <= other.upper) and np.all(other.lower <= self.upper)
        )

    def mindist_sq(self, point: np.ndarray) -> float:
        """Squared MINDIST from ``point`` to this box (0 if inside),
        summed in the counting kernels' dimension order."""
        point = np.asarray(point, dtype=np.float64)
        below = np.maximum(self.lower - point, 0.0)
        above = np.maximum(point - self.upper, 0.0)
        return float(ordered_sum_sq(below + above))

    def intersects_sphere(self, center: np.ndarray, radius: float) -> bool:
        return self.mindist_sq(center) <= radius * radius

    def grown(self, side_factor: float) -> "MBR":
        """A copy scaled by ``side_factor`` per dimension about the center."""
        return MBR(*grow_centered(self.lower, self.upper, side_factor))


def mbr_of_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the MBR of a non-empty point set."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) array, got {points.shape}")
    # ``+ 0.0`` makes a zero corner ``+0.0``: which signed zero a min or
    # max keeps depends on numpy's reduction order, and corners are
    # compared bitwise.
    return points.min(axis=0) + 0.0, points.max(axis=0) + 0.0


def volume(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Volumes of a stacked ``(n, d)`` box set (or a single ``(d,)`` box)."""
    return np.prod(np.asarray(upper) - np.asarray(lower), axis=-1)
