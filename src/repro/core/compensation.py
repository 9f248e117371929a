"""Theorem 1: the page-shrinkage compensation factor.

A minimal bounding box over ``C`` uniform points shrinks when only a
``zeta`` fraction of the points is kept: the expected extent of ``n``
uniform points in ``[0, L]`` is ``L * (n - 1) / (n + 1)``, so reducing
``C`` points to ``C * zeta`` multiplies each side by
``((C*zeta - 1) (C + 1)) / ((C*zeta + 1) (C - 1))`` and the volume by
that quantity to the ``d``-th power -- which is exactly the paper's

    delta(C, zeta)^-1 = ( ((C*zeta - 1)(C + 1)) / ((C*zeta + 1)(C - 1)) )^d

To *compensate*, mini-index pages are grown by ``delta``: per side, the
reciprocal factor.  Uniformity is assumed only within a page, never
across the dataspace (Section 3.2, footnote 1).
"""

from __future__ import annotations

import numpy as np

from ..kernels.geometry import LeafGeometry, grow_centered

__all__ = [
    "volume_shrinkage",
    "compensation_volume_factor",
    "compensation_side_factor",
    "grow_corners",
    "grow_geometry",
]

_MIN_SAMPLED_POINTS = 1.0 + 1e-9


def _check(capacity: float, zeta: float) -> float:
    """Validate inputs; returns the expected sampled page occupancy."""
    if capacity <= 1:
        raise ValueError(f"page capacity must exceed 1 point, got {capacity}")
    if not 0 < zeta <= 1:
        raise ValueError(f"sampling fraction must be in (0, 1], got {zeta}")
    sampled = capacity * zeta
    if sampled <= _MIN_SAMPLED_POINTS:
        raise ValueError(
            f"C * zeta = {sampled:.3g} <= 1: a sampled page must expect more "
            f"than one point for its box to have volume (sample rate must "
            f"exceed 1/C, Section 3.3)"
        )
    return sampled


def compensation_side_factor(capacity: float, zeta: float) -> float:
    """Per-dimension growth factor undoing the sampling shrinkage.

    Always >= 1; equals 1 when ``zeta == 1``.  ``capacity`` is the
    (effective) page capacity ``C`` of the *full* index and ``zeta`` the
    sampling fraction.
    """
    sampled = _check(capacity, zeta)
    return ((capacity - 1.0) * (sampled + 1.0)) / ((capacity + 1.0) * (sampled - 1.0))


def compensation_volume_factor(capacity: float, zeta: float, dim: int) -> float:
    """``delta(C, zeta)``: the volume growth factor of Theorem 1."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return compensation_side_factor(capacity, zeta) ** dim


def volume_shrinkage(capacity: float, zeta: float, dim: int) -> float:
    """``delta(C, zeta)^-1``: the volume *shrink* factor caused by
    sampling, exactly as printed in Theorem 1."""
    return 1.0 / compensation_volume_factor(capacity, zeta, dim)


def grow_corners(
    lower: np.ndarray, upper: np.ndarray, capacity: float, zeta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Grow stacked ``(n, d)`` page corners by the compensation factor.

    Each box is scaled about its own center by the per-side factor; with
    ``zeta == 1`` the corners are returned unchanged.
    """
    return grow_centered(lower, upper, compensation_side_factor(capacity, zeta))


def grow_geometry(
    geometry: LeafGeometry, capacity: float, zeta: float
) -> LeafGeometry:
    """Grow a whole :class:`LeafGeometry` by the compensation factor.

    Vectorized over all pages at once; per-leaf occupancy counts are
    carried through unchanged (compensation rescales boxes, not
    contents).
    """
    return geometry.scaled(compensation_side_factor(capacity, zeta))
