"""Distance-only spill assignment as the oracle for ``_assign_to_boxes``.

``repro.core.resampled._assign_to_boxes`` resolves contained points by
a containment walk and measures distances only for the rest.  This is
the rule it must reproduce: every point goes to the lowest-index box
at minimum squared Euclidean box distance, computed for every box.
The two agree except when a squared gap underflows to 0.0 (see the
function's docstring).
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096  # points per vectorized block


def assign_by_distance(
    points: np.ndarray, box_lower: np.ndarray, box_upper: np.ndarray
) -> np.ndarray:
    """Index of the nearest box per point; ties go to the lowest index."""
    n = points.shape[0]
    assignment = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        block = points[start : start + _BLOCK]
        best_dist = np.full(block.shape[0], np.inf)
        best_idx = np.zeros(block.shape[0], dtype=np.int64)
        for j in range(box_lower.shape[0]):
            below = np.maximum(box_lower[j] - block, 0.0)
            above = np.maximum(block - box_upper[j], 0.0)
            gap = below + above
            dist = np.einsum("nd,nd->n", gap, gap)
            better = dist < best_dist
            best_dist[better] = dist[better]
            best_idx[better] = j
        assignment[start : start + block.shape[0]] = best_idx
    return assignment


def underflows(
    points: np.ndarray, box_lower: np.ndarray, box_upper: np.ndarray
) -> bool:
    """Whether some point is at squared distance 0.0 from a box that
    does not contain it -- the one case the two rules may disagree."""
    for lo, hi in zip(box_lower, box_upper):
        gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
        zero = np.einsum("nd,nd->n", gap, gap) == 0.0
        inside = np.all((lo <= points) & (points <= hi), axis=1)
        if np.any(zero & ~inside):
            return True
    return False
