"""The reference counting kernel -- the per-query oracle.

This is the paper's counting loop in its plainest form: for each query,
vectorize over the leaf pages, then reduce.  It exists to be *obviously
correct* and to pin down the numeric contract every faster backend must
match bit-for-bit:

* the per-dimension gap is ``max(lower - q, 0) + max(q - upper, 0)``
  (at most one term is nonzero for a valid box, so the decomposition
  itself is exact),
* squared gaps are accumulated **sequentially over dimensions,
  j = 0 .. d-1**, in float64 -- never through a reduction whose internal
  ordering is unspecified,
* a sphere intersects a box iff that sum is ``<= radius * radius``.

Because float addition of non-negative terms is monotone
(``fl(s + x) >= s``), a partial sum that already exceeds the squared
radius can never fall back under it: batched and compiled backends may
therefore prune pairs early and still decide ``dist <= r**2`` exactly
as this loop does.
"""

from __future__ import annotations

import numpy as np

from .batch import as_radii_grid
from .geometry import LeafGeometry

__all__ = ["ReferenceKernel"]


class ReferenceKernel:
    """Per-query loop over the stacked leaf boxes.

    Runs in O(q * k * d) with a (k, d) temporary per query; kept as the
    oracle the equivalence property tests hold every other kernel to.
    """

    name = "reference"

    def count_knn(
        self, geometry: LeafGeometry, queries: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Leaves whose mindist to ``queries[i]`` is within ``radii[i]``."""
        queries = np.asarray(queries, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        counts = np.zeros(queries.shape[0], dtype=np.int64)
        if geometry.is_empty:
            return counts
        lower, upper = geometry.lower, geometry.upper
        for i in range(queries.shape[0]):
            point = queries[i]
            gap = np.maximum(lower - point, 0.0) + np.maximum(point - upper, 0.0)
            gap *= gap
            dist_sq = gap[:, 0].copy()
            for j in range(1, gap.shape[1]):
                dist_sq += gap[:, j]
            counts[i] = np.count_nonzero(dist_sq <= radii[i] * radii[i])
        return counts

    def count_grid(
        self, geometry: LeafGeometry, centers: np.ndarray,
        radii_grid: np.ndarray,
    ) -> np.ndarray:
        """Fused grid: each center's mindist vector tested per grid row.

        One geometry pass per center answers all ``g`` rows -- the
        squared-mindist vector is exactly the one :meth:`count_knn`
        computes (same sequential j = 0 .. d-1 accumulation), so row
        ``r`` is bit-identical to a ``count_knn`` call with
        ``radii_grid[r]``.
        """
        centers = np.asarray(centers, dtype=np.float64)
        grid = as_radii_grid(centers, radii_grid)
        counts = np.zeros(grid.shape, dtype=np.int64)
        if geometry.is_empty or centers.shape[0] == 0 or grid.shape[0] == 0:
            return counts
        lower, upper = geometry.lower, geometry.upper
        for i in range(centers.shape[0]):
            point = centers[i]
            gap = np.maximum(lower - point, 0.0) + np.maximum(point - upper, 0.0)
            gap *= gap
            dist_sq = gap[:, 0].copy()
            for j in range(1, gap.shape[1]):
                dist_sq += gap[:, j]
            for r in range(grid.shape[0]):
                counts[r, i] = np.count_nonzero(
                    dist_sq <= grid[r, i] * grid[r, i]
                )
        return counts

    def count_range(
        self, geometry: LeafGeometry, q_lower: np.ndarray, q_upper: np.ndarray
    ) -> np.ndarray:
        """Leaves whose box overlaps the closed query box ``i``."""
        q_lower = np.asarray(q_lower, dtype=np.float64)
        q_upper = np.asarray(q_upper, dtype=np.float64)
        counts = np.zeros(q_lower.shape[0], dtype=np.int64)
        if geometry.is_empty:
            return counts
        lower, upper = geometry.lower, geometry.upper
        for i in range(q_lower.shape[0]):
            hits = (q_lower[i] <= upper) & (lower <= q_upper[i])
            counts[i] = np.count_nonzero(hits.all(axis=1))
        return counts
