"""Uniform-data cost model baseline (Weber et al. / Berchtold et al.).

The latest uniformity-based models the paper compares against assume:

* data uniform in the unit hypercube ``[0, 1]^d``;
* leaf pages created by recursively splitting the space *in the middle*
  -- with ``p`` pages, ``ceil(log2 p)`` binary midpoint splits spread
  round-robin over the dimensions, so a page has extent ``2^-t`` in a
  dimension split ``t`` times and ``1`` elsewhere;
* the expected k-NN sphere radius obtained by equating the expected
  number of neighbors inside the sphere with ``k`` (volume formula);
* page accesses estimated with a Minkowski-sum argument: a page is read
  iff the query lies within ``r`` of it, so the access probability is
  the (dataspace-clipped) volume of the page enlarged by ``r`` per side.

In high dimensions the predicted radius exceeds the dataspace extent
and every enlarged page covers the whole space -- the model predicts
that *all* pages are read (Section 5.3: 8,641 of 8,641 pages for
TEXTURE60, a 1,169% relative error).  That failure is the point of the
baseline; the implementation below is a faithful, documented rendering
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["UniformCostModel"]


@dataclass(frozen=True)
class UniformCostModel:
    """Closed-form uniform model for ``n_points`` points in ``dim`` dims.

    ``c_eff`` is the effective leaf-page capacity (points per page).
    """

    n_points: int
    dim: int
    c_eff: float

    def __post_init__(self) -> None:
        if self.n_points < 2 or self.dim < 1 or self.c_eff <= 1:
            raise ValueError("need n_points >= 2, dim >= 1, c_eff > 1")

    @property
    def n_pages(self) -> int:
        return max(1, math.ceil(self.n_points / self.c_eff))

    @property
    def n_split_dimensions(self) -> int:
        """How many dimensions the midpoint splits touch at least once."""
        return min(self.dim, max(1, math.ceil(math.log2(self.n_pages))))

    def page_extents(self) -> list[float]:
        """Per-dimension extent of the average midpoint-split page."""
        splits_total = max(1, math.ceil(math.log2(self.n_pages)))
        base, extra = divmod(splits_total, self.dim)
        return [
            2.0 ** -(base + (1 if i < extra else 0)) for i in range(self.dim)
        ]

    def expected_knn_radius(self, k: int) -> float:
        """Radius with ``k`` expected uniform neighbors inside the sphere.

        Solves ``N * V_d(r) = k`` with the d-ball volume
        ``V_d(r) = pi^(d/2) / Gamma(d/2 + 1) * r^d`` (computed in log
        space -- the Gamma term overflows beyond ~300 dimensions).
        Unclipped: in high dimensions the radius exceeds 1, which is
        precisely the regime where the model collapses.
        """
        if not 1 <= k <= self.n_points:
            raise ValueError(f"k={k} outside [1, {self.n_points}]")
        d = self.dim
        log_unit_ball = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
        log_r = (math.log(k / self.n_points) - log_unit_ball) / d
        return math.exp(log_r)

    def access_probability(self, radius: float) -> float:
        """Minkowski-sum access probability of the average page.

        Each dimension contributes ``min(1, extent + 2r)`` -- the page
        slab enlarged by the radius, clipped to the unit dataspace.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        probability = 1.0
        for extent in self.page_extents():
            probability *= min(1.0, extent + 2.0 * radius)
        return probability

    def predict_knn_accesses(self, k: int) -> float:
        """Expected leaf-page accesses of a k-NN query."""
        return self.n_pages * self.access_probability(self.expected_knn_radius(k))

    def predict_range_accesses(self, side: float) -> float:
        """Expected leaf-page accesses of a cubic range query."""
        if side < 0:
            raise ValueError("side must be non-negative")
        return self.n_pages * self.access_probability(side / 2.0)
