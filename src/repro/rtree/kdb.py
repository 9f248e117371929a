"""A k-d-B-tree: space-partitioning pages (Robinson 1981).

The third member of Section 4.7's list implemented here, and the
sharpest contrast to the R-tree family: a k-d-B-tree's pages are
*disjoint boxes that tile the dataspace*, produced by recursive median
splits -- there is no minimal-bounding step.  That changes what
sampling has to estimate: the page boundaries are split *planes*
(sample medians converge to data medians), not MBRs, so the pages of a
mini k-d-B-tree do not shrink and Theorem 1's compensation is neither
needed nor applicable.  The experiments use this to show that the
compensation factor is specifically an artifact of data-partitioning
(MBR-trimming) indexes.

The implementation reuses the node graph: internal nodes are binary
(each records one split), leaves carry their region box as ``mbr``,
clipped to the dataset's bounding box so the tiling is exact.
"""

from __future__ import annotations

import numpy as np

from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from .geometry import MBR
from .node import InternalNode, LeafNode, Node
from .search import best_first_knn
from .split import max_variance_dimension
from .tree import KNNResult

__all__ = ["KDBTree"]


class KDBTree:
    """Bulk-loaded k-d-B-tree over an ``(n, d)`` point matrix.

    ``c_data`` bounds the points per data page.  ``virtual_n`` imposes a
    larger dataset's split schedule on a sample (the mini-index trick):
    split ranks are chosen proportionally, so the mini tree has exactly
    the page count the full tree would have.
    """

    def __init__(self, points: np.ndarray, root: Node, c_data: int):
        self.points = np.asarray(points, dtype=np.float64)
        self.root = root
        self.c_data = c_data
        self._leaves: list[LeafNode] | None = None
        self._geometry: LeafGeometry | None = None

    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        c_data: int,
        *,
        virtual_n: int | None = None,
        region: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "KDBTree":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if c_data < 1:
            raise ValueError("c_data must be >= 1")
        n_virtual = virtual_n if virtual_n is not None else points.shape[0]
        if n_virtual < points.shape[0]:
            raise ValueError("virtual_n must be >= the sample size")
        if region is None:
            lower = points.min(axis=0)
            upper = points.max(axis=0)
        else:
            lower, upper = (np.asarray(region[0], dtype=np.float64),
                            np.asarray(region[1], dtype=np.float64))
        ids = np.arange(points.shape[0], dtype=np.int64)
        root = _build(points, ids, n_virtual, lower, upper, c_data)
        return cls(points, root, c_data)

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def leaves(self) -> list[LeafNode]:
        if self._leaves is None:
            self._leaves = list(self.root.iter_leaves())
        return self._leaves

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def leaf_geometry(self) -> LeafGeometry:
        """Stacked region geometry of every page (pages tile the space,
        so none is skipped -- even empty ones exist as regions)."""
        if self._geometry is None:
            self._geometry = LeafGeometry.from_leaves(self.leaves, self.dim)
        return self._geometry

    def invalidate_caches(self) -> None:
        """Drop the cached leaf list and geometry after a graph mutation."""
        self._leaves = None
        self._geometry = None

    def leaf_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``(lower, upper)`` page corners, for array callers."""
        return self.leaf_geometry.corners

    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        ids, dists, leaf_accesses, node_accesses, _ = best_first_knn(
            self.points, self.root, query, k
        )
        return KNNResult(ids, dists, leaf_accesses, node_accesses)

    def leaf_accesses_for_radius(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
        return get_kernel().count_knn(self.leaf_geometry, centers, radii)

    def validate(self) -> None:
        """Pages are disjoint, tile the root region, respect capacity
        (for unsampled trees), and contain exactly their points."""
        lower, upper = self.leaf_corners()
        from .geometry import volume

        root_volume = float(volume(self.root.mbr.lower, self.root.mbr.upper))
        tiled = float(volume(lower, upper).sum())
        assert abs(tiled - root_volume) <= 1e-9 * max(1.0, abs(root_volume)), (
            tiled,
            root_volume,
        )
        seen: list[np.ndarray] = []
        for leaf in self.leaves:
            if leaf.n_points:
                members = self.points[leaf.point_ids]
                assert np.all(members >= leaf.mbr.lower - 1e-9)
                assert np.all(members <= leaf.mbr.upper + 1e-9)
                seen.append(leaf.point_ids)
        ids = np.sort(np.concatenate(seen)) if seen else np.empty(0, np.int64)
        assert np.array_equal(ids, np.arange(self.points.shape[0]))


def _build(
    points: np.ndarray,
    ids: np.ndarray,
    n_virtual: int,
    lower: np.ndarray,
    upper: np.ndarray,
    c_data: int,
) -> Node:
    if n_virtual <= c_data:
        return LeafNode(
            point_ids=ids,
            mbr=MBR(lower, upper),
            level=1,
            virtual_n=n_virtual,
        )
    n_actual = ids.shape[0]
    if n_actual > 0:
        dim = max_variance_dimension(points[ids])
        left_virtual = n_virtual // 2
        rank = round(n_actual * left_virtual / n_virtual)
        rank = max(0, min(rank, n_actual))
        order = np.argsort(points[ids, dim], kind="stable")
        sorted_ids = ids[order]
        left_ids, right_ids = sorted_ids[:rank], sorted_ids[rank:]
        # The split plane sits between the two groups (median split).
        if rank == 0:
            cut = float(points[sorted_ids[0], dim])
        elif rank == n_actual:
            cut = float(points[sorted_ids[-1], dim])
        else:
            cut = float(
                (points[sorted_ids[rank - 1], dim]
                 + points[sorted_ids[rank], dim]) / 2.0
            )
        cut = float(np.clip(cut, lower[dim], upper[dim]))
    else:
        # No sample points left: split the region spatially in half.
        dim = int(np.argmax(upper - lower))
        left_virtual = n_virtual // 2
        cut = float((lower[dim] + upper[dim]) / 2.0)
        left_ids = right_ids = ids
    left_upper = upper.copy()
    left_upper[dim] = cut
    right_lower = lower.copy()
    right_lower[dim] = cut
    left = _build(points, left_ids, left_virtual, lower, left_upper, c_data)
    right = _build(
        points, right_ids, n_virtual - left_virtual, right_lower, upper, c_data
    )
    node = InternalNode(
        children=[left, right],
        mbr=MBR(lower, upper),
        level=max(left.level, right.level) + 1,
        n_points=left.n_points + right.n_points,
    )
    return node
