"""The bulk-loaded R-tree: search, leaf enumeration, validation.

:class:`RTree` wraps the page layout produced by the bulk loader with
the operations the paper needs:

* **best-first k-NN search** (Hjaltason & Samet) with leaf- and
  node-access counting -- the measured "ground truth" of the
  experiments;
* **range search** over box regions;
* **leaf-page enumeration** as stacked corner arrays, the representation
  the sampling predictors consume;
* **sphere-intersection counting** -- the number of leaf pages an
  optimal k-NN search must read equals the number of leaf MBRs
  intersecting the final k-NN sphere, which is how the prediction model
  estimates page accesses;
* **structural validation** used heavily by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.topology import Topology
from ..errors import validate_points
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from .bulkload import BulkLoadConfig, PageLayout, build_tree
from .node import LeafNode, Node
from .search import best_first_knn

__all__ = ["RTree", "KNNResult", "TreeQueries"]


@dataclass(frozen=True)
class KNNResult:
    """Result of a k-NN search plus its access counts.

    ``accessed_leaves`` is populated only when the search is asked to
    collect them (used by the on-disk measurement to charge the page
    reads of each visited leaf to the simulated disk).
    """

    point_ids: np.ndarray
    distances: np.ndarray
    leaf_accesses: int
    node_accesses: int
    accessed_leaves: tuple[LeafNode, ...] | None = None

    @property
    def radius(self) -> float:
        """The k-NN sphere radius (distance of the k-th neighbor)."""
        return float(self.distances[-1]) if self.distances.size else 0.0


class TreeQueries:
    """Query and enumeration operations shared by every MBR tree.

    Mixin over the attributes ``points`` (an ``(n, d)`` float matrix)
    and ``root`` (a :class:`~repro.rtree.node.Node` graph); used by the
    bulk-loaded :class:`RTree` and the frozen view of the dynamic
    R*-tree.
    """

    points: np.ndarray
    root: Node

    @property
    def height(self) -> int:
        return self.root.level

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @cached_property
    def leaves(self) -> list[LeafNode]:
        return list(self.root.iter_leaves())

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @cached_property
    def leaf_geometry(self) -> LeafGeometry:
        """The canonical stacked leaf-page arrays, built once per tree.

        Every counting path -- predictors, sweeps, measurement -- reads
        this one cached value instead of restacking corners from the
        node graph.  Mutating the node graph requires
        :meth:`invalidate_caches`.
        """
        return LeafGeometry.from_leaves(self.leaves, self.dim)

    @property
    def leaf_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(lower, upper)`` corners of all *non-empty* leaves."""
        return self.leaf_geometry.corners

    def invalidate_caches(self) -> None:
        """Drop the cached leaf list and geometry after a graph mutation."""
        for name in ("leaves", "leaf_geometry"):
            self.__dict__.pop(name, None)

    def nodes_at_level(self, level: int) -> list[Node]:
        nodes: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.level == level:
                nodes.append(node)
            elif not node.is_leaf:
                stack.extend(node.children)
        return nodes

    def knn(self, query: np.ndarray, k: int, *, collect_leaves: bool = False) -> KNNResult:
        """Optimal best-first k-NN search with access counting.

        Reads a node only when its MINDIST does not exceed the current
        k-th-best distance, so leaf accesses are minimal for the layout.
        """
        ids, dists, leaf_accesses, node_accesses, collected = best_first_knn(
            self.points, self.root, query, k, collect_leaves=collect_leaves
        )
        return KNNResult(ids, dists, leaf_accesses, node_accesses, collected)

    def range_query(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Ids of all points inside the closed box ``[lower, upper]``."""
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        hits: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None:
                continue
            if not (
                np.all(node.mbr.lower <= upper) and np.all(lower <= node.mbr.upper)
            ):
                continue
            if node.is_leaf:
                pts = self.points[node.point_ids]
                inside = np.all((pts >= lower) & (pts <= upper), axis=1)
                hits.append(node.point_ids[inside])
            else:
                stack.extend(node.children)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    def count_leaves_intersecting_sphere(
        self, center: np.ndarray, radius: float
    ) -> int:
        """Leaf pages an optimal k-NN search with this final sphere reads."""
        center = np.atleast_2d(np.asarray(center, dtype=np.float64))
        counts = get_kernel().count_knn(
            self.leaf_geometry, center, np.asarray([radius], dtype=np.float64)
        )
        return int(counts[0])

    def leaf_accesses_for_radius(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Batched sphere-intersection counts for a query workload."""
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        radii = np.asarray(radii, dtype=np.float64)
        return get_kernel().count_knn(self.leaf_geometry, centers, radii)


class RTree(TreeQueries):
    """A bulk-loaded VAMSplit R*-tree over an ``(n, d)`` point matrix.

    The tree is its :class:`~repro.rtree.bulkload.PageLayout`: leaf
    geometry, height and leaf count are read off the layout, and the
    node graph (``root``) is built on first use, by the searches and
    :meth:`validate` only.
    """

    def __init__(self, points: np.ndarray, layout: PageLayout, topology: Topology):
        self.points = np.asarray(points, dtype=np.float64)
        self.layout = layout
        self.topology = topology

    @cached_property
    def root(self) -> Node:
        return self.layout.graph()

    @property
    def height(self) -> int:
        return self.topology.height

    @property
    def n_leaves(self) -> int:
        return int(self.layout.virtual_n.shape[0])

    @cached_property
    def leaf_geometry(self) -> LeafGeometry:
        return self.layout.geometry()

    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        c_data: int,
        c_dir: int,
        *,
        virtual_n: int | None = None,
        config: BulkLoadConfig | None = None,
    ) -> "RTree":
        """Build a tree; pass ``virtual_n`` to impose a larger dataset's
        topology on a sample (the mini-index of Section 3.1).

        Rejects NaN/inf coordinates and empty or ragged matrices with
        :class:`~repro.errors.InputValidationError` -- a non-finite
        coordinate would silently poison every MBR above it.
        """
        points = validate_points(points)
        n_virtual = virtual_n if virtual_n is not None else points.shape[0]
        topology = Topology(n_points=n_virtual, c_data=c_data, c_dir=c_dir)
        return cls(points, build_tree(points, topology, config), topology)

    def validate(self) -> None:
        """Check the structural invariants of a bulk-loaded tree.

        Raises ``AssertionError`` on the first violated invariant:
        point partition, MBR minimality/containment, level consistency,
        and capacity bounds (for unsampled trees).
        """
        seen: list[np.ndarray] = []
        unsampled = self.points.shape[0] == self.topology.n_points
        stack: list[Node] = [self.root]
        assert self.root.level == self.topology.height
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.level == 1
                if unsampled:
                    assert node.n_points <= self.topology.c_data
                if node.n_points:
                    seen.append(node.point_ids)
                    pts = self.points[node.point_ids]
                    assert node.mbr is not None
                    assert np.array_equal(node.mbr.lower, pts.min(axis=0))
                    assert np.array_equal(node.mbr.upper, pts.max(axis=0))
                else:
                    assert node.mbr is None
            else:
                assert 1 <= len(node.children)
                if unsampled:
                    assert len(node.children) <= self.topology.c_dir
                for child in node.children:
                    assert child.level == node.level - 1
                    if child.mbr is not None:
                        assert node.mbr is not None
                        assert np.all(node.mbr.lower <= child.mbr.lower)
                        assert np.all(child.mbr.upper <= node.mbr.upper)
                stack.extend(node.children)
        if seen:
            all_ids = np.sort(np.concatenate(seen))
            assert all_ids.shape[0] == self.points.shape[0], "points lost or duplicated"
            assert np.array_equal(all_ids, np.arange(self.points.shape[0]))
        # Node counts must match the shared topology exactly.
        for level in range(1, self.topology.height + 1):
            assert len(self.nodes_at_level(level)) == self.topology.nodes_at_level(level)
