"""An SS-tree-style index: pages bounded by spheres, not boxes.

Section 4.7 lists the SS-tree and SR-tree among the structures the
sampling technique covers.  Spheres are a genuinely different page
geometry -- a bounding sphere's MINDIST is ``max(0, |q - c| - r)`` and
its sampling shrinkage law differs from Theorem 1's box law -- so this
substrate is the strongest test of the recipe's generality.

The tree reuses the VAMSplit partitioning (page *membership* is
geometry-independent); regions are computed bottom-up: a leaf's sphere
is centered at its centroid with radius the farthest member, a
directory sphere covers its children's spheres.  Best-first k-NN works
unchanged because the search only needs ``mindist_sq``.

Radius compensation: for ``n`` points uniform in a ``d``-ball of
radius ``R``, each point's distance has cdf ``(x / R)^d``, so
``E[max] = R * nd / (nd + 1)``.  Reducing ``C`` points to ``m = C *
zeta`` therefore shrinks the radius by ``(md + 1) Cd / (md (Cd + 1))``
-- the spherical analogue of Theorem 1.  In high dimensions this
factor is close to 1: sphere radii concentrate, which is why sphere
pages barely shrink under sampling (an observation the experiments
confirm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.topology import Topology
from .bulkload import BulkLoadConfig, build_tree
from .node import LeafNode, Node
from .search import best_first_knn
from .tree import KNNResult

__all__ = ["Sphere", "SSTree", "sphere_radius_compensation"]


@dataclass(frozen=True)
class Sphere:
    """A bounding sphere; duck-compatible with MBR for best-first search."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        if center.ndim != 1:
            raise ValueError("sphere center must be a 1-d point")
        if self.radius < 0:
            raise ValueError("sphere radius must be non-negative")
        object.__setattr__(self, "center", center)

    def mindist_sq(self, point: np.ndarray) -> float:
        gap = max(0.0, float(np.linalg.norm(point - self.center)) - self.radius)
        return gap * gap

    def intersects_sphere(self, center: np.ndarray, radius: float) -> bool:
        return (
            float(np.linalg.norm(np.asarray(center) - self.center))
            <= radius + self.radius
        )

    def grown(self, factor: float) -> "Sphere":
        if factor < 0:
            raise ValueError("growth factor must be non-negative")
        return Sphere(self.center, self.radius * factor)


def sphere_radius_compensation(capacity: float, zeta: float, dim: int) -> float:
    """Radius growth undoing sampling shrinkage of a uniform-ball page."""
    if capacity <= 1:
        raise ValueError("page capacity must exceed 1 point")
    if not 0 < zeta <= 1:
        raise ValueError("sampling fraction must be in (0, 1]")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    sampled = capacity * zeta
    if sampled <= 0:
        raise ValueError("sampled page must expect at least one point")
    full_term = capacity * dim / (capacity * dim + 1.0)
    mini_term = sampled * dim / (sampled * dim + 1.0)
    return full_term / mini_term


class SSTree:
    """Bulk-loaded sphere-page index over an ``(n, d)`` point matrix."""

    def __init__(self, points: np.ndarray, root: Node, topology: Topology):
        self.points = np.asarray(points, dtype=np.float64)
        self.root = root
        self.topology = topology
        self._leaf_cache: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        c_data: int,
        c_dir: int,
        *,
        virtual_n: int | None = None,
        config: BulkLoadConfig | None = None,
    ) -> "SSTree":
        """Same partitioning as the R-tree, sphere regions bottom-up."""
        points = np.asarray(points, dtype=np.float64)
        n_virtual = virtual_n if virtual_n is not None else points.shape[0]
        topology = Topology(n_points=n_virtual, c_data=c_data, c_dir=c_dir)
        root = build_tree(points, topology, config).graph()
        _attach_spheres(root, points)
        return cls(points, root, topology)

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def height(self) -> int:
        return self.root.level

    @property
    def leaves(self) -> list[LeafNode]:
        return list(self.root.iter_leaves())

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def leaf_spheres(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, radii) of all non-empty leaf pages, stacked."""
        if self._leaf_cache is None:
            spheres = [l.mbr for l in self.leaves if l.mbr is not None]
            if not spheres:
                self._leaf_cache = (np.empty((0, self.dim)), np.empty(0))
            else:
                self._leaf_cache = (
                    np.stack([s.center for s in spheres]),
                    np.array([s.radius for s in spheres]),
                )
        return self._leaf_cache

    def grown_leaf_spheres(self, factor: float) -> tuple[np.ndarray, np.ndarray]:
        centers, radii = self.leaf_spheres()
        return centers, radii * factor

    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """Optimal best-first k-NN search over sphere regions."""
        ids, dists, leaf_accesses, node_accesses, _ = best_first_knn(
            self.points, self.root, query, k
        )
        return KNNResult(ids, dists, leaf_accesses, node_accesses)

    def leaf_accesses_for_radius(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Leaf spheres intersected by each query sphere, counted."""
        leaf_centers, leaf_radii = self.leaf_spheres()
        return count_sphere_sphere(centers, radii, leaf_centers, leaf_radii)

    def validate(self) -> None:
        """Every point lies inside its leaf sphere; every child sphere
        inside its parent's."""
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None:
                continue
            sphere: Sphere = node.mbr  # type: ignore[assignment]
            if node.is_leaf:
                if node.n_points:
                    dists = np.linalg.norm(
                        self.points[node.point_ids] - sphere.center, axis=1
                    )
                    assert float(dists.max()) <= sphere.radius + 1e-9
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    child_sphere: Sphere = child.mbr  # type: ignore[assignment]
                    reach = (
                        float(
                            np.linalg.norm(child_sphere.center - sphere.center)
                        )
                        + child_sphere.radius
                    )
                    assert reach <= sphere.radius + 1e-9
                stack.extend(node.children)


def count_sphere_sphere(
    query_centers: np.ndarray,
    query_radii: np.ndarray,
    leaf_centers: np.ndarray,
    leaf_radii: np.ndarray,
) -> np.ndarray:
    """Per-query count of leaf spheres intersecting each query sphere."""
    query_centers = np.atleast_2d(np.asarray(query_centers, dtype=np.float64))
    query_radii = np.atleast_1d(np.asarray(query_radii, dtype=np.float64))
    counts = np.zeros(query_centers.shape[0], dtype=np.int64)
    if leaf_centers.shape[0] == 0:
        return counts
    for i, (center, radius) in enumerate(zip(query_centers, query_radii)):
        dists = np.linalg.norm(leaf_centers - center, axis=1)
        counts[i] = int(np.count_nonzero(dists <= radius + leaf_radii))
    return counts


def _attach_spheres(node: Node, points: np.ndarray) -> Sphere | None:
    """Replace box regions with bounding spheres, bottom-up."""
    if node.is_leaf:
        if node.n_points == 0:
            node.mbr = None
            return None
        members = points[node.point_ids]
        center = members.mean(axis=0)
        radius = float(np.linalg.norm(members - center, axis=1).max())
        sphere = Sphere(center, radius)
        node.mbr = sphere  # type: ignore[assignment]
        return sphere
    child_spheres = [
        s for s in (_attach_spheres(child, points) for child in node.children)
        if s is not None
    ]
    if not child_spheres:
        node.mbr = None
        return None
    weights = np.array(
        [child.n_points for child in node.children if child.mbr is not None],
        dtype=np.float64,
    )
    centers = np.stack([s.center for s in child_spheres])
    center = (centers * weights[:, None]).sum(axis=0) / weights.sum()
    radius = max(
        float(np.linalg.norm(s.center - center)) + s.radius
        for s in child_spheres
    )
    sphere = Sphere(center, radius)
    node.mbr = sphere  # type: ignore[assignment]
    return sphere
