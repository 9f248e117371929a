"""A dynamic R*-tree (Beckmann, Kriegel, Schneider & Seeger 1990).

Section 4.7 of the paper claims the sampling prediction technique
applies to *any* index that organizes data in fixed-capacity pages --
prominently the R-tree family built by insertion rather than bulk
loading.  This module provides that substrate: a tuple-at-a-time
R*-tree with the classic heuristics --

* **ChooseSubtree**: minimal overlap enlargement at the leaf level,
  minimal area enlargement above (ties by area);
* **forced reinsertion**: on the first overflow per level per
  insertion, the ``p`` entries farthest from the node's center are
  removed and reinserted;
* **R\\*-split**: the split axis minimizes the summed margins over all
  legal distributions; the distribution minimizes overlap, then area.

The tree exposes :meth:`freeze` -- a snapshot as the standard node
graph -- so prediction, counting and best-first search reuse the same
machinery as the bulk-loaded index.  The mini-index construction for a
dynamic tree is the paper's original Section 3 recipe: run the *same*
insertion algorithm on the sample with the data-page capacity scaled
by the sampling fraction (see :class:`repro.core.dynamic`).
"""

from __future__ import annotations

import numpy as np

from .geometry import MBR
from .node import InternalNode, LeafNode, Node
from .tree import TreeQueries

__all__ = ["RStarTree", "FrozenRStarTree"]


class _DynNode:
    """A mutable R*-tree node: entries plus a running bounding box."""

    __slots__ = ("level", "entries", "lower", "upper")

    def __init__(self, level: int):
        self.level = level
        self.entries: list = []  # point ids (level 1) or _DynNode children
        self.lower: np.ndarray | None = None
        self.upper: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    def extend(self, lower: np.ndarray, upper: np.ndarray) -> None:
        if self.lower is None:
            self.lower = lower.copy()
            self.upper = upper.copy()
        else:
            np.minimum(self.lower, lower, out=self.lower)
            np.maximum(self.upper, upper, out=self.upper)

    def recompute_box(self, tree: "RStarTree") -> None:
        lowers, uppers = tree._entry_boxes(self)
        if lowers.shape[0] == 0:
            self.lower = self.upper = None
        else:
            self.lower = lowers.min(axis=0)
            self.upper = uppers.max(axis=0)


def _volumes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.prod(upper - lower, axis=-1)


def _margins(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.sum(upper - lower, axis=-1)


def _overlap_sums(
    q_lo: np.ndarray, q_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Row i: total overlap volume of box ``q[i]`` with every box j != i."""
    gap = np.minimum(q_hi[:, None, :], hi[None, :, :]) - np.maximum(
        q_lo[:, None, :], lo[None, :, :]
    )
    np.clip(gap, 0.0, None, out=gap)
    volumes = np.prod(gap, axis=2)
    np.fill_diagonal(volumes, 0.0)
    return volumes.sum(axis=1)


class RStarTree:
    """Dynamic R*-tree over growing point data.

    ``c_data``/``c_dir`` are the page capacities; ``min_fill`` the
    minimum fill fraction used by the split (the classic 40%);
    ``reinsert_fraction`` the share of entries reinserted on first
    overflow (the classic 30%).
    """

    def __init__(
        self,
        dim: int,
        c_data: int,
        c_dir: int,
        *,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if c_data < 2 or c_dir < 2:
            raise ValueError("capacities must be >= 2")
        if not 0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        if not 0 <= reinsert_fraction < 0.5:
            raise ValueError("reinsert_fraction must be in [0, 0.5)")
        self.dim = dim
        self.c_data = c_data
        self.c_dir = c_dir
        self.min_fill = min_fill
        self.reinsert_fraction = reinsert_fraction
        self._buffer = np.empty((256, dim), dtype=np.float64)
        self._n = 0
        self._deleted: set[int] = set()
        self.root = _DynNode(level=1)
        self._reinserted_levels: set[int] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        c_data: int,
        c_dir: int,
        *,
        shuffle_seed: int | None = None,
        **kwargs,
    ) -> "RStarTree":
        """Insert all rows of ``points`` (optionally in shuffled order)."""
        points = np.asarray(points, dtype=np.float64)
        tree = cls(points.shape[1], c_data, c_dir, **kwargs)
        order = np.arange(points.shape[0])
        if shuffle_seed is not None:
            np.random.default_rng(shuffle_seed).shuffle(order)
        for i in order:
            tree.insert(points[i], point_id=int(i))
        return tree

    @property
    def n_points(self) -> int:
        return self._n

    @property
    def height(self) -> int:
        return self.root.level

    def insert(self, point: np.ndarray, *, point_id: int | None = None) -> int:
        """Insert one point; returns its id (row in :meth:`points`)."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) point, got {point.shape}")
        if point_id is None:
            point_id = self._n
        if point_id >= self._buffer.shape[0]:
            grown = np.empty(
                (max(point_id + 1, 2 * self._buffer.shape[0]), self.dim)
            )
            grown[: self._n] = self._buffer[: self._n]
            self._buffer = grown
        self._buffer[point_id] = point
        self._n = max(self._n, point_id + 1)
        self._reinserted_levels = set()
        self._insert_at_level(point_id, point, point, target_level=1)
        return point_id

    def points(self) -> np.ndarray:
        return self._buffer[: self._n]

    @property
    def active_ids(self) -> list[int]:
        """Ids currently stored (inserted and not deleted)."""
        return [i for i in range(self._n) if i not in self._deleted]

    def delete(self, point_id: int) -> None:
        """Remove a point (Guttman's delete with tree condensation).

        The leaf holding the point loses the entry; leaves (and,
        transitively, directory nodes) that underflow are dissolved and
        their remaining entries reinserted; a root left with a single
        directory child is shortened.
        """
        if not 0 <= point_id < self._n or point_id in self._deleted:
            raise KeyError(f"point {point_id} is not in the tree")
        point = self._buffer[point_id]
        path = self._find_leaf_path(self.root, point_id, point)
        if path is None:
            raise KeyError(f"point {point_id} not found (index corrupt?)")
        leaf = path[-1]
        leaf.entries.remove(point_id)
        leaf.recompute_box(self)
        self._deleted.add(point_id)
        self._condense(path)

    def _find_leaf_path(
        self, node: _DynNode, point_id: int, point: np.ndarray
    ) -> list[_DynNode] | None:
        if node.is_leaf:
            return [node] if point_id in node.entries else None
        if node.lower is None:
            return None
        if np.any(point < node.lower) or np.any(point > node.upper):
            return None
        for child in node.entries:
            if child.lower is None:
                continue
            if np.all(child.lower <= point) and np.all(point <= child.upper):
                deeper = self._find_leaf_path(child, point_id, point)
                if deeper is not None:
                    return [node, *deeper]
        return None

    def _condense(self, path: list[_DynNode]) -> None:
        """Dissolve underfull nodes bottom-up, reinserting orphans."""
        orphans: list[tuple[object, np.ndarray, np.ndarray, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self._min_entries(node):
                parent.entries.remove(node)
                lowers, uppers = self._entry_boxes(node)
                for i, entry in enumerate(node.entries):
                    orphans.append((entry, lowers[i], uppers[i], node.level))
            parent.recompute_box(self)
        for entry, lower, upper, level in orphans:
            self._reinserted_levels = set()
            self._insert_at_level(entry, lower, upper, level)
        # Shorten a root reduced to a single directory child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0]
        if not self.root.is_leaf and not self.root.entries:
            self.root = _DynNode(level=1)

    def freeze(self) -> "FrozenRStarTree":
        """An immutable snapshot exposing the standard query API."""
        return FrozenRStarTree(self.points(), self._freeze_node(self.root))

    def validate(self) -> None:
        """Structural invariants of the R*-tree (see test suite)."""
        seen: list[int] = []
        min_data = max(1, int(self.min_fill * self.c_data))
        min_dir = max(1, int(self.min_fill * self.c_dir))
        stack: list[tuple[_DynNode, bool]] = [(self.root, True)]
        while stack:
            node, is_root = stack.pop()
            count = len(node.entries)
            if node.is_leaf:
                assert count <= self.c_data
                if not is_root:
                    assert count >= min_data
                seen.extend(node.entries)
                if count:
                    pts = self.points()[node.entries]
                    assert np.allclose(node.lower, pts.min(axis=0))
                    assert np.allclose(node.upper, pts.max(axis=0))
            else:
                assert count <= self.c_dir
                assert count >= (2 if is_root else min_dir)
                for child in node.entries:
                    assert child.level == node.level - 1
                    assert np.all(node.lower <= child.lower + 1e-12)
                    assert np.all(child.upper <= node.upper + 1e-12)
                    stack.append((child, False))
        expected = [i for i in range(self._n) if i not in self._deleted]
        assert sorted(seen) == expected

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------

    def _capacity(self, node: _DynNode) -> int:
        return self.c_data if node.is_leaf else self.c_dir

    def _min_entries(self, node: _DynNode) -> int:
        return max(1, int(self.min_fill * self._capacity(node)))

    def _entry_boxes(self, node: _DynNode) -> tuple[np.ndarray, np.ndarray]:
        """(lowers, uppers) of a node's entries, stacked."""
        if not node.entries:
            empty = np.empty((0, self.dim))
            return empty, empty
        if node.is_leaf:
            pts = self.points()[node.entries]
            return pts, pts
        lowers = np.stack([child.lower for child in node.entries])
        uppers = np.stack([child.upper for child in node.entries])
        return lowers, uppers

    def _insert_at_level(
        self,
        entry,
        entry_lower: np.ndarray,
        entry_upper: np.ndarray,
        target_level: int,
    ) -> None:
        start_root = self.root
        split = self._descend(start_root, entry, entry_lower, entry_upper,
                              target_level)
        if split is None:
            return
        if self.root is start_root:
            new_root = _DynNode(level=start_root.level + 1)
            new_root.entries = [start_root, split]
            new_root.recompute_box(self)
            self.root = new_root
        else:
            # A forced reinsertion grew a new root above ``start_root``
            # mid-flight; hand the sibling to the *current* root as an
            # ordinary entry at its level.
            self._insert_at_level(
                split, split.lower, split.upper, start_root.level + 1
            )

    def _descend(
        self,
        node: _DynNode,
        entry,
        entry_lower: np.ndarray,
        entry_upper: np.ndarray,
        target_level: int,
    ) -> _DynNode | None:
        """Recursive insert; returns a new sibling if ``node`` split."""
        node.extend(entry_lower, entry_upper)
        if node.level == target_level:
            node.entries.append(entry)
        else:
            child = self._choose_subtree(node, entry_lower, entry_upper)
            split_child = self._descend(child, entry, entry_lower,
                                        entry_upper, target_level)
            if split_child is not None:
                node.entries.append(split_child)
                node.extend(split_child.lower, split_child.upper)
        if len(node.entries) > self._capacity(node):
            return self._overflow(node)
        return None

    def _choose_subtree(
        self, node: _DynNode, entry_lower: np.ndarray, entry_upper: np.ndarray
    ) -> _DynNode:
        children = node.entries
        lowers = np.stack([c.lower for c in children])
        uppers = np.stack([c.upper for c in children])
        grown_lowers = np.minimum(lowers, entry_lower)
        grown_uppers = np.maximum(uppers, entry_upper)
        areas = _volumes(lowers, uppers)
        enlargements = _volumes(grown_lowers, grown_uppers) - areas
        if node.level == 2:
            # Children are leaves: minimize overlap enlargement (R*).
            before = _overlap_sums(lowers, uppers, lowers, uppers)
            after = _overlap_sums(grown_lowers, grown_uppers, lowers, uppers)
            order = np.lexsort((areas, enlargements, after - before))
            return children[order[0]]
        order = np.lexsort((areas, enlargements))
        return children[order[0]]

    def _overflow(self, node: _DynNode) -> _DynNode | None:
        """Handle an overfull node: reinsert once per level, else split."""
        is_root = node is self.root
        if (
            not is_root
            and self.reinsert_fraction > 0
            and node.level not in self._reinserted_levels
        ):
            self._reinserted_levels.add(node.level)
            self._reinsert(node)
            return None
        return self._split(node)

    def _reinsert(self, node: _DynNode) -> None:
        """Forced reinsertion: evict the p entries farthest from the
        node's center and insert them again from the root."""
        lowers, uppers = self._entry_boxes(node)
        centers = (lowers + uppers) / 2.0
        node_center = (node.lower + node.upper) / 2.0
        dists = np.linalg.norm(centers - node_center, axis=1)
        p = max(1, int(self.reinsert_fraction * len(node.entries)))
        order = np.argsort(dists)  # close first; evict the tail
        keep_idx, evict_idx = order[:-p], order[-p:]
        entries = node.entries
        evicted = [entries[i] for i in evict_idx]
        node.entries = [entries[i] for i in keep_idx]
        node.recompute_box(self)
        for i, entry in zip(evict_idx, evicted):
            self._insert_at_level(entry, lowers[i], uppers[i], node.level)

    def _split(self, node: _DynNode) -> _DynNode:
        """R*-split: returns the new sibling; ``node`` keeps one group."""
        lowers, uppers = self._entry_boxes(node)
        n = len(node.entries)
        m = self._min_entries(node)
        best = None  # ((margin_sum, overlap, area), cut, order)
        cuts = np.arange(m, n - m + 1)
        for axis in range(self.dim):
            for use_upper in (False, True):
                keys = uppers[:, axis] if use_upper else lowers[:, axis]
                order = np.argsort(keys, kind="stable")
                sl = lowers[order]
                su = uppers[order]
                # Prefix/suffix running boxes, then all cuts at once.
                pre_lo = np.minimum.accumulate(sl, axis=0)
                pre_hi = np.maximum.accumulate(su, axis=0)
                suf_lo = np.minimum.accumulate(sl[::-1], axis=0)[::-1]
                suf_hi = np.maximum.accumulate(su[::-1], axis=0)[::-1]
                a_lo, a_hi = pre_lo[cuts - 1], pre_hi[cuts - 1]
                b_lo, b_hi = suf_lo[cuts], suf_hi[cuts]
                margin_sum = float(
                    (_margins(a_lo, a_hi) + _margins(b_lo, b_hi)).sum()
                )
                gap = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
                np.clip(gap, 0.0, None, out=gap)
                overlaps = np.prod(gap, axis=1)
                group_areas = _volumes(a_lo, a_hi) + _volumes(b_lo, b_hi)
                pick = np.lexsort((group_areas, overlaps))[0]
                key = (margin_sum, float(overlaps[pick]), float(group_areas[pick]))
                if best is None or key < best[0]:
                    best = (key, int(cuts[pick]), order)
        assert best is not None
        _, cut, order = best
        entries = node.entries
        left = [entries[i] for i in order[:cut]]
        right = [entries[i] for i in order[cut:]]
        node.entries = left
        node.recompute_box(self)
        sibling = _DynNode(level=node.level)
        sibling.entries = right
        sibling.recompute_box(self)
        return sibling

    # ------------------------------------------------------------------

    def _freeze_node(self, node: _DynNode) -> Node:
        mbr = (
            MBR(node.lower, node.upper)
            if node.lower is not None
            else None
        )
        if node.is_leaf:
            return LeafNode(
                point_ids=np.asarray(node.entries, dtype=np.int64),
                mbr=mbr,
                level=1,
            )
        children = [self._freeze_node(child) for child in node.entries]
        return InternalNode(
            children=children,
            mbr=mbr,
            level=node.level,
            n_points=sum(c.n_points for c in children),
        )


class FrozenRStarTree(TreeQueries):
    """Immutable snapshot of an R*-tree with the standard query API."""

    def __init__(self, points: np.ndarray, root: Node):
        self.points = np.asarray(points, dtype=np.float64)
        self.root = root
