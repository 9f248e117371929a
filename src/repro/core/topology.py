"""Tree topology shared by the full index, the mini-index, and the cost model.

The paper's prediction accuracy hinges on *structural similarity*: the
mini-index must have the same height, the same number of nodes at each
level, and the same per-node fanouts as the full on-disk index
(Section 3.1).  We therefore compute the structure once, from the full
dataset size and the page capacities, and hand the same
:class:`Topology` object to every consumer:

* the bulk loader partitions sample points at ranks proportional to the
  full-data ranks, so the mini-tree reproduces the node counts exactly;
* the phased predictors derive ``pts(h)`` (points per subtree rooted at
  level ``h``) and the bounds on ``h_upper`` (Section 4.5.1) from it;
* the analytical cost model (Eqs. 1-5) prices the same recursion.

Level convention (paper footnote 2): leaves are at level 1, the root at
level ``height``; an empty tree has height 0 and a single node height 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Topology",
    "tree_height",
    "subtree_capacity",
    "split_child_counts",
    "page_capacities",
]


def page_capacities(
    page_bytes: int,
    dim: int,
    *,
    bytes_per_value: int = 4,
    pointer_bytes: int = 4,
) -> tuple[int, int]:
    """(``C_max,data``, ``C_max,dir``) for a page size and dimensionality.

    A data page stores ``dim`` coordinates per point; a directory page
    stores per entry an MBR (two corners) plus a child pointer.  With
    the paper's 8 KB pages and 60-d float data this yields (34, 16),
    which makes the paper's TEXTURE60 numbers (height 5, 8,641 leaves,
    ``sigma_upper = 0.0363``, ``sigma_lower = 1`` at ``h_upper = 3``)
    internally consistent.
    """
    if page_bytes < 1 or dim < 1:
        raise ValueError("page_bytes and dim must be positive")
    c_data = max(2, page_bytes // (dim * bytes_per_value))
    c_dir = max(2, page_bytes // (2 * dim * bytes_per_value + pointer_bytes))
    return c_data, c_dir


def tree_height(n_points: int, c_data: int, c_dir: int) -> int:
    """Height of a bulk-loaded tree over ``n_points`` points.

    The smallest ``h`` such that a tree of height ``h`` (leaf pages of
    capacity ``c_data``, directory pages of capacity ``c_dir``) can hold
    all points.
    """
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    if c_data < 1 or c_dir < 2:
        raise ValueError("capacities must satisfy c_data >= 1, c_dir >= 2")
    if n_points == 0:
        return 0
    height = 1
    while subtree_capacity(height, c_data, c_dir) < n_points:
        height += 1
    return height


def subtree_capacity(level: int, c_data: int, c_dir: int) -> int:
    """Maximum number of points under a subtree rooted at ``level``."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return c_data * c_dir ** (level - 1)


def split_child_counts(n_points: int, n_children: int, child_capacity: int) -> tuple[int, int]:
    """VAMSplit binary division of ``n_points`` among ``n_children`` subtrees.

    The bulk loader realizes an ``f``-way partition as a sequence of
    binary splits: the left side receives ``floor(f/2)`` children and a
    proportional share of the points, adjusted so that neither side
    exceeds its capacity.  Returns ``(n_left, n_right)``.
    """
    if n_children < 2:
        raise ValueError("binary split needs at least 2 children")
    if n_points > n_children * child_capacity:
        raise ValueError(
            f"{n_points} points exceed {n_children} x {child_capacity} capacity"
        )
    f_left = n_children // 2
    f_right = n_children - f_left
    n_left = round(n_points * f_left / n_children)
    # Clamp so both sides fit and neither side is starved below the
    # minimum needed to populate its children (>= 1 point per child).
    n_left = min(n_left, f_left * child_capacity)
    n_left = max(n_left, n_points - f_right * child_capacity)
    n_left = max(min(n_left, n_points - f_right), f_left)
    return n_left, n_points - n_left


@dataclass(frozen=True)
class Topology:
    """Structure of a bulk-loaded index over ``n_points`` points.

    Parameters mirror Table 2 of the paper: ``c_data`` is the maximum
    data-page capacity ``C_max,data`` and ``c_dir`` the maximum
    directory-page capacity ``C_max,dir``.
    """

    n_points: int
    c_data: int
    c_dir: int

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError("topology requires at least one point")
        if self.c_data < 1 or self.c_dir < 2:
            raise ValueError("capacities must satisfy c_data >= 1, c_dir >= 2")

    @cached_property
    def height(self) -> int:
        return tree_height(self.n_points, self.c_data, self.c_dir)

    @cached_property
    def nodes_per_level(self) -> tuple[int, ...]:
        """Number of nodes at each level; index 0 is level 1 (leaves).

        Computed by running the bulk loader's integer recursion (fanout
        and binary point division) without touching any data, so it is
        exact for the partitioner in :mod:`repro.rtree.bulkload`.  A
        node's children depend only on its level and point count, so
        the nodes of one level are expanded once per distinct count.
        """
        counts = [0] * self.height
        # subtree point count -> number of nodes holding it, per level
        sizes = {self.n_points: 1}
        for level in range(self.height, 0, -1):
            counts[level - 1] = sum(sizes.values())
            if level == 1:
                break
            below: dict[int, int] = {}
            for n, nodes in sizes.items():
                for part in self.partition_sizes(level, n):
                    below[part] = below.get(part, 0) + nodes
            sizes = below
        return tuple(counts)

    def partition_sizes(self, level: int, n: int) -> list[int]:
        """Point counts of the children of a ``level``-node holding ``n`` points.

        The fanout is ``ceil(n / capacity(level - 1))`` (Berchtold et
        al. bulk loading); the division into that many parts proceeds by
        recursive binary splits (:func:`split_child_counts`).
        """
        if level < 2:
            raise ValueError("leaf nodes have no children")
        child_cap = subtree_capacity(level - 1, self.c_data, self.c_dir)
        fanout = max(1, math.ceil(n / child_cap))
        parts: list[int] = []
        pending = [(fanout, n)]
        while pending:
            f, m = pending.pop()
            if f == 1:
                parts.append(m)
                continue
            n_left, n_right = split_child_counts(m, f, child_cap)
            pending.append((f - f // 2, n_right))
            pending.append((f // 2, n_left))
        return parts

    def nodes_at_level(self, level: int) -> int:
        """Number of nodes at ``level`` (leaves = 1, root = ``height``)."""
        if not 1 <= level <= self.height:
            raise ValueError(f"level {level} outside [1, {self.height}]")
        return self.nodes_per_level[level - 1]

    @property
    def n_leaves(self) -> int:
        return self.nodes_at_level(1)

    @property
    def c_eff_data(self) -> float:
        """Effective data-page capacity ``C_eff,data`` (points per leaf)."""
        return self.n_points / self.n_leaves

    def pts(self, level: int) -> float:
        """Average number of data points under a subtree rooted at ``level``.

        ``pts(height) == n_points`` and ``pts(1) == c_eff_data`` as in
        Section 4.2 of the paper.
        """
        return self.n_points / self.nodes_at_level(level)

    def fanout(self, level: int) -> float:
        """Average fanout of nodes at ``level`` (level >= 2)."""
        if not 2 <= level <= self.height:
            raise ValueError(f"fanout defined for levels 2..{self.height}")
        return self.nodes_at_level(level - 1) / self.nodes_at_level(level)

    # ------------------------------------------------------------------
    # Upper-tree height bounds (Section 4.5.1)
    # ------------------------------------------------------------------

    def upper_leaf_level(self, h_upper: int) -> int:
        """Level (in the full tree) of the upper tree's leaf pages."""
        if not 1 <= h_upper <= self.height:
            raise ValueError(f"h_upper {h_upper} outside [1, {self.height}]")
        return self.height - h_upper + 1

    def n_upper_leaves(self, h_upper: int) -> int:
        """``k``: number of upper-tree leaf pages for a given ``h_upper``."""
        return self.nodes_at_level(self.upper_leaf_level(h_upper))

    def sigma_upper(self, memory: int) -> float:
        """Upper-tree sampling ratio ``min(M / N, 1)``."""
        if memory < 1:
            raise ValueError("memory must hold at least one point")
        return min(memory / self.n_points, 1.0)

    def sigma_lower(self, h_upper: int, memory: int) -> float:
        """Lower-tree sampling ratio ``min(k * M / N, 1)`` (Section 4.4)."""
        k = self.n_upper_leaves(h_upper)
        return min(k * memory / self.n_points, 1.0)

    def h_upper_bounds(self, memory: int) -> tuple[int, int]:
        """(``h_min,upper``, ``h_max,upper``) per Section 4.5.1.

        Lower bound: a resampled lower tree must keep >= 2 points per
        leaf, i.e. ``N * sigma_lower / n_leaves >= 2``.  Upper bound: the
        upper tree's own leaves must keep >= 2 points, i.e.
        ``M / n_upper_leaves >= 2``.  Raises ``ValueError`` when memory
        is too small for any valid choice.
        """
        if self.height < 3:
            raise ValueError("phased prediction needs a tree of height >= 3")
        candidates = range(2, self.height)
        lower_ok = [
            h
            for h in candidates
            if self.n_points * self.sigma_lower(h, memory) / self.n_leaves >= 2
        ]
        upper_ok = [h for h in candidates if memory / self.n_upper_leaves(h) >= 2]
        if not lower_ok or not upper_ok:
            raise ValueError(
                f"memory M={memory} leaves no feasible h_upper for "
                f"N={self.n_points}, height={self.height}"
            )
        h_min, h_max = min(lower_ok), max(upper_ok)
        if h_min > h_max:
            raise ValueError(
                f"infeasible h_upper range [{h_min}, {h_max}] for M={memory}"
            )
        return h_min, h_max

    def best_h_upper(self, memory: int) -> int:
        """The error-minimizing ``h_upper`` heuristic of Section 4.5.2.

        Choose ``h_upper`` so that the *unsampled* size of a lower tree,
        ``pts(upper_leaf_level)``, is closest to the memory size ``M``
        (so each lower tree just fills memory at ``sigma_lower == 1``),
        subject to the feasibility bounds.
        """
        h_min, h_max = self.h_upper_bounds(memory)
        return min(
            range(h_min, h_max + 1),
            key=lambda h: abs(math.log(self.pts(self.upper_leaf_level(h)) / memory)),
        )
