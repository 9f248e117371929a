"""Split strategies for top-down bulk loading.

The VAMSplit R*-tree layout (White & Jain) is obtained by recursively
splitting each partition along its *maximum-variance* dimension at a
balanced rank.  The dimension rule is pluggable so the split-strategy
ablation (DESIGN.md Section 6) can swap in max-extent or round-robin
choices, and the rank rule can be switched from the balanced VAMSplit
division to a spatial midpoint split (the assumption made by the uniform
baseline models).

Rank selection uses ``numpy.argpartition`` -- the vectorized equivalent
of Hoare's *find* (quickselect) that the paper's bulk loader relies on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "max_variance_dimension",
    "max_extent_dimension",
    "DimensionRule",
    "partition_ids_at_rank",
    "midpoint_rank",
]

DimensionRule = Callable[[np.ndarray], int]


def max_variance_dimension(points: np.ndarray) -> int:
    """The dimension with the largest variance (the VAMSplit choice).

    ``np.var(points, axis=0)`` spelled out -- the same ufuncs in the
    same order, so the same bits -- without its per-call overhead,
    which dominates on the small partitions deep in a bulk load.
    """
    n = points.shape[0]
    if n == 0:
        return 0
    deviation = points - np.add.reduce(points, axis=0, keepdims=True) / n
    np.square(deviation, out=deviation)
    return int(np.argmax(np.add.reduce(deviation, axis=0) / n))


def max_extent_dimension(points: np.ndarray) -> int:
    """The dimension with the largest extent (max - min)."""
    if points.shape[0] == 0:
        return 0
    return int(np.argmax(points.max(axis=0) - points.min(axis=0)))


def partition_ids_at_rank(
    points: np.ndarray, ids: np.ndarray, dim: int, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``ids`` so the ``rank`` smallest coordinates in ``dim`` go left.

    ``points`` is the global ``(N, d)`` matrix; ``ids`` indexes into it.
    Equivalent to sorting ``ids`` by ``points[ids, dim]`` and cutting at
    ``rank``, but in expected linear time via quickselect.
    """
    n = ids.shape[0]
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside [0, {n}]")
    if rank == 0:
        return ids[:0], ids
    if rank == n:
        return ids, ids[:0]
    order = np.argpartition(points[ids, dim], rank - 1)
    return ids[order[:rank]], ids[order[rank:]]


def midpoint_rank(points: np.ndarray, ids: np.ndarray, dim: int) -> int:
    """The rank corresponding to a split at the spatial midpoint of ``dim``.

    Used by the midpoint-split ablation: this is what uniform-data cost
    models implicitly assume the index does.
    """
    coords = points[ids, dim]
    mid = (coords.min() + coords.max()) / 2.0
    return int(np.count_nonzero(coords <= mid))
