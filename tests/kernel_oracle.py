"""The per-dimension pair stream as the oracle for the batched kernel.

``repro.kernels.batched.NumpyBatchedKernel`` walks the surviving
(query, leaf) pairs in doubling dimension blocks and prunes once per
block.  This is the walk it replaced, untiled: one dense pass over
dimension 0, then every further dimension gathered, added and pruned on
its own.  The block walk must match it bit for bit -- the same pairs in
the same ``(row, col)`` order with the same ``dist_sq``, and the same
``ancestor_sq`` as a direct per-dimension measurement of each pair's
directory ancestors.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import LeafGeometry


def knn_pairs_by_stream(
    geometry: LeafGeometry, queries: np.ndarray, bound_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, dist_sq)`` of every pair with squared mindist
    within ``bound_sq[row]``, sorted by ``(row, col)``."""
    queries = np.asarray(queries, dtype=np.float64)
    bound_sq = np.asarray(bound_sq, dtype=np.float64)
    if geometry.is_empty or queries.shape[0] == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)
    lower_t, upper_t = geometry.lower_t, geometry.upper_t
    point = queries[:, 0][:, None]
    gap = np.maximum(lower_t[0][None, :] - point, 0.0)
    gap += np.maximum(point - upper_t[0][None, :], 0.0)
    gap *= gap
    rows, cols = np.nonzero(gap <= bound_sq[:, None])
    dist_sq = gap[rows, cols]
    for j in range(1, lower_t.shape[0]):
        point_j = queries[rows, j]
        gap_j = np.maximum(lower_t[j][cols] - point_j, 0.0)
        gap_j += np.maximum(point_j - upper_t[j][cols], 0.0)
        gap_j *= gap_j
        dist_sq += gap_j
        keep = dist_sq <= bound_sq[rows]
        rows, cols, dist_sq = rows[keep], cols[keep], dist_sq[keep]
    return rows, cols, dist_sq


def count_range_by_stream(
    geometry: LeafGeometry, q_lower: np.ndarray, q_upper: np.ndarray
) -> np.ndarray:
    """Leaves whose box overlaps the closed query box, one dimension
    at a time."""
    q_lower = np.asarray(q_lower, dtype=np.float64)
    q_upper = np.asarray(q_upper, dtype=np.float64)
    if geometry.is_empty:
        return np.zeros(q_lower.shape[0], dtype=np.int64)
    lower_t, upper_t = geometry.lower_t, geometry.upper_t
    overlap = (q_lower[:, 0][:, None] <= upper_t[0][None, :]) & (
        lower_t[0][None, :] <= q_upper[:, 0][:, None]
    )
    rows, cols = np.nonzero(overlap)
    for j in range(1, lower_t.shape[0]):
        keep = (q_lower[rows, j] <= upper_t[j][cols]) & (
            lower_t[j][cols] <= q_upper[rows, j]
        )
        rows, cols = rows[keep], cols[keep]
    return np.bincount(rows, minlength=q_lower.shape[0]).astype(np.int64)


def ancestor_sq_by_stream(
    geometry: LeafGeometry, queries: np.ndarray, rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """For each pair ``(rows[i], cols[i])``, the squared mindist from
    the query to the leaf's ancestor at each directory level, top-down.

    Each level's boxes are the unions of its children's, built here
    bottom-up from ``geometry.fanouts``; the sums run one dimension at
    a time from j = 0, as the kernels' do.
    """
    queries = np.asarray(queries, dtype=np.float64)
    lower, upper, ancestor = geometry.lower, geometry.upper, cols
    point = queries[rows]
    found = []
    for fanout in geometry.fanouts:
        first = np.cumsum(fanout) - fanout
        lower = np.minimum.reduceat(lower, first, axis=0)
        upper = np.maximum.reduceat(upper, first, axis=0)
        ancestor = np.repeat(np.arange(fanout.shape[0]), fanout)[ancestor]
        dist_sq = np.zeros(rows.shape[0])
        for j in range(queries.shape[1]):
            gap_j = np.maximum(lower[ancestor, j] - point[:, j], 0.0)
            gap_j += np.maximum(point[:, j] - upper[ancestor, j], 0.0)
            gap_j *= gap_j
            dist_sq += gap_j
        found.append(dist_sq)
    return tuple(reversed(found))
