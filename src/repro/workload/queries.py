"""Query workloads: density-biased k-NN spheres and range boxes.

The paper evaluates *density-biased k-NN queries*: query points are
drawn at random from the dataset itself (so dense regions receive
proportionally more queries), and each query's region is the sphere
around it with radius equal to its k-th nearest neighbor distance,
computed exactly by a full scan of the data (Section 4.2).  Prediction
then reduces to counting leaf pages intersected by these spheres.

Radii are computed with the query point *included* in the dataset --
the queries are dataset points, so their first neighbor at distance 0
is themselves -- consistently for both measurement and prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import validate_points
from ..kernels.batched import memory_cap_from_env
from ..kernels.geometry import ordered_sum_sq

__all__ = [
    "KNNWorkload",
    "RangeWorkload",
    "exact_knn_radii",
    "sampled_knn_radii",
    "search_kth_sq",
    "density_biased_knn_workload",
    "density_biased_range_workload",
]


@dataclass(frozen=True)
class KNNWorkload:
    """``n`` k-NN query spheres: centers, exact radii, and provenance."""

    k: int
    query_ids: np.ndarray
    queries: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        if self.queries.ndim != 2:
            raise ValueError("queries must be (q, d)")
        q = self.queries.shape[0]
        if self.radii.shape != (q,) or self.query_ids.shape != (q,):
            raise ValueError("queries, radii and query_ids must agree in length")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not np.all(np.isfinite(self.radii)) or np.any(self.radii < 0):
            raise ValueError(
                "query radii must be finite and non-negative -- the dataset "
                "likely contains NaN/inf coordinates"
            )

    @property
    def n_queries(self) -> int:
        return int(self.queries.shape[0])

    @property
    def dim(self) -> int:
        return int(self.queries.shape[1])

    def with_radii(self, radii: np.ndarray) -> "KNNWorkload":
        """The same query centers probed at different radii.

        This is one row of a radius grid as a stand-alone workload --
        the per-row equivalent the fused ``count_grid`` dispatch is
        held bit-identical to.
        """
        return KNNWorkload(
            k=self.k,
            query_ids=self.query_ids,
            queries=self.queries,
            radii=np.asarray(radii, dtype=np.float64),
        )


@dataclass(frozen=True)
class RangeWorkload:
    """``n`` axis-aligned range queries given by their corner arrays."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if self.lower.shape != self.upper.shape or self.lower.ndim != 2:
            raise ValueError("lower/upper must be matching (q, d) arrays")
        if np.any(self.lower > self.upper):
            raise ValueError("range query with lower > upper")

    @property
    def n_queries(self) -> int:
        return int(self.lower.shape[0])

    @property
    def dim(self) -> int:
        return int(self.lower.shape[1])


#: target size of one block of squared distances (1 MiB): the block,
#: its matrix product and its mask stay in cache
_BLOCK_BYTES = 1 << 20
#: at most this many queries per block (a multiple of 192)
_QUERY_TILE = 3072
#: at least this many points per block
_MIN_POINT_ROWS = 256

# A BLAS product computes the edge rows and columns of a matrix with
# remainder kernels, whose sums can round differently.  The tiling keeps
# every distance on the kernel it would get in one whole-matrix product:
# query tiles start at multiples of 192 (a multiple of every common
# column unroll), point tiles are a power of two (so they align with any
# power-of-two chunking), and the last point tile absorbs the remainder,
# so edge rows always sit in a tile at least ``_MIN_POINT_ROWS`` wide.


def _point_tiles(n: int, n_queries: int, chunk_rows: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each point tile."""
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    rows = _BLOCK_BYTES // 8 // max(1, min(n_queries, _QUERY_TILE))
    rows = max(_MIN_POINT_ROWS, min(chunk_rows, rows))
    rows = 1 << (rows.bit_length() - 1)
    starts = list(range(0, max(n - rows, 0) + 1, rows))
    return list(zip(starts, starts[1:] + [n]))


def _knn_scan(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    slack_sq: np.ndarray | None,
    chunk_rows: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """One blocked pass: every query's k-th smallest squared distance.

    Each element is ``(q.q + p.p) - 2 (q.p)``, clamped at zero, with
    ``q.p`` from one BLAS product per block.  A running k-best per
    query prunes each block to the few entries below its current k-th
    value, so only those are merged.  With ``slack_sq`` the pass also
    returns, as ``(rows, cols, dist_sq)``, every pair whose distance is
    below the final k-th value plus that query's slack.
    """
    n, n_queries = points.shape[0], queries.shape[0]
    points_sq = np.einsum("nd,nd->n", points, points)
    query_sq = np.einsum("qd,qd->q", queries, queries)
    tiles = _point_tiles(n, n_queries, chunk_rows)
    widest = max(stop - start for start, stop in tiles)
    block_size = min(n_queries, _QUERY_TILE) * widest
    best = np.full((n_queries, k), np.inf)
    kth = np.full(n_queries, np.inf)
    slack = np.zeros(n_queries) if slack_sq is None else slack_sq
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    # one block of distances and one of cross products, reused
    sums = np.empty(block_size)
    products = np.empty(block_size)
    for p0, p1 in tiles:
        block = points[p0:p1]
        block_sq = points_sq[p0:p1]
        for q0 in range(0, n_queries, _QUERY_TILE):
            q1 = min(q0 + _QUERY_TILE, n_queries)
            shape = (q1 - q0, block.shape[0])
            dist_sq = np.add(query_sq[q0:q1, None], block_sq[None, :],
                             out=sums[: shape[0] * shape[1]].reshape(shape))
            cross = np.matmul(queries[q0:q1], block.T,
                              out=products[: shape[0] * shape[1]].reshape(shape))
            cross *= 2.0
            dist_sq -= cross
            if p0 == 0:
                # the first block seeds the k-best densely; a NaN
                # distance (a NaN coordinate) never counts as a neighbor
                np.maximum(dist_sq, 0.0, out=dist_sq)
                dist_sq[np.isnan(dist_sq)] = np.inf
                seeded = np.partition(
                    np.concatenate([best[q0:q1], dist_sq], axis=1), k - 1, axis=1
                )
                best[q0:q1] = seeded[:, :k]
                kth[q0:q1] = seeded[:, k - 1]
            # clamping only the hits is the same as clamping first:
            # the bound is positive wherever a negative entry matters
            hits = np.flatnonzero(dist_sq < (kth[q0:q1] + slack[q0:q1])[:, None])
            if not hits.size:
                continue
            values = np.maximum(dist_sq.ravel()[hits], 0.0)
            rows, cols = np.divmod(hits, dist_sq.shape[1])
            rows += q0
            if p0:
                _merge_best(best, kth, rows, values)
            if slack_sq is not None:
                found.append((rows, cols + p0, values))
        if found:
            rows, cols, values = (np.concatenate(c) for c in zip(*found))
            keep = values < kth[rows] + slack[rows]
            found = [(rows[keep], cols[keep], values[keep])]
    kth[~np.isfinite(kth)] = np.nan  # fewer than k finite distances
    if slack_sq is None:
        return kth, None
    if not found:  # no queries
        return kth, (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
    return kth, found[0]


def _merge_best(
    best: np.ndarray, kth: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """Fold ``values`` (grouped by ascending row) into the k-best rows."""
    better = values < kth[rows]
    rows, values = rows[better], values[better]
    if not rows.size:
        return
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    touched = rows[starts]
    counts = np.diff(starts, append=rows.size)
    pad = np.full((touched.size, int(counts.max())), np.inf)
    slot = np.repeat(np.arange(touched.size), counts)
    pad[slot, np.arange(rows.size) - starts[slot]] = values
    k = best.shape[1]
    merged = np.partition(np.concatenate([best[touched], pad], axis=1), k - 1, axis=1)
    best[touched] = merged[:, :k]
    kth[touched] = merged[:, k - 1]


def _as_knn_inputs(points, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return points, queries


def exact_knn_radii(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    chunk_rows: int = 65536,
) -> np.ndarray:
    """Exact k-th-NN distance of each query against ``points``.

    A blocked brute-force scan -- the same full pass the paper's
    predictors perform to obtain the query spheres.  Each block holds
    up to 3,072 queries against a power of two of point rows: as many
    as ``chunk_rows`` or about 1 MiB of distances allow, whichever is
    fewer, but never under 256 (the last block also takes the rows
    left over).  Peak memory is a few blocks plus the k-best
    table, whatever the workload: 500 queries against 20,000 32-d
    points stay under 32 MB (a single unblocked pass would take 80 MB
    per copy of the distance matrix).  Every distance is
    ``(q.q + p.p) - 2 (q.p)``, clamped at zero, computed by the same
    BLAS kernel as in one whole-matrix product, so the radii do not
    depend on ``chunk_rows``.

    Rejects NaN/inf coordinates in ``points`` or ``queries`` with
    :class:`~repro.errors.InputValidationError`: one non-finite point
    poisons every radius it is compared against.
    """
    points = validate_points(points)
    queries = validate_points(np.atleast_2d(queries), name="queries")
    return _knn_radii(points, queries, k, chunk_rows)


def _knn_radii(
    points: np.ndarray, queries: np.ndarray, k: int, chunk_rows: int = 65536
) -> np.ndarray:
    """:func:`exact_knn_radii` on inputs the caller has validated."""
    points, queries = _as_knn_inputs(points, queries, k)
    kth, _ = _knn_scan(points, queries, k, None, chunk_rows)
    return np.sqrt(kth)


def search_kth_sq(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Each query's k-th smallest squared distance, in the arithmetic of
    the best-first search (:func:`~repro.rtree.search.best_first_knn`):
    ``p - q`` squared and summed in dimension order
    (:func:`~repro.kernels.geometry.ordered_sum_sq`).

    The blocked scan finds the candidates.  Its distances differ from
    the search's by at most a few rounding errors of ``q.q + p.p``, so
    every point whose search distance is within the k-th one lies within
    a slack of twice that bound above the scan's k-th distance.  The
    candidates, ties included, are measured again in the search's
    arithmetic, and the k-th smallest of those is the answer.  They are
    measured in chunks of about the counting kernel's tile budget
    (``REPRO_KERNEL_CAP_BYTES``, read at call time) of ``(rows, d)``
    differences, so the peak does not grow with ``d``; each row's
    ordered sum does not depend on the chunking, so neither does the
    answer.
    """
    points, queries = _as_knn_inputs(points, queries, k)
    dim = points.shape[1]
    # |scan - search| <= (4d + 8) u (q.q + p.p) with u = eps / 2, so the
    # window must reach twice that above the scan's k-th distance; the
    # slack is twice the window, plus ``tiny`` so that exact ties at
    # zero pass the strict test
    slack = (
        8 * (dim + 2) * np.finfo(np.float64).eps
        * (np.einsum("qd,qd->q", queries, queries)
           + np.einsum("nd,nd->n", points, points).max())
        + np.finfo(np.float64).tiny
    )
    _, (rows, cols, _) = _knn_scan(points, queries, k, slack, 65536)
    exact = np.empty(rows.size)
    chunk = max(1, memory_cap_from_env() // (8 * max(1, dim)))
    for start in range(0, rows.size, chunk):
        part = slice(start, start + chunk)
        exact[part] = ordered_sum_sq(points[cols[part]] - queries[rows[part]])
    order = np.lexsort((exact, rows))
    starts = np.searchsorted(rows[order], np.arange(queries.shape[0]))
    return exact[order][starts + k - 1]


def sampled_knn_radii(
    sample: np.ndarray,
    queries: np.ndarray,
    k: int,
    zeta: float,
) -> np.ndarray:
    """Estimate k-NN radii from a ``zeta``-fraction sample of the data.

    Section 4.2's alternative to the full scan: "the search radii could
    be obtained from the sample ... the search radius does not seem to
    be affected much by the sample ratio."  The expected number of
    neighbors inside a fixed sphere scales with the sampling fraction,
    so the k-th neighbor of the full data sits at about the distance of
    the ``round(k * zeta)``-th neighbor within the sample.  Saves the
    radius scan entirely when a sample is already in memory, at a small
    accuracy cost quantified by the radius-estimation ablation.
    """
    if not 0 < zeta <= 1:
        raise ValueError("zeta must be in (0, 1]")
    sample = np.asarray(sample, dtype=np.float64)
    k_sample = min(max(1, round(k * zeta)), sample.shape[0])
    return exact_knn_radii(sample, queries, k_sample)


def density_biased_knn_workload(
    points: np.ndarray,
    n_queries: int,
    k: int,
    rng: np.random.Generator,
) -> KNNWorkload:
    """The paper's workload: query points sampled from the data itself.

    Rejects NaN/inf coordinates anywhere in ``points`` with
    :class:`~repro.errors.InputValidationError`, not only in the rows
    drawn as queries: a non-finite neighbour poisons the radii too.
    """
    points = validate_points(points)
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    replace = n_queries > points.shape[0]
    query_ids = rng.choice(points.shape[0], size=n_queries, replace=replace)
    queries = points[query_ids]
    radii = _knn_radii(points, queries, k)
    return KNNWorkload(k=k, query_ids=query_ids, queries=queries, radii=radii)


def density_biased_range_workload(
    points: np.ndarray,
    n_queries: int,
    side: float | np.ndarray,
    rng: np.random.Generator,
) -> RangeWorkload:
    """Box queries of a fixed side length centered on dataset points.

    Rejects NaN/inf coordinates with
    :class:`~repro.errors.InputValidationError`, as the k-NN builder
    does.
    """
    points = validate_points(points)
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    side = np.broadcast_to(np.asarray(side, dtype=np.float64), (points.shape[1],))
    if np.any(side < 0):
        raise ValueError("range query side lengths must be non-negative")
    replace = n_queries > points.shape[0]
    centers = points[rng.choice(points.shape[0], size=n_queries, replace=replace)]
    half = side / 2.0
    return RangeWorkload(lower=centers - half, upper=centers + half)
