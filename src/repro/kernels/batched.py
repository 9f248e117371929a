"""The default batched counting kernel.

Processes the whole workload in query tiles instead of one query at a
time.  Each tile takes one dense pass over dimension 0 against all k
leaf boxes, then compacts to the surviving (query, leaf) pairs and
takes the remaining dimensions in blocks of 1, 2, 4, 8, ... dimensions:
one gather per operand for the whole block, the block's squared gaps
folded into each pair's partial sum one dimension at a time, then one
prune of the pairs whose partial squared mindist exceeds the squared
radius.  A small dispatch therefore costs a few numpy calls per block,
not a dozen per dimension.  The tile height is chosen so the dense pass
never materializes more than ``memory_cap_bytes`` of temporaries, and
each block is narrowed so its temporaries fit the same budget.  Once
the rest of the surviving pairs' dimensions are small -- at most
``_ONE_BLOCK_PAIR_DIMS`` pair-dimensions, within the budget -- they go
in one block: a cluster leg (about 16 queries against 15-25 leaves in
48 d) then takes one block after the dense pass instead of six, while
a larger dispatch keeps doubling.  That
budget is the tile's working set, sized by default to a core's cache
(2 MiB) rather than to main memory: the dense pass and every block's
slabs then stay cache-resident instead of streaming through memory,
and the same number is the ceiling on the kernel's temporaries -- 10k
queries against 100k leaves runs in bounded memory no matter the
workload shape.  The tile pass emits the surviving
``(query, leaf, dist_sq)`` pairs: ``count_knn`` and ``count_grid``
count them, and ``knn_pairs`` hands them to the on-disk measurement,
which orders its leaf reads by them.

A geometry that carries a directory (``LeafGeometry.fanouts``) is
walked top-down: the dense dimension-0 pass runs over the top level
only, so the tile height is sized against that level's width; each
surviving (query, node) pair is expanded to its children's rows one
level down, in chunks of about one dense pass's worth of pairs, and
the same doubling blocks run there, level by level, until the leaves.
The chunks keep the working set near the same budget however many
pairs survive.  A geometry with no directory is the one-level case of
the same walk.

Pruning is exact, not approximate: squared gaps are non-negative and
float addition of non-negative terms is monotone (``fl(s + x) >= s``),
so a partial sum that exceeds ``radius * radius`` can never fall back
under it and the pair's final ``dist <= r**2`` test is already decided.
A pair pruned at the end of a block rather than at the dimension where
it crossed is therefore pruned just the same.  Surviving pairs
accumulate their gap terms in the same sequential j = 0 .. d-1 float64
order as the :mod:`~repro.kernels.reference` oracle, which is what
makes the returned counts bit-identical to it.  The directory prunes
exactly too: a parent's box contains its children's, so its gap in
every dimension is no larger than any child's, and by the same
monotonicity its partial sums are too; a parent beyond the radius has
no child within it.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import InputValidationError
from .batch import as_radii_grid
from .geometry import LeafGeometry, Level

__all__ = [
    "DEFAULT_MEMORY_CAP_BYTES",
    "MEMORY_CAP_ENV_VAR",
    "NumpyBatchedKernel",
    "memory_cap_from_env",
]

#: default per-tile working-set budget, which is also the ceiling on the
#: kernel's temporaries (2 MiB).  Sized to a core's cache: on a 4 MiB-L2
#: x86-64 host, 1-4 MiB timed alike and 64 MiB about 1.8x slower on a
#: 500 x 2,560 x 60-d dispatch (docs/PERFORMANCE.md, section 10).
DEFAULT_MEMORY_CAP_BYTES = 2 << 20

#: environment override for the cap, in bytes
MEMORY_CAP_ENV_VAR = "REPRO_KERNEL_CAP_BYTES"

# The dim-0 dense pass holds ~6 float64/bool (q_tile, k) temporaries at
# its peak (two maximum() operands, their sum, the square, the alive
# mask, and nonzero's scratch); the tile height is sized against that,
# and a dimension block's width against the same budget per element.
_BUFFERS_PER_PAIR = 6

# The most pair-dimensions the rest of a walk may hold to be folded in
# one block: one 128 KiB float64 slab per operand.  Below it, a block
# saved (a dozen numpy calls) outweighs the adds spent on pairs a later
# prune would have dropped; above it, on served 24-query dispatches,
# the doubling blocks timed as fast or faster (docs/PERFORMANCE.md,
# section 14).
_ONE_BLOCK_PAIR_DIMS = 1 << 14


def memory_cap_from_env() -> int:
    """The cap ``REPRO_KERNEL_CAP_BYTES`` sets, or the default when unset.

    Raises :class:`~repro.errors.InputValidationError` naming the
    variable and its value unless it is a positive integer byte count.
    """
    env = os.environ.get(MEMORY_CAP_ENV_VAR)
    if not env:
        return DEFAULT_MEMORY_CAP_BYTES
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InputValidationError(
            f"{MEMORY_CAP_ENV_VAR} must be a positive integer number of "
            f"bytes, got {env!r}"
        )
    return cap


def _ancestor_sq(
    trail: list | None, pairs: list[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Each directory level's squared mindist to the leaf pairs'
    ancestors, top-down, followed up the trail's parent pointers."""
    if not trail:
        return ()
    up = pairs[4]
    found = []
    for level_sq, level_up in reversed(trail):
        found.append(level_sq[up])
        if level_up is not None:
            up = level_up[up]
    return tuple(reversed(found))


class NumpyBatchedKernel:
    """Query-tile x leaf blocked counting with exact early pruning."""

    name = "numpy_batched"

    def __init__(self, memory_cap_bytes: int | None = None) -> None:
        if memory_cap_bytes is None:
            memory_cap_bytes = memory_cap_from_env()
        if memory_cap_bytes <= 0:
            raise InputValidationError(
                f"memory_cap_bytes must be positive, got {memory_cap_bytes}"
            )
        self.memory_cap_bytes = int(memory_cap_bytes)

    def _tile_height(self, n_queries: int, n_leaves: int) -> int:
        if n_leaves == 0:
            return max(n_queries, 1)
        rows = self.memory_cap_bytes // (n_leaves * 8 * _BUFFERS_PER_PAIR)
        return max(1, min(n_queries, int(rows)))

    # -- knn ------------------------------------------------------------

    def count_knn(
        self, geometry: LeafGeometry, queries: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Leaves whose mindist to ``queries[i]`` is within ``radii[i]``."""
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        counts = np.zeros(queries.shape[0], dtype=np.int64)
        for start, stop, rows, _, _, _ in self._pair_tiles(
            geometry, queries, radii * radii
        ):
            counts[start:stop] += np.bincount(rows, minlength=stop - start)
        return counts

    def knn_pairs(
        self, geometry: LeafGeometry, queries: np.ndarray, bound_sq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Every ``(query, leaf)`` pair with squared mindist within
        ``bound_sq[query]``, as ``(rows, cols, dist_sq, ancestor_sq)``
        sorted by ``(row, col)``.

        ``dist_sq`` is the exact squared mindist :meth:`count_knn` tests
        (``count_knn`` is the per-row count of these pairs).
        ``ancestor_sq`` holds one array per directory level, top-down:
        the squared mindist from the pair's query to the leaf's ancestor
        at that level (empty for a one-level geometry).  The on-disk
        measurement orders its leaf reads by them.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        bound_sq = np.asarray(bound_sq, dtype=np.float64)
        n_levels = len(geometry.fanouts)
        parts = [
            (rows + start, cols, dist_sq, *ancestor_sq)
            for start, _, rows, cols, dist_sq, ancestor_sq in self._pair_tiles(
                geometry, queries, bound_sq, ancestors=True
            )
        ]
        if not parts:
            empty = np.empty(0, dtype=np.intp)
            return (empty, empty, np.empty(0),
                    tuple(np.empty(0) for _ in range(n_levels)))
        columns = [np.concatenate(column) for column in zip(*parts)]
        return columns[0], columns[1], columns[2], tuple(columns[3:])

    def _pair_tiles(
        self, geometry: LeafGeometry, queries: np.ndarray,
        bound_sq: np.ndarray, *, ancestors: bool = False,
    ):
        """The leaf pairs within ``bound_sq``, in ``(row, col)`` order, as
        chunks ``(start, stop, rows, cols, dist_sq, ancestor_sq)``:
        ``rows`` are local to the query tile ``[start, stop)``, which may
        yield several chunks, and ``ancestor_sq`` is filled only when
        ``ancestors`` is set."""
        n_queries = queries.shape[0]
        if geometry.is_empty or n_queries == 0:
            return
        levels = geometry.levels
        top = levels[0]
        tile = self._tile_height(n_queries, top.lower_t.shape[1])
        for start in range(0, n_queries, tile):
            stop = min(start + tile, n_queries)
            tile_queries = queries[start:stop]
            tile_bound = bound_sq[start:stop]
            # Dense pass over dimension 0 of the top level: partial
            # mindist^2 for every (query, node) pair in the tile.
            point = tile_queries[:, 0][:, None]
            gap = np.maximum(top.lower_t[0][None, :] - point, 0.0)
            gap += np.maximum(point - top.upper_t[0][None, :], 0.0)
            gap *= gap
            rows, cols = np.nonzero(gap <= tile_bound[:, None])
            dist_sq = gap[rows, cols]
            del gap
            pairs = [rows, cols, dist_sq, tile_bound[rows]]
            queries_t = np.ascontiguousarray(tile_queries.T)
            pairs = self._fold(top, queries_t, pairs, 1)
            for chunk in self._descend(levels, queries_t, pairs,
                                       [] if ancestors else None):
                yield (start, stop) + chunk

    def _descend(
        self, levels: tuple[Level, ...], queries_t: np.ndarray,
        pairs: list[np.ndarray], trail: list | None,
    ):
        """From the pairs on ``levels[0]``, down to the leaves.

        Each surviving (query, node) pair becomes its (query, child)
        pairs one level down, whose sums restart from dimension 0.  The
        parents go in chunks whose children fit one dense pass's budget
        of pairs, so no level holds more than about that many at once.
        With a ``trail``, a fifth column points each pair at its
        parent's pair, and the trail keeps the parents' sums.
        """
        rows, cols, dist_sq, bound = pairs[:4]
        if len(levels) == 1:
            yield rows, cols, dist_sq, _ancestor_sq(trail, pairs)
            return
        if not rows.size:
            return
        parent, level = levels[0], levels[1]
        counts = parent.fanout[cols]
        first = np.cumsum(counts) - counts
        budget = max(1, self.memory_cap_bytes // (8 * _BUFFERS_PER_PAIR))
        edges = (np.flatnonzero(np.diff(first // budget)) + 1).tolist()
        for a, b in zip([0] + edges, edges + [cols.size]):
            n_children = counts[a:b]
            offset = first[a:b] - first[a]
            total = int(offset[-1] + n_children[-1])
            expanded = [
                np.repeat(rows[a:b], n_children),
                np.arange(total) + np.repeat(
                    parent.child_start[cols[a:b]] - offset, n_children),
                np.zeros(total),
                np.repeat(bound[a:b], n_children),
            ]
            if trail is not None:
                expanded.append(np.repeat(np.arange(a, b), n_children))
                trail.append((dist_sq, pairs[4] if len(pairs) > 4 else None))
            yield from self._descend(
                levels[1:], queries_t,
                self._fold(level, queries_t, expanded, 0), trail)
            if trail is not None:
                trail.pop()

    def _fold(
        self, level: Level, queries_t: np.ndarray, pairs: list[np.ndarray],
        start: int,
    ) -> list[np.ndarray]:
        """Fold dimensions ``start`` .. d-1 of the level's boxes into the
        pairs' partial sums, pruning after each block.

        ``pairs`` is ``[rows, cols, dist_sq, bound, *riders]``; every
        column is pruned together.  The remaining dimensions go in
        doubling blocks: one gather per operand, the block's squared
        gaps folded in dimension by dimension, then one prune; once the
        rest is small, it goes in one block (:meth:`_block_stop`).
        """
        rows, cols, dist_sq, bound = pairs[:4]
        n_dims = queries_t.shape[0]
        width = 1
        while start < n_dims and rows.size:
            stop = self._block_stop(start, width, n_dims, rows.size)
            point = queries_t[start:stop].take(rows, axis=1)
            gap = level.lower_t[start:stop].take(cols, axis=1)
            gap -= point
            np.maximum(gap, 0.0, out=gap)
            point -= level.upper_t[start:stop].take(cols, axis=1)
            np.maximum(point, 0.0, out=point)
            gap += point
            gap *= gap
            # A left fold in dimension order, as in the reference loop;
            # np.sum / add.reduce / einsum leave the order unspecified.
            for column in gap:
                dist_sq += column
            del point, gap
            keep = dist_sq <= bound
            if not keep.all():
                pairs = [column[keep] for column in pairs]
                rows, cols, dist_sq, bound = pairs[:4]
            start, width = stop, 2 * width
        return pairs

    def _block_stop(
        self, start: int, width: int, n_dims: int, n_pairs: int
    ) -> int:
        """End of the dimension block from ``start``.

        Blocks double, 1, 2, 4, ... wide, and the budget bounds each:
        a block is narrowed so its ``(width, n_pairs)`` temporaries fit
        the cap.  Once the rest, ``n_dims - start`` dimensions over
        ``n_pairs`` pairs, fits the cap and is at most
        ``_ONE_BLOCK_PAIR_DIMS`` pair-dimensions, the block takes it
        all: each block saved is a dozen numpy calls, and the adds spent
        on pairs a skipped prune would have dropped are few.  Skipping a
        prune never changes a count, since partial sums only grow and
        the last block still prunes.
        """
        fits = self.memory_cap_bytes // (n_pairs * 8 * _BUFFERS_PER_PAIR)
        rest = n_dims - start
        if fits >= rest and n_pairs * rest <= _ONE_BLOCK_PAIR_DIMS:
            return n_dims
        return min(n_dims, start + max(1, min(width, fits)))

    # -- fused grid ------------------------------------------------------

    def count_grid(
        self, geometry: LeafGeometry, centers: np.ndarray,
        radii_grid: np.ndarray,
    ) -> np.ndarray:
        """Fused (queries x radii) grid sharing one geometry pass.

        The pair pass prunes each (query, leaf) pair against the
        *envelope* -- that query's largest squared radius across the
        grid rows -- and keeps the exact squared mindist of the
        survivors.  Each row then re-tests the survivors against its
        own squared radii.  Envelope pruning is exact for every row by
        the same monotonicity argument as :meth:`count_knn`: a pair
        pruned under the envelope already exceeds every row's radius,
        and a surviving pair carries the full sequential j = 0 .. d-1
        sum, so each row's counts are bit-identical to a stand-alone
        ``count_knn`` call with that row's radii.
        """
        centers = np.ascontiguousarray(centers, dtype=np.float64)
        grid = as_radii_grid(centers, radii_grid)
        n_rows, n_queries = grid.shape
        counts = np.zeros((n_rows, n_queries), dtype=np.int64)
        if n_rows == 0:
            return counts
        grid_sq = grid * grid
        for start, stop, rows, _, dist_sq, _ in self._pair_tiles(
            geometry, centers, grid_sq.max(axis=0)
        ):
            for r in range(n_rows):
                hits = dist_sq <= grid_sq[r, start:stop][rows]
                counts[r, start:stop] += np.bincount(
                    rows[hits], minlength=stop - start
                )
        return counts

    # -- range ----------------------------------------------------------

    def count_range(
        self, geometry: LeafGeometry, q_lower: np.ndarray, q_upper: np.ndarray
    ) -> np.ndarray:
        """Leaves whose box overlaps the closed query box ``i``."""
        q_lower = np.ascontiguousarray(q_lower, dtype=np.float64)
        q_upper = np.ascontiguousarray(q_upper, dtype=np.float64)
        n_queries = q_lower.shape[0]
        counts = np.zeros(n_queries, dtype=np.int64)
        if geometry.is_empty or n_queries == 0:
            return counts
        tile = self._tile_height(n_queries, geometry.k)
        for start in range(0, n_queries, tile):
            stop = min(start + tile, n_queries)
            counts[start:stop] = self._range_tile(
                geometry, q_lower[start:stop], q_upper[start:stop]
            )
        return counts

    def _range_tile(
        self, geometry: LeafGeometry, q_lower: np.ndarray, q_upper: np.ndarray
    ) -> np.ndarray:
        lower_t, upper_t = geometry.lower_t, geometry.upper_t
        n_dims = lower_t.shape[0]
        overlap = (q_lower[:, 0][:, None] <= upper_t[0][None, :]) & (
            lower_t[0][None, :] <= q_upper[:, 0][:, None]
        )
        rows, cols = np.nonzero(overlap)
        del overlap
        q_lower_t = np.ascontiguousarray(q_lower.T)
        q_upper_t = np.ascontiguousarray(q_upper.T)
        start, width = 1, 1
        while start < n_dims and rows.size:
            stop = self._block_stop(start, width, n_dims, rows.size)
            lower = lower_t[start:stop].take(cols, axis=1)
            upper = upper_t[start:stop].take(cols, axis=1)
            hits = q_lower_t[start:stop].take(rows, axis=1) <= upper
            hits &= lower <= q_upper_t[start:stop].take(rows, axis=1)
            keep = hits.all(axis=0)
            del lower, upper, hits
            if not keep.all():
                rows = rows[keep]
                cols = cols[keep]
            start, width = stop, 2 * width
        return np.bincount(rows, minlength=q_lower.shape[0]).astype(np.int64)
