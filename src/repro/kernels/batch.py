"""The fused-dispatch vocabulary: radius grids and batch plans.

The batched execution plane fuses many logical counting requests into
one kernel dispatch.  Two shapes of fusion exist:

* a **radius grid** -- the *same* query centers probed at ``g``
  different radius rows (``count_grid``), the shape
  ``IndexCostPredictor.predict_radius_grid`` answers; and
* a **concatenated batch** -- several requests' centers stacked into
  one workload (the service coalescer), carved back apart afterwards.

:class:`BatchPlan` is the value object describing the second shape: the
member labels, their query segments inside the fused arrays, and the
exact split of both the fused answer and any charged-op total back to
the members.  It is deliberately dumb -- pure bookkeeping, no kernel
calls -- so the attribution arithmetic is testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchPlan", "as_radii_grid"]


def as_radii_grid(centers: np.ndarray, radii_grid: np.ndarray) -> np.ndarray:
    """Normalize a radius grid against ``(q, d)`` centers to ``(g, q)``.

    Accepts a 2-D ``(g, q)`` grid (row ``r`` gives the per-center radii
    of grid row ``r``) or a 1-D ``(g,)`` vector, interpreted as ``g``
    constant-radius rows broadcast across all centers.  Returns a
    float64 ``(g, q)`` array either way.
    """
    centers = np.asarray(centers, dtype=np.float64)
    grid = np.asarray(radii_grid, dtype=np.float64)
    n_queries = centers.shape[0]
    if grid.ndim == 1:
        grid = np.repeat(grid[:, None], n_queries, axis=1) \
            if n_queries else grid.reshape(grid.shape[0], 0)
    if grid.ndim != 2 or grid.shape[1] != n_queries:
        raise ValueError(
            f"radii_grid must be (g,) or (g, n_queries={n_queries}), "
            f"got shape {np.asarray(radii_grid).shape}"
        )
    return np.ascontiguousarray(grid)


@dataclass(frozen=True)
class BatchPlan:
    """One fused dispatch: who is in it and which rows are whose.

    ``segments[m]`` is the half-open ``(start, stop)`` row range of
    member ``m`` inside the fused query arrays; ``members[m]`` is an
    opaque label (tenant name, request id, sweep-cell key) the caller
    uses to route the slice back.  Segments are contiguous and ordered:
    member ``m+1`` starts where ``m`` stops.
    """

    kernel: str
    members: tuple[str, ...]
    segments: tuple[tuple[int, int], ...]
    n_leaves: int = 0

    def __post_init__(self) -> None:
        if len(self.members) != len(self.segments):
            raise ValueError(
                f"{len(self.members)} members but "
                f"{len(self.segments)} segments"
            )
        cursor = 0
        for start, stop in self.segments:
            if start != cursor or stop < start:
                raise ValueError(
                    f"segments must be contiguous and ordered, got "
                    f"{self.segments}"
                )
            cursor = stop

    @classmethod
    def for_members(
        cls,
        members: "list[str] | tuple[str, ...]",
        sizes: "list[int] | tuple[int, ...]",
        *,
        kernel: str,
        n_leaves: int = 0,
    ) -> "BatchPlan":
        """Lay out ``members`` with ``sizes[m]`` queries each, in order."""
        segments = []
        cursor = 0
        for size in sizes:
            segments.append((cursor, cursor + int(size)))
            cursor += int(size)
        return cls(
            kernel=kernel,
            members=tuple(members),
            segments=tuple(segments),
            n_leaves=n_leaves,
        )

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_queries(self) -> int:
        return self.segments[-1][1] if self.segments else 0

    def split(self, fused: np.ndarray) -> list[np.ndarray]:
        """Carve a fused per-query result back into per-member copies.

        Copies, not views: members outlive the fused buffer (service
        responses hold their slice after the batch is gone).
        """
        fused = np.asarray(fused)
        if fused.shape[0] != self.n_queries:
            raise ValueError(
                f"fused result has {fused.shape[0]} rows, plan expects "
                f"{self.n_queries}"
            )
        return [fused[start:stop].copy() for start, stop in self.segments]

    def attribute(self, total_ops: int) -> list[int]:
        """Split a fused charged-op total exactly across the members.

        Proportional to member query counts, with the integer remainder
        distributed deterministically in member order (largest
        fractional share first, ties broken by position) so the parts
        always sum to ``total_ops`` -- the ledger reconciliation
        invariant tolerates no rounding drift.
        """
        total_ops = int(total_ops)
        if not self.segments:
            return []
        sizes = [stop - start for start, stop in self.segments]
        n_queries = sum(sizes)
        if n_queries == 0:
            parts = [0] * self.n_members
            parts[0] = total_ops
            return parts
        raw = [total_ops * size / n_queries for size in sizes]
        parts = [int(share) for share in raw]
        remainder = total_ops - sum(parts)
        by_fraction = sorted(
            range(self.n_members),
            key=lambda m: (-(raw[m] - parts[m]), m),
        )
        for m in by_fraction[:remainder]:
            parts[m] += 1
        return parts
