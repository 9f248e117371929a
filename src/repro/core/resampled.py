"""The resampled index tree predictor (Section 4.4).

The most accurate restricted-memory method: after the upper tree is
built on ``M`` sample points and its ``k`` leaf pages are grown, a
second pass over the dataset draws ``k * M`` fresh sample points
(``sigma_lower = min(k * M / N, 1)``) and distributes each to an upper
leaf page -- into the page that contains it, else into the nearest page
by Euclidean box distance, growing that page (Figure 6).  Points bound
for the same page are spilled to one of ``k`` consecutive disk areas so
each lower tree can later be built with the *whole* memory (Figure 8).
Every lower tree is then bulk loaded in memory on its resampled points
with the full index's subtree structure, and the query spheres are
intersected with the resulting leaf pages.

I/O charged on the simulated disk reproduces Eq. 5:
``cost_ReadQueryPoints + cost_ScanDataset + cost_Resampling +
cost_BuildLowerSubtrees``.

Crash consistency: :meth:`ResampledModel.predict` accepts a mutable
``checkpoint`` dict.  When provided, the prediction records its
progress at phase and chunk boundaries -- the collected sample with the
RNG state after drawing it, per-chunk spill progress (area lengths,
per-area counts, grown boxes, RNG state), and per-leaf lower-build
results -- each boundary paying a one-page charged checkpoint write.
A run killed by :class:`~repro.errors.CrashPoint` can then be resumed
by calling ``predict`` again with the *same file and checkpoint* and a
fresh generator seeded identically: completed phases are skipped, a
partially applied spill chunk is rolled back (areas truncated to their
checkpointed lengths, boxes and counters restored) and replayed from
the checkpointed RNG state, and the result is bit-identical to the
fault-free prediction.  Without a checkpoint the code path is
byte-for-byte the PR 1 behavior -- zero overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..disk.pagefile import PointFile
from ..errors import TornWriteError, TransientReadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.governor import Governor
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..rtree.bulkload import BulkLoadConfig, build_subtree
from ..workload.queries import KNNWorkload, RangeWorkload
from .compensation import compensation_side_factor, grow_geometry
from .counting import PredictionResult, count_accesses
from .phases import UpperTree, build_upper_tree, resolve_h_upper
from .sampling_io import read_query_points, scan_and_sample
from .topology import Topology

__all__ = ["ResampledModel"]


@dataclass(frozen=True)
class ResampledModel:
    """Restricted-memory predictor that resamples per lower tree.

    ``memory`` is ``M`` (points that fit in memory).  ``h_upper`` of
    ``None`` selects the Section 4.5.2 heuristic: the tallest feasible
    upper tree whose lower trees have an unsampled size closest to
    ``M`` (equivalently, ``sigma_lower`` just reaching 1).
    """

    c_data: int
    c_dir: int
    memory: int
    h_upper: int | None = None
    config: BulkLoadConfig | None = None
    overflow_policy: str = "reservoir"
    #: bucket-level resumes allowed across the spill phase after the
    #: file's per-access retry policy is exhausted (fault tolerance)
    spill_resume_attempts: int = 3

    def __post_init__(self) -> None:
        if self.overflow_policy not in ("reservoir", "discard"):
            raise ValueError(
                f"unknown overflow_policy {self.overflow_policy!r}"
            )
        if self.spill_resume_attempts < 0:
            raise ValueError("spill_resume_attempts must be non-negative")

    def predict(
        self,
        file: PointFile,
        workload: KNNWorkload | RangeWorkload,
        rng: np.random.Generator,
        *,
        checkpoint: dict | None = None,
        governor: "Governor | None" = None,
    ) -> PredictionResult:
        """Run Figure 7's algorithm against the paged dataset file.

        ``checkpoint`` (a mutable dict owned by the caller) enables
        crash resume: pass the same dict to a repeated call after a
        :class:`~repro.errors.CrashPoint` -- with the same ``file`` and
        an identically seeded ``rng`` -- and the prediction continues
        from the last completed boundary instead of restarting,
        returning the same estimate the uninterrupted run would have.

        ``governor`` enables budget governance: spend is checked at the
        same phase/chunk/leaf boundaries the checkpoints use, and a
        crossed limit raises :class:`~repro.errors.BudgetExceededError`
        / :class:`~repro.errors.DeadlineExceededError` so the facade
        can downgrade mid-flight.  Checks read the ledger and the
        monotonic clock only -- no extra I/O, no RNG draws -- so a
        governed run with an ample budget is bit-identical to this
        method ungoverned, with an identical ledger.
        """
        ck = checkpoint
        start_cost = file.disk.cost
        n = file.n_points
        topology = Topology(n, self.c_data, self.c_dir)
        h_upper = self._resolve_h_upper(topology)

        # Steps 2-3: query points, then one scan for spheres + sample.
        if isinstance(workload, KNNWorkload) and not (
            ck is not None and ck.get("queries_read")
        ):
            read_query_points(file, workload.query_ids)
            if ck is not None:
                self._ckpt_charge(file, ck)
                ck["queries_read"] = True
        if governor is not None:
            governor.check("resampled:read_query_points",
                           file.disk.cost - start_cost)
        if ck is not None and "sample" in ck:
            sample = ck["sample"]
            rng.bit_generator.state = ck["rng_after_sample"]
        else:
            if governor is not None:
                governor.admit_sample(min(self.memory, n), file.dim,
                                      phase="resampled:scan_and_sample")
            sample = scan_and_sample(file, min(self.memory, n), rng)
            if ck is not None:
                self._ckpt_charge(file, ck)
                ck["sample"] = sample
                ck["rng_after_sample"] = rng.bit_generator.state
        if governor is not None:
            governor.check("resampled:scan_and_sample",
                           file.disk.cost - start_cost)

        # Step 5: upper tree with grown leaf pages.
        upper = build_upper_tree(sample, topology, h_upper, config=self.config)

        if upper.leaf_level == 1:
            # Degenerate single-phase case (tree too short to phase, or
            # the whole dataset fits in memory): the upper-tree leaves
            # already are the compensated data pages.
            geometry = upper.geometry()
            per_query = self._count(geometry, workload)
            return PredictionResult(
                per_query=per_query,
                io_cost=file.disk.cost - start_cost,
                detail={
                    "h_upper": h_upper,
                    "sigma_upper": upper.sigma_upper,
                    "sigma_lower": 1.0,
                    "k_upper_leaves": upper.k,
                    "n_predicted_leaves": geometry.k,
                    "n_discarded_overflow": 0,
                    "leaf_growth_factor": upper.growth_factor,
                    "kernel": get_kernel().name,
                },
            )

        sigma_lower = topology.sigma_lower(h_upper, self.memory)

        # Steps 6-7: resampling pass into k consecutive spill areas.
        (
            areas, boxes_lower, boxes_upper, area_of_leaf,
            n_discarded, n_spill_resumes,
        ) = self._resample_into_areas(file, upper, sigma_lower, rng, ck,
                                      governor=governor,
                                      start_cost=start_cost)

        # Steps 8-10: build each lower tree in memory on its area.
        leaf_lower: list[np.ndarray] = []
        leaf_upper: list[np.ndarray] = []
        first_leaf = 0
        if ck is not None:
            lower_state = ck.setdefault(
                "lower", {"done": 0, "leaf_lower": [], "leaf_upper": []}
            )
            first_leaf = lower_state["done"]
            leaf_lower = list(lower_state["leaf_lower"])
            leaf_upper = list(lower_state["leaf_upper"])
        for leaf_idx, leaf in enumerate(upper.leaves):
            if leaf_idx < first_leaf:
                continue
            area_idx = area_of_leaf[leaf_idx]
            built = area_idx is not None and areas[area_idx].n_points > 0
            if built:
                area = areas[area_idx]
                points = area.read_all()
                ids = np.arange(points.shape[0], dtype=np.int64)
                layout = build_subtree(
                    points, ids, upper.leaf_level, leaf.virtual_n, topology,
                    self.config,
                )
                full = layout.full
                leaf_lower.append(layout.lower[full])
                leaf_upper.append(layout.upper[full])
            if ck is not None:
                if built:
                    # Skipping an empty leaf is free and idempotent; only
                    # a leaf that cost charged reads earns a checkpoint
                    # write.
                    self._ckpt_charge(file, ck)
                ck["lower"] = {
                    "done": leaf_idx + 1,
                    "leaf_lower": list(leaf_lower),
                    "leaf_upper": list(leaf_upper),
                }
            if governor is not None and built:
                governor.check("resampled:build_lower",
                               file.disk.cost - start_cost)
        file.disk.drop_head()

        if leaf_lower:
            geometry = LeafGeometry.from_corners(
                np.concatenate(leaf_lower), np.concatenate(leaf_upper)
            )
        else:
            geometry = LeafGeometry.empty(file.dim)

        # Compensate the lower-tree leaves when they too were sampled.
        page_points = topology.pts(1)
        if sigma_lower < 1.0 and page_points * sigma_lower > 1.0:
            geometry = grow_geometry(geometry, page_points, sigma_lower)
            leaf_growth = compensation_side_factor(page_points, sigma_lower)
        else:
            leaf_growth = 1.0

        per_query = self._count(geometry, workload)
        return PredictionResult(
            per_query=per_query,
            io_cost=file.disk.cost - start_cost,
            detail={
                "h_upper": h_upper,
                "sigma_upper": upper.sigma_upper,
                "sigma_lower": sigma_lower,
                "k_upper_leaves": upper.k,
                "n_predicted_leaves": geometry.k,
                "n_discarded_overflow": n_discarded,
                "n_spill_resumes": n_spill_resumes,
                "leaf_growth_factor": leaf_growth,
                "kernel": get_kernel().name,
            },
        )

    # ------------------------------------------------------------------

    def _resolve_h_upper(self, topology: Topology) -> int:
        return resolve_h_upper(topology, self.h_upper, self.memory)

    def _count(
        self,
        geometry: LeafGeometry,
        workload: KNNWorkload | RangeWorkload,
    ) -> np.ndarray:
        return count_accesses(geometry, workload)

    @staticmethod
    def _ckpt_charge(file: PointFile, ck: dict) -> None:
        """One charged single-page checkpoint write.

        Single-page writes are atomic on the fault layer, so a
        checkpoint record is never torn; a crash *during* the charge
        simply leaves the previous checkpoint in force and the
        interrupted unit is redone on resume.  The charge lands before
        the caller mutates the checkpoint dict -- the same
        charge-before-state discipline every durable step follows.
        """
        page = ck.get("_page")
        if page is None:
            page = file.disk.allocate(1)
            ck["_page"] = page
        file.disk.drop_head()
        file.charged(lambda: file.disk.write(page, 1))

    def _resample_into_areas(
        self,
        file: PointFile,
        upper: UpperTree,
        sigma_lower: float,
        rng: np.random.Generator,
        ck: dict | None = None,
        *,
        governor: "Governor | None" = None,
        start_cost=None,
    ) -> tuple[
        list[PointFile], np.ndarray, np.ndarray, list[int | None], int, int
    ]:
        """Second sampling pass: distribute new sample points to areas.

        Returns the spill areas, the (mutable, possibly grown) box
        corner arrays, the leaf-index -> area-index map (``None`` for
        upper leaves that had no box), the overflow-discard count, and
        the number of bucket-level fault resumes spent.

        Fault tolerance: each bucket's spill is checkpointed by how
        many of its group points have durably landed.  A transient
        fault that survives the per-access retry policy resumes *that
        bucket at its checkpoint* -- the chunk already read from the
        dataset stays in memory, so the scan never restarts.  After
        ``spill_resume_attempts`` bucket resumes the fault propagates
        and the facade degrades to the cutoff method.

        Crash tolerance (``ck`` provided): progress is checkpointed per
        *chunk* -- area lengths, per-area stream counts, grown boxes,
        and the RNG state -- and a resumed call first rolls the areas
        back to the checkpointed lengths (truncating the partially
        applied chunk) before replaying from the checkpointed RNG
        state, so no point is ever spilled twice and reservoir draws
        replay bit-identically.
        """
        n = file.n_points
        dim = file.dim
        if ck is not None and "spill" in ck:
            st = ck["spill"]
            area_of_leaf = st["area_of_leaf"]
            areas = st["areas"]
            if st["n_boxes"] == 0:
                return ([], np.empty((0, dim)), np.empty((0, dim)),
                        area_of_leaf, 0, 0)
            if st["done"]:
                return (areas, st["box_lower"], st["box_upper"], area_of_leaf,
                        st["n_discarded"], st["n_resumes"])
            # Roll back the partially applied chunk, then replay it.
            for area, size in zip(areas, st["area_sizes"]):
                area.truncate(size)
            box_lower = st["box_lower"].copy()
            box_upper = st["box_upper"].copy()
            seen_per_area = st["seen"].copy()
            chosen = st["chosen"]
            n_resumes = st["n_resumes"]
            resume_start = st["next_start"]
            rng.bit_generator.state = st["rng_state"]
        else:
            # One spill area per non-empty upper leaf, allocated
            # consecutively so each later read is one seek + a streak.
            area_of_leaf = []
            boxes_lo: list[np.ndarray] = []
            boxes_hi: list[np.ndarray] = []
            for leaf in upper.leaves:
                if leaf.is_empty:
                    area_of_leaf.append(None)
                else:
                    area_of_leaf.append(len(boxes_lo))
                    boxes_lo.append(leaf.lower)
                    boxes_hi.append(leaf.upper)
            n_boxes = len(boxes_lo)
            if n_boxes == 0:
                if ck is not None:
                    ck["spill"] = {
                        "n_boxes": 0, "areas": [],
                        "area_of_leaf": area_of_leaf, "done": True,
                    }
                return ([], np.empty((0, dim)), np.empty((0, dim)),
                        area_of_leaf, 0, 0)
            box_lower = np.stack(boxes_lo)
            box_upper = np.stack(boxes_hi)
            areas = [
                PointFile(file.disk, dim, self.memory, retry=file.retry,
                          verify_checksums=file.verify_checksums,
                          breaker=file.breaker,
                          redundancy=file.redundancy_policy)
                for _ in range(n_boxes)
            ]
            n_resample = min(n, round(n * sigma_lower))
            chosen = np.sort(rng.choice(n, size=n_resample, replace=False))
            seen_per_area = np.zeros(n_boxes, dtype=np.int64)
            n_resumes = 0
            resume_start = 0
            if ck is not None:
                self._ckpt_charge(file, ck)
                ck["spill"] = self._spill_state(
                    areas, area_of_leaf, box_lower, box_upper, seen_per_area,
                    chosen, n_resumes, 0, rng,
                )

        # Chunks sized so each holds about M sample points (Figure 8a),
        # page-aligned exactly as PointFile.scan aligns them.
        chunk = min(n, math.ceil(self.memory / max(sigma_lower, 1e-12)))
        chunk = max(1, math.ceil(chunk / file.points_per_page)) * file.points_per_page
        for start in range(resume_start, n, chunk):
            stop = min(start + chunk, n)
            block = file.read_range(start, stop)
            in_block = chosen[(chosen >= start) & (chosen < stop)]
            if in_block.size > 0:
                pts = block[in_block - start]
                assignment = _assign_to_boxes(pts, box_lower, box_upper)
                # Distribute groups (Figure 8b): one streak write per area.
                for box_idx in np.unique(assignment):
                    group = pts[assignment == box_idx]
                    checkpoint = {"consumed": 0}  # per-bucket progress
                    while True:
                        try:
                            self._spill(areas[box_idx], group,
                                        int(seen_per_area[box_idx]), rng,
                                        checkpoint)
                            break
                        except (TransientReadError, TornWriteError):
                            if n_resumes >= self.spill_resume_attempts:
                                raise
                            n_resumes += 1
                            file.disk.drop_head()
                    seen_per_area[box_idx] += group.shape[0]
                    # Grow the box to cover its new points (Figure 6b).
                    box_lower[box_idx] = np.minimum(
                        box_lower[box_idx], group.min(axis=0)
                    )
                    box_upper[box_idx] = np.maximum(
                        box_upper[box_idx], group.max(axis=0)
                    )
            file.disk.drop_head()  # the next chunk read pays its seek
            if ck is not None:
                self._ckpt_charge(file, ck)
                ck["spill"] = self._spill_state(
                    areas, area_of_leaf, box_lower, box_upper, seen_per_area,
                    chosen, n_resumes, stop, rng,
                )
            if governor is not None:
                # Same boundary the crash checkpoint uses: the chunk is
                # fully applied, so a downgrade here abandons no work.
                governor.check("resampled:spill",
                               file.disk.cost - start_cost)
        n_discarded = int(
            np.maximum(seen_per_area - self.memory, 0).sum()
        )
        if ck is not None:
            ck["spill"].update(
                done=True, n_discarded=n_discarded, n_resumes=n_resumes,
                box_lower=box_lower, box_upper=box_upper,
            )
        return (areas, box_lower, box_upper, area_of_leaf,
                n_discarded, n_resumes)

    @staticmethod
    def _spill_state(
        areas: list[PointFile],
        area_of_leaf: list[int | None],
        box_lower: np.ndarray,
        box_upper: np.ndarray,
        seen_per_area: np.ndarray,
        chosen: np.ndarray,
        n_resumes: int,
        next_start: int,
        rng: np.random.Generator,
    ) -> dict:
        """Deep-copied chunk-boundary snapshot of the spill phase."""
        return {
            "n_boxes": len(areas),
            "areas": areas,
            "area_of_leaf": area_of_leaf,
            "area_sizes": [a.n_points for a in areas],
            "box_lower": box_lower.copy(),
            "box_upper": box_upper.copy(),
            "seen": seen_per_area.copy(),
            "chosen": chosen,
            "n_resumes": n_resumes,
            "next_start": next_start,
            "rng_state": rng.bit_generator.state,
            "done": False,
        }

    def _spill(
        self,
        area: PointFile,
        group: np.ndarray,
        seen_before: int,
        rng: np.random.Generator,
        checkpoint: dict | None = None,
    ) -> None:
        """Write a group to its spill area, capping at capacity ``M``.

        ``overflow_policy="discard"`` drops the excess, as the paper's
        implementation does (footnote 5) -- which biases a full area
        toward the file's scan order.  The default ``"reservoir"``
        policy instead keeps a uniform sample of everything streamed to
        the area (classic reservoir sampling): same space bound, no
        order bias, markedly better lower trees for dense areas.

        ``checkpoint["consumed"]`` counts the group points durably
        handled so far; every charged write happens *before* the
        corresponding in-memory state changes, so re-entering after a
        fault resumes exactly where the bucket left off, with no
        duplicated appends.
        """
        state = checkpoint if checkpoint is not None else {"consumed": 0}
        total = group.shape[0]
        while state["consumed"] < total:
            done = state["consumed"]
            room = area.capacity - area.n_points
            if room > 0:
                take = min(room, total - done)
                # append -> write_range charges before the buffer moves,
                # so a torn write here leaves `consumed` untouched.
                area.append(group[done : done + take])
                state["consumed"] = done + take
                continue
            rest = group[done:]
            if self.overflow_policy == "discard":
                state["consumed"] = total
                return
            # Reservoir replacement: stream position s (0-based) is kept
            # with probability capacity / (s + 1), overwriting a random
            # slot.
            positions = seen_before + done + np.arange(rest.shape[0])
            slots = rng.integers(0, positions + 1)
            accept = slots < area.capacity
            if not np.any(accept):
                state["consumed"] = total
                return
            kept_slots = slots[accept]
            # Replacements are in-place page writes within the area: one
            # seek to the area plus the touched pages, batched per group.
            # Charge first (under the retry policy); only then mutate the
            # buffer, so a failed write leaves the area resumable.
            pages = math.ceil(kept_slots.shape[0] / area.points_per_page)
            area.disk.drop_head()
            n_pages = min(pages, area.n_pages)
            area.charged(lambda: area.disk.write(area.start_page, n_pages))
            area.place_rows(kept_slots, rest[accept])
            state["consumed"] = total


def _assign_to_boxes(
    points: np.ndarray, box_lower: np.ndarray, box_upper: np.ndarray
) -> np.ndarray:
    """Index of the containing box, else the nearest box, per point.

    Containment first: the boxes are walked in index order, each point
    takes the first box that contains it (closed bounds) and leaves the
    walk.  Only the points no box contains are measured against every
    box by squared Euclidean box distance; ties go to the lowest index.

    This equals taking the lowest-index box at minimum distance for
    every point -- a contained point is at distance exactly 0 -- with
    one exception: a squared gap so small that it underflows to 0.0
    makes a box that does *not* contain the point look like distance 0.
    A pure distance rule would pick that box when its index is lower
    than the containing box's; this rule picks the box that contains
    the point.
    """
    assignment = np.empty(points.shape[0], dtype=np.int64)
    pending = np.arange(points.shape[0])
    rest = points
    for j in range(box_lower.shape[0]):
        if pending.shape[0] == 0:
            break
        inside = np.all((box_lower[j] <= rest) & (rest <= box_upper[j]), axis=1)
        assignment[pending[inside]] = j
        outside = ~inside
        pending = pending[outside]
        rest = rest[outside]
    if pending.shape[0] > 0:
        assignment[pending] = _nearest_box(rest, box_lower, box_upper)
    return assignment


def _nearest_box(
    points: np.ndarray, box_lower: np.ndarray, box_upper: np.ndarray
) -> np.ndarray:
    """Index of the box at least squared distance, per point."""
    best_dist = np.full(points.shape[0], np.inf)
    best_idx = np.zeros(points.shape[0], dtype=np.int64)
    for j in range(box_lower.shape[0]):
        gap = np.maximum(box_lower[j] - points, 0.0)
        gap += np.maximum(points - box_upper[j], 0.0)
        dist = np.einsum("nd,nd->n", gap, gap)
        better = dist < best_dist
        best_dist[better] = dist[better]
        best_idx[better] = j
    return best_idx
