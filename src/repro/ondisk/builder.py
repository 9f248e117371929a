"""External bulk loading of the on-disk index, with charged I/O.

This is the comparison baseline of Section 4.1: the same top-down
recursion as the in-memory loader, but operating on a paged file.  A
region that fits in memory (``<= M`` points) is read once, its whole
subtree is built in memory, and the reordered points are written back
once.  Larger regions are divided by *external quickselect* (Hoare's
find on disk): each pass streams the active subregion through memory,
three-way-partitions it around a sampled pivot, writes it back, and
recurses into the side containing the target rank.  The split dimension
is the maximum-variance dimension, computed in one additional streaming
pass.

Because pass counts depend on the real pivot behavior on the real data,
the measured build cost lands well above the best-case analytical
formula (Eq. 1) -- the paper observes the same 5-10x gap on real data
(Section 4.1).

The result keeps the physical layout: every leaf's points occupy a
contiguous range of the file, so query measurement can charge the exact
pages of each accessed leaf.

Crash consistency: a build killed at an arbitrary charged operation
(:class:`~repro.errors.CrashPoint`) can be *resumed* instead of
restarted.  Pass a :class:`BuildLog` -- a durable log of completed
build units (external partition passes and in-memory region builds) --
and re-invoke :meth:`OnDiskBuilder.build` with the same log after
recovery: logged units are skipped wholesale (their effects are already
on disk), the interrupted unit is redone idempotently, and the
remaining units run as usual.  Region write-backs go through
``file.write_range_atomic``, so with a journal attached a crash
mid-write-back is replayed or rolled back by ``journal.recover()``
before the resume.  The resumed result is bit-identical to the
fault-free build (same leaf point sets, hence the same MBRs and the
same query leaf accesses) as long as point coordinates are distinct per
split dimension -- re-partitioning a partially partitioned range can
permute ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.topology import Topology, split_child_counts, subtree_capacity
from ..disk.accounting import IOCost
from ..disk.pagefile import PointFile
from ..rtree.bulkload import BulkLoadConfig, build_subtree
from ..rtree.node import InternalNode, LeafNode, Node
from ..rtree.tree import RTree

__all__ = ["BuildLog", "OnDiskIndex", "OnDiskBuilder"]

_PIVOT_SAMPLE = 1024


class BuildLog:
    """Durable log of completed build units, enabling crash resume.

    Each completed unit appends one record -- a single-page charged
    write to a dedicated log page, atomic by construction (torn writes
    need two pages).  The record payload (the unit key, and for region
    units the serialized subtree layout) is held in process memory, as
    all simulated-disk payloads are; the charged write is what makes
    the record's durability *cost* honest.

    The charge lands before the in-memory record is added, so a crash
    during the log write simply redoes the unit on resume -- every
    unit is idempotent.
    """

    def __init__(self, disk):
        self.disk = disk
        self.start_page = disk.allocate(1)
        self._done: dict[tuple, Node | None] = {}

    def __contains__(self, key: tuple) -> bool:
        return key in self._done

    def __len__(self) -> int:
        return len(self._done)

    def node(self, key: tuple) -> Node | None:
        """The subtree recorded for a completed region unit."""
        return self._done[key]

    def record(self, key: tuple, node: Node | None = None) -> None:
        self.disk.drop_head()
        self.disk.write(self.start_page, 1)
        self._done[key] = node


@dataclass
class OnDiskIndex:
    """A built on-disk index: the queryable tree, its file, build cost."""

    tree: RTree
    file: PointFile
    build_cost: IOCost

    def __post_init__(self) -> None:
        self._leaf_pages: dict[int, tuple[int, int]] | None = None

    def leaf_page_span(self, leaf: LeafNode) -> tuple[int, int]:
        """(first absolute page, page count) of a leaf's data pages.

        Index data pages are *leaf-aligned*: every leaf starts its own
        page (pages are left partially empty at ``C_eff < C_max``),
        exactly as the real index stores them -- which is why the
        paper's query I/O shows a seek-to-transfer ratio near 1.
        """
        if leaf.n_points == 0:
            raise ValueError("empty leaf has no pages")
        if self._leaf_pages is None:
            table: dict[int, tuple[int, int]] = {}
            page = self.file.start_page
            per_page = self.file.points_per_page
            for node in self.tree.leaves:
                pages = max(1, math.ceil(node.n_points / per_page))
                table[id(node)] = (page, pages)
                page += pages
            self._leaf_pages = table
        return self._leaf_pages[id(leaf)]


class OnDiskBuilder:
    """Bulk loads an index on a :class:`PointFile` under memory ``M``."""

    def __init__(
        self,
        c_data: int,
        c_dir: int,
        memory: int,
        *,
        config: BulkLoadConfig | None = None,
        pivot_seed: int = 0,
    ):
        if memory < c_data:
            raise ValueError(
                f"memory M={memory} must hold at least one data page (C={c_data})"
            )
        self.c_data = c_data
        self.c_dir = c_dir
        self.memory = memory
        self.config = config or BulkLoadConfig()
        self._pivot_rng = np.random.default_rng(pivot_seed)

    def build(self, file: PointFile, *, log: BuildLog | None = None) -> OnDiskIndex:
        """Build the index over the file's points, reordering them.

        With a :class:`BuildLog`, completed units found in the log are
        skipped (no I/O, the stored subtree is reused), making the call
        a crash *resume*: after ``journal.recover()`` and a fault-layer
        reboot, re-invoking ``build`` with the same log finishes the
        interrupted build.  ``build_cost`` then covers only the resumed
        portion.
        """
        if file.n_points < 1:
            raise ValueError("cannot index an empty file")
        start_cost = file.disk.cost
        topology = Topology(file.n_points, self.c_data, self.c_dir)
        root = self._build_region(
            file, 0, file.n_points, topology.height, topology, log
        )
        file.disk.drop_head()
        build_cost = file.disk.cost - start_cost
        tree = RTree(file.peek(0, file.n_points).copy(), root, topology)
        return OnDiskIndex(tree=tree, file=file, build_cost=build_cost)

    # ------------------------------------------------------------------

    def _build_region(
        self,
        file: PointFile,
        start: int,
        stop: int,
        level: int,
        topology: Topology,
        log: BuildLog | None,
    ) -> Node:
        n = stop - start
        if n <= self.memory:
            return self._build_in_memory(file, start, stop, level, topology, log)
        if level == 1:
            raise AssertionError("a leaf region cannot exceed memory")
        children: list[Node] = []
        for child_start, child_stop in self._external_divide(
            file, start, stop, level, topology, log
        ):
            children.append(
                self._build_region(
                    file, child_start, child_stop, level - 1, topology, log
                )
            )
        mbr = None
        for child in children:
            if child.mbr is not None:
                mbr = child.mbr if mbr is None else mbr.union(child.mbr)
        return InternalNode(children=children, mbr=mbr, level=level, n_points=n)

    def _build_in_memory(
        self,
        file: PointFile,
        start: int,
        stop: int,
        level: int,
        topology: Topology,
        log: BuildLog | None,
    ) -> Node:
        """Read a memory-sized region, build its subtree, write it back.

        The write-back is atomic when the file has a journal: a crash
        between "subtree decided" and "reorder durable" is repaired by
        ``journal.recover()``, never leaving a half-reordered region.
        """
        key = ("region", start, stop, level)
        if log is not None and key in log:
            node = log.node(key)
            assert node is not None
            return node
        points = file.read_range(start, stop)
        layout = build_subtree(
            points, np.arange(stop - start, dtype=np.int64), level,
            stop - start, topology, self.config,
        )
        # Every page is a slice of ``layout.order``, so the region's
        # points in page order are one gather, and its ids are the file
        # positions they land on.
        global_root = layout.graph(np.arange(start, stop, dtype=np.int64))
        file.write_range_atomic(start, points[layout.order])
        if log is not None:
            log.record(key, global_root)
        return global_root

    # ------------------------------------------------------------------

    def _external_divide(
        self,
        file: PointFile,
        start: int,
        stop: int,
        level: int,
        topology: Topology,
        log: BuildLog | None,
    ) -> list[tuple[int, int]]:
        """Divide a region into its children's subranges on disk.

        The division schedule -- which (subrange, rank) pairs get
        partitioned, in which order -- is a pure function of the region
        shape, so unit keys are stable across a crash and resume: a
        logged partition is skipped together with its variance scan.
        """
        child_cap = subtree_capacity(level - 1, self.c_data, self.c_dir)
        n = stop - start
        fanout = max(1, math.ceil(n / child_cap))
        parts: list[tuple[int, int]] = []
        pending = [(start, stop, fanout)]
        while pending:
            p_start, p_stop, p_fanout = pending.pop()
            if p_fanout == 1:
                parts.append((p_start, p_stop))
                continue
            n_left, _ = split_child_counts(p_stop - p_start, p_fanout, child_cap)
            rank = p_start + n_left
            key = ("part", p_start, p_stop, rank)
            if log is None or key not in log:
                dim = self._external_variance_dim(file, p_start, p_stop)
                self._external_partition(file, p_start, p_stop, rank, dim)
                if log is not None:
                    log.record(key)
            f_left = p_fanout // 2
            pending.append((rank, p_stop, p_fanout - f_left))
            pending.append((p_start, rank, f_left))
        return parts

    def _external_variance_dim(self, file: PointFile, start: int, stop: int) -> int:
        """Max-variance dimension of a region via one streaming pass."""
        self._charge(file, start, stop)  # read pass
        region = file.peek(start, stop)
        return self.config.dimension_rule(region)

    def _external_partition(
        self, file: PointFile, start: int, stop: int, rank: int, dim: int
    ) -> None:
        """External quickselect: partition the region at ``rank``.

        Each pass over the active subregion is charged as one sequential
        read plus one sequential write; the recursion narrows to the side
        containing ``rank`` until it fits in memory.
        """
        lo, hi = start, stop
        while rank > lo and rank < hi:
            n = hi - lo
            if n <= self.memory:
                # Final in-memory selection: read, select, write back.
                self._charge(file, lo, hi)
                block = file.peek(lo, hi).copy()
                order = np.argpartition(block[:, dim], rank - lo - 1)
                file.place(lo, block[order])
                self._charge(file, lo, hi)
                return
            coords = file.peek(lo, hi)[:, dim]
            pivot = self._choose_pivot(coords)
            less = coords < pivot
            equal = coords == pivot
            n_less = int(np.count_nonzero(less))
            n_equal = int(np.count_nonzero(equal))
            if n_equal == n:
                return  # all keys identical: any cut is a valid partition
            # One partitioning pass: stream through memory, write back
            # in three runs (less | equal | greater).
            self._charge(file, lo, hi)  # read pass
            block = file.peek(lo, hi).copy()
            file.place(lo, block[less])
            file.place(lo + n_less, block[equal])
            file.place(lo + n_less + n_equal, block[~(less | equal)])
            self._charge(file, lo, hi)  # write pass
            if rank <= lo + n_less:
                hi = lo + n_less
            elif rank <= lo + n_less + n_equal:
                return  # rank falls inside the equal run: done
            else:
                lo = lo + n_less + n_equal

    def _choose_pivot(self, coords: np.ndarray) -> float:
        sample_size = min(_PIVOT_SAMPLE, coords.shape[0])
        sample = self._pivot_rng.choice(coords, size=sample_size, replace=False)
        return float(np.median(sample))

    def _charge(self, file: PointFile, start: int, stop: int) -> IOCost:
        first, count = file.page_span(start, stop)
        file.disk.drop_head()
        return file.disk.access(first, count)
