"""A paged file of points on the simulated disk.

``PointFile`` stores an ``(n, d)`` point matrix row-major in ``B``-point
pages (``B`` derived from the disk's page size and the dimensionality,
Table 2's ``B``).  Every read and write is charged to the owning
:class:`~repro.disk.device.SimulatedDisk` at page granularity, so the
on-disk index builder, the dataset scans of the predictors, and the
resampling spill areas all produce the seek/transfer counts the paper
tabulates.

The actual floats live in an in-process numpy buffer -- the simulation
is about *cost*, not persistence -- but the access API is strictly
file-like: sequential scans, range reads, and appends.

Durability layers (both off by default and zero-overhead when off):

* ``verify_checksums=True`` maintains a CRC32 per page in a page-header
  sidecar, updated on every write and verified on every charged read.
  A bit flip recorded by a fault-injecting disk (its
  ``silent_corruption_rate``) is then caught as
  :class:`~repro.errors.ChecksumError` -- retryable, because the flip
  happened on the wire, not on the platter -- instead of silently
  poisoning the computation.  Without verification the flip lands in
  the returned payload and nobody notices: exactly the failure mode
  checksums exist to close.
* ``journal`` attaches a :class:`~repro.disk.journal.WriteAheadJournal`;
  :meth:`write_range_atomic` then commits multi-page writes
  journal-first, so a crash or torn write mid-install is *repaired* on
  recovery instead of merely detected.
* ``redundancy`` attaches a
  :class:`~repro.disk.redundancy.RedundancyPolicy` (k-way mirrors
  and/or parity stripes); writes propagate to every copy (charged,
  tracked separately in ``redundancy_cost``), and a checksum failure
  caused by *at-rest* rot triggers **repair-on-read**: one charged
  probe reread (the single honest retry -- backoff cannot fix the
  platter), reconstruction from a surviving copy, and an atomic
  rewrite of the healed page.  Only when every copy is bad does the
  read surface :class:`~repro.errors.UnrecoverableCorruptionError`.
  :meth:`scrub` runs the same machinery proactively over the whole
  file.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np

from ..errors import (
    BudgetExceededError,
    ChecksumError,
    DiskError,
    InputValidationError,
    UnrecoverableCorruptionError,
)
from .accounting import IOCost
from .device import SimulatedDisk
from .redundancy import RedundancyManager, RedundancyPolicy, ScrubReport
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.breaker import CircuitBreaker
    from ..runtime.governor import Governor
    from .journal import WriteAheadJournal

__all__ = ["PointFile"]

T = TypeVar("T")


class PointFile:
    """Fixed-capacity file of ``dim``-dimensional points on a disk.

    ``retry`` attaches a :class:`~repro.disk.retry.RetryPolicy` to the
    charged paths (:meth:`read_range`, :meth:`read_point`,
    :meth:`write_range`): transient faults raised by a fault-injecting
    disk are retried with backoff charged to the same ledger.  Without
    a policy every fault propagates immediately -- and on a bare
    :class:`~repro.disk.device.SimulatedDisk` no faults ever occur, so
    a policy costs nothing unless it fires.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        dim: int,
        capacity: int,
        *,
        points_per_page: int | None = None,
        retry: RetryPolicy | None = None,
        verify_checksums: bool = False,
        journal: "WriteAheadJournal | None" = None,
        breaker: "CircuitBreaker | None" = None,
        redundancy: RedundancyPolicy | None = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.disk = disk
        self.dim = dim
        self.capacity = capacity
        self.retry = retry
        self.journal = journal
        self.breaker = breaker
        self.points_per_page = points_per_page or disk.parameters.points_per_page(dim)
        if self.points_per_page < 1:
            raise ValueError("a page must hold at least one point")
        self.start_page = disk.allocate(self._pages_for(capacity))
        #: the policy as configured (propagated to derived files, e.g.
        #: spill areas) and the manager actually doing the work --
        #: ``None`` unless the policy is active, so an inactive policy
        #: is provably zero-overhead
        self.redundancy_policy = redundancy
        self.redundancy: RedundancyManager | None = None
        if redundancy is not None and redundancy.is_active:
            self.redundancy = RedundancyManager(self, redundancy)
        # The in-process buffer grows on demand: a file's *capacity*
        # reserves disk pages (address arithmetic), not host memory --
        # spill areas are sized for the worst case but usually stay
        # far smaller.
        self._buffer = np.empty((0, dim), dtype=np.float64)
        self.n_points = 0
        #: relative page index -> CRC32 of the page payload (sidecar)
        self._crc: dict[int, int] | None = {} if verify_checksums else None

    @property
    def verify_checksums(self) -> bool:
        return self._crc is not None

    def _ensure_rows(self, rows: int) -> None:
        if rows <= self._buffer.shape[0]:
            return
        new_rows = min(self.capacity, max(rows, 2 * self._buffer.shape[0], 256))
        grown = np.empty((new_rows, self.dim), dtype=np.float64)
        grown[: self.n_points] = self._buffer[: self.n_points]
        self._buffer = grown

    @classmethod
    def from_points(
        cls,
        disk: SimulatedDisk,
        points: np.ndarray,
        *,
        charge_write: bool = False,
        points_per_page: int | None = None,
        retry: RetryPolicy | None = None,
        verify_checksums: bool = False,
        journal: "WriteAheadJournal | None" = None,
        breaker: "CircuitBreaker | None" = None,
        redundancy: RedundancyPolicy | None = None,
    ) -> "PointFile":
        """Create a file holding ``points``.

        By default the initial load is free (the dataset already exists
        on disk before any experiment starts); pass ``charge_write=True``
        to account for materializing it.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (n, d), got {points.shape}")
        pf = cls(disk, points.shape[1], points.shape[0],
                 points_per_page=points_per_page, retry=retry,
                 verify_checksums=verify_checksums, journal=journal,
                 breaker=breaker, redundancy=redundancy)
        pf._ensure_rows(points.shape[0])
        pf._buffer[: points.shape[0]] = points
        pf.n_points = points.shape[0]
        pf._refresh_crc(0, pf.n_points)
        if charge_write:
            disk.write(pf.start_page, pf._pages_for(pf.n_points))
        return pf

    # ------------------------------------------------------------------
    # Geometry of the layout
    # ------------------------------------------------------------------

    def _pages_for(self, n_points: int) -> int:
        return math.ceil(n_points / self.points_per_page)

    def page_of(self, index: int) -> int:
        """Absolute disk page holding point ``index``."""
        if not 0 <= index < self.n_points:
            raise IndexError(f"point {index} outside [0, {self.n_points})")
        return self.start_page + index // self.points_per_page

    def page_span(self, start: int, stop: int) -> tuple[int, int]:
        """(first absolute page, page count) covering points [start, stop)."""
        if not 0 <= start <= stop <= self.capacity:
            raise IndexError(f"range [{start}, {stop}) outside [0, {self.capacity}]")
        if start == stop:
            return self.start_page + start // self.points_per_page, 0
        first = start // self.points_per_page
        last = (stop - 1) // self.points_per_page
        return self.start_page + first, last - first + 1

    @property
    def n_pages(self) -> int:
        return self._pages_for(self.n_points)

    # ------------------------------------------------------------------
    # Checksum sidecar
    # ------------------------------------------------------------------

    def _page_rows(self, rel_page: int) -> tuple[int, int]:
        """Row range [lo, hi) of the valid payload of relative page."""
        lo = rel_page * self.points_per_page
        hi = min(lo + self.points_per_page, self.n_points)
        return lo, hi

    def _page_payload(self, rel_page: int) -> np.ndarray:
        """The valid payload rows of a page (a view, do not mutate)."""
        lo, hi = self._page_rows(rel_page)
        return self._buffer[lo:hi]

    def _refresh_crc(self, start_row: int, stop_row: int) -> None:
        """Recompute sidecar CRCs for the pages covering [start, stop).

        Called after every buffer mutation.  The trailing page's payload
        length depends on ``n_points``, so growth (append) refreshes the
        previously-trailing page too -- handled naturally because the
        covered range includes it.
        """
        if self._crc is None or start_row >= stop_row:
            return
        first = start_row // self.points_per_page
        last = (stop_row - 1) // self.points_per_page
        for rel in range(first, last + 1):
            self._crc[rel] = zlib.crc32(self._page_payload(rel).tobytes())

    def _verify_run(
        self, first: int, count: int
    ) -> dict[int, np.ndarray]:
        """Post-read integrity step for the charged run ``[first, first+count)``.

        Collects any silent bit flips the (fault-injecting) disk
        recorded against this run -- the consume-once *in-transit*
        flips and the persistent *at-rest* rot -- and applies each to a
        *copy* of its page's payload: the as-read view of the data,
        distinct from the authoritative buffer.  When checksum
        verification is on, every page of the run is then CRC-checked
        against the sidecar.  A failing page splits by failure class:

        * flipped **in transit only** -- raises
          :class:`~repro.errors.ChecksumError` (inside the retry scope,
          so a retry re-reads cleanly);
        * **rotten at rest** -- a reread cannot help, so the page goes
          straight to :meth:`_repair_rotten` (one charged probe, then
          replica/parity reconstruction), raising
          :class:`~repro.errors.UnrecoverableCorruptionError` only when
          every copy is bad.  If the wire *also* flipped this read, the
          platter is healed first and one retryable
          :class:`~repro.errors.ChecksumError` is raised so the retry
          fetches the clean bits.

        Returns the corrupted payloads by relative page, for the caller
        to surface to its reader when verification is off.
        """
        consume = getattr(self.disk, "consume_corruption", None)
        events = consume(first, count) if consume is not None else []
        rot_query = getattr(self.disk, "at_rest_flips", None)
        rot_events = rot_query(first, count) if rot_query is not None else []
        corrupted: dict[int, np.ndarray] = {}
        for abs_page, byte, bit in [*events, *rot_events]:
            rel = abs_page - self.start_page
            payload = (corrupted[rel] if rel in corrupted
                       else self._page_payload(rel).copy())
            raw = bytearray(payload.tobytes())
            if not raw:
                continue  # flip landed in unused page padding
            raw[byte % len(raw)] ^= 1 << bit
            corrupted[rel] = np.frombuffer(raw, dtype=np.float64).reshape(
                payload.shape
            )
        if self._crc is not None:
            transit_rels = {abs_page - self.start_page
                            for abs_page, _byte, _bit in events}
            rot_rels = {abs_page - self.start_page
                        for abs_page, _byte, _bit in rot_events}
            rel_first = first - self.start_page
            for rel in range(rel_first, rel_first + count):
                if rel in corrupted:
                    actual = zlib.crc32(corrupted[rel].tobytes())
                else:
                    actual = zlib.crc32(self._page_payload(rel).tobytes())
                expected = self._crc.get(rel)
                if expected is None:
                    # Page never written through a checksummed path;
                    # adopt the current payload as its baseline.
                    self._crc[rel] = actual if rel not in corrupted else (
                        zlib.crc32(self._page_payload(rel).tobytes())
                    )
                    expected = self._crc[rel]
                if actual != expected:
                    if rel in rot_rels:
                        self._repair_rotten(rel)
                        corrupted.pop(rel, None)
                        if rel in transit_rels:
                            raise ChecksumError(
                                self.start_page + rel, expected, actual
                            )
                        continue
                    raise ChecksumError(
                        self.start_page + rel, expected, actual
                    )
        return corrupted

    def _repair_rotten(self, rel: int) -> None:
        """Repair-on-read for a page whose corruption is on the platter.

        Charges exactly one probe reread (seek + transfer, counted as
        the single honest retry round) -- confirming the mismatch
        persists -- instead of burning the exponential backoff schedule
        on an error rereads cannot fix.  Then hands the page to the
        redundancy manager; with no redundancy, or with every copy bad,
        raises :class:`~repro.errors.UnrecoverableCorruptionError`
        (non-retryable) for the caller's degradation machinery.
        """
        note_retry = getattr(self.disk, "note_retry", None)
        if note_retry is not None:
            note_retry(IOCost(seeks=1, transfers=1))
        manager = self.redundancy
        if manager is None:
            raise UnrecoverableCorruptionError(self.start_page + rel)
        if manager.repair(rel) is None:
            raise UnrecoverableCorruptionError(
                self.start_page + rel,
                copies_tried=manager.copies_per_page,
            )

    # ------------------------------------------------------------------
    # Charged access
    # ------------------------------------------------------------------

    def charged(self, operation: Callable[[], T]) -> T:
        """Run a charged disk operation under this file's retry policy.

        With a :class:`~repro.runtime.breaker.CircuitBreaker` attached,
        the breaker is consulted *before* anything is issued -- an open
        circuit raises :class:`~repro.errors.CircuitOpenError` with
        zero charged I/O and zero retries -- and every final outcome
        (success, or a :class:`~repro.errors.DiskError` that survived
        the retry policy) is fed back into its failure window.
        """
        breaker = self.breaker
        if breaker is not None:
            breaker.before_attempt()
        try:
            if self.retry is None:
                result = operation()
            else:
                result = self.retry.run(self.disk, operation)
        except DiskError:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _read_run(self, first: int, count: int) -> dict[int, np.ndarray]:
        """One charged, integrity-checked read attempt of a page run."""
        self.disk.read(first, count)
        return self._verify_run(first, count)

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Read points ``[start, stop)``; charges the covering pages.

        The returned block is what came *off the wire*: if the disk
        silently corrupted a page and verification is off, the flipped
        bits are faithfully present in the result.

        A clean read returns a read-only view of the file's rows, not a
        copy: it stays valid until the next write to those rows, so a
        caller that keeps the block across a write to its own range
        must copy it first.  A read that saw corruption returns a
        private, patched copy.
        """
        if stop > self.n_points:
            raise IndexError(f"read past end: [{start}, {stop}) > {self.n_points}")
        first, count = self.page_span(start, stop)
        corrupted = self.charged(lambda: self._read_run(first, count))
        if not corrupted:
            view = self._buffer[start:stop]
            view.flags.writeable = False
            return view
        data = self._buffer[start:stop].copy()
        for rel, payload in corrupted.items():
            lo, hi = self._page_rows(rel)
            s, e = max(lo, start), min(hi, stop)
            if s < e:
                data[s - start : e - start] = payload[s - lo : e - lo]
        return data

    def read_all(self) -> np.ndarray:
        return self.read_range(0, self.n_points)

    def read_point(self, index: int) -> np.ndarray:
        """Random single-point read (one page)."""
        page = self.page_of(index)
        corrupted = self.charged(lambda: self._read_run(page, 1))
        rel = page - self.start_page
        if rel in corrupted:
            lo, _ = self._page_rows(rel)
            return corrupted[rel][index - lo].copy()
        return self._buffer[index].copy()

    def write_range(self, start: int, points: np.ndarray) -> None:
        """Overwrite points starting at ``start``; charges covering pages.

        The charged write happens *before* the in-process buffer is
        touched: a torn write leaves the file's contents and length
        unchanged, so retrying the identical range is safe.
        """
        points = np.asarray(points, dtype=np.float64)
        stop = start + points.shape[0]
        if stop > self.capacity:
            raise IndexError(f"write past capacity: [{start}, {stop})")
        first, count = self.page_span(start, stop)
        self.charged(lambda: self.disk.write(first, count))
        if self.redundancy is not None:
            self.redundancy.on_write(first - self.start_page, count)
        self._ensure_rows(stop)
        self._buffer[start:stop] = points
        self.n_points = max(self.n_points, stop)
        self._refresh_crc(start, stop)

    def install_pages(self, start: int, stop: int) -> None:
        """Charged in-place install of the pages covering points
        ``[start, stop)``: primary write, replica/parity propagation,
        and buffer-pool invalidation -- everything a write path must do
        to leave no stale copy anywhere.  Used by the journal's install
        step; the payload itself is placed by the caller (installs are
        charged here, mutated there, preserving crash ordering).
        """
        first, count = self.page_span(start, stop)
        self.charged(lambda: self.disk.write(first, count))
        if self.redundancy is not None:
            self.redundancy.on_write(first - self.start_page, count)
        self.invalidate_cached(first, count)

    def write_range_atomic(self, start: int, points: np.ndarray) -> None:
        """Overwrite points starting at ``start`` as one atomic commit.

        With a :class:`~repro.disk.journal.WriteAheadJournal` attached,
        the payload is journaled (payload pages, then a one-page commit
        marker) before the in-place install, so a crash or unrecovered
        torn write at any point either replays the full install or
        rolls it back cleanly on ``journal.recover()`` -- never a
        half-applied range.  Without a journal this degrades to the
        plain (detect-only) :meth:`write_range`.
        """
        if self.journal is None:
            points = np.asarray(points, dtype=np.float64)
            self.write_range(start, points)
            first, count = self.page_span(start, start + points.shape[0])
            self.invalidate_cached(first, count)
            return
        self.journal.commit(self, start, points)

    def append(self, points: np.ndarray) -> int:
        """Append a block at the end; returns the index of its first point.

        Appending to a partially filled trailing page re-touches that
        page, exactly as a real buffered writer would.
        """
        start = self.n_points
        self.write_range(start, points)
        return start

    def truncate(self, n_points: int) -> None:
        """Roll the file's length back to ``n_points`` (uncharged).

        Recovery bookkeeping: a resumed spill phase discards a
        partially-applied chunk by truncating each area to its
        checkpointed length before replaying the chunk.  Like a real
        in-place length rollback, no pages move; the sidecar CRC of the
        new trailing page is refreshed for its shortened payload.
        """
        if not 0 <= n_points <= self.n_points:
            raise ValueError(
                f"cannot truncate to {n_points}: file holds {self.n_points}"
            )
        old = self.n_points
        self.n_points = n_points
        if self._crc is not None:
            for rel in range(self._pages_for(old)):
                self._crc.pop(rel, None)
            self._refresh_crc(0, n_points)
        if old > n_points:
            # pages past (and including) the new trailing page changed
            # meaning; a buffer pool must not serve them as current
            first_dead = n_points // self.points_per_page
            last_dead = (old - 1) // self.points_per_page
            self.invalidate_cached(
                self.start_page + first_dead, last_dead - first_dead + 1
            )

    def scan(self, chunk_points: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """Sequential full scan: yields ``(start_index, block)`` chunks.

        Charges one seek for the whole scan plus one transfer per page:
        chunks are aligned to page boundaries, so each chunk after the
        first continues exactly where the head already is.
        """
        chunk = chunk_points or max(self.points_per_page, 4096)
        chunk = max(1, math.ceil(chunk / self.points_per_page)) * self.points_per_page
        for start in range(0, self.n_points, chunk):
            stop = min(start + chunk, self.n_points)
            yield start, self.read_range(start, stop)

    def invalidate_cached(self, first_page: int, count: int) -> None:
        """Drop a page run from any buffer pool stacked under this file.

        No-op on pool-less devices.  Called wherever a page's served
        content changes out from under a cache: atomic installs,
        truncation, and repair rewrites -- a repaired page must never
        be served stale.
        """
        invalidate = getattr(self.disk, "invalidate", None)
        if invalidate is not None:
            invalidate(first_page, count)

    @property
    def redundancy_cost(self) -> IOCost:
        """Extra I/O spent on replicas and parity (zero when inactive)."""
        if self.redundancy is None:
            return IOCost()
        return self.redundancy.redundancy_cost

    def scrub(self, *, governor: "Governor | None" = None) -> ScrubReport:
        """Background scrub: verify and repair every page proactively.

        Walks the file's data pages through the normal charged,
        checksum-verified read path -- so repair-on-read does the
        healing -- then sweeps the replica and parity regions,
        rewriting rotten copies from the healed primary.  Pages whose
        every copy is bad are recorded as ``unrecoverable`` (the scrub
        continues; a scrub inventories damage, it does not abort on
        it); transient faults that survive the retry policy are counted
        and skipped likewise.

        ``governor`` makes the pass budget-aware: the op budget and
        deadline are checked before every page, and the scrub stops
        explicitly -- ``completed=False`` with the exhaustion recorded
        -- rather than overspending.  Requires ``verify_checksums``:
        without the sidecar there is nothing to verify against.
        """
        if self._crc is None:
            raise InputValidationError(
                "scrub requires verify_checksums=True: without the CRC "
                "sidecar there is nothing to verify pages against"
            )
        start_cost = self.disk.cost
        manager = self.redundancy
        repairs_before = manager.repairs if manager is not None else 0
        copies_before = manager.copies_repaired if manager is not None else 0
        red_before = (manager.redundancy_cost if manager is not None
                      else IOCost())
        scanned = 0
        unrecoverable: list[int] = []
        transient = 0
        exhausted: dict | None = None
        self.disk.drop_head()  # a background pass starts cold
        for rel in range(self.n_pages):
            if governor is not None:
                try:
                    governor.check("scrub", self.disk.cost - start_cost)
                except BudgetExceededError as error:
                    exhausted = {
                        "error": type(error).__name__,
                        "phase": "scrub:data",
                        "after_pages": rel,
                        "detail": str(error),
                    }
                    break
            page = self.start_page + rel
            try:
                self.charged(lambda p=page: self._read_run(p, 1))
            except UnrecoverableCorruptionError:
                unrecoverable.append(page)
            except DiskError:
                transient += 1
            scanned += 1
        if manager is not None and exhausted is None:
            exhausted = manager.scrub_copies(
                governor=governor, ledger_base=start_cost
            )
        return ScrubReport(
            pages_total=self.n_pages,
            pages_scanned=scanned,
            repaired=(manager.repairs - repairs_before
                      if manager is not None else 0),
            copies_repaired=(manager.copies_repaired - copies_before
                             if manager is not None else 0),
            unrecoverable=tuple(unrecoverable),
            transient_failures=transient,
            io_cost=self.disk.cost - start_cost,
            redundancy_cost=(manager.redundancy_cost - red_before
                             if manager is not None else IOCost()),
            completed=exhausted is None,
            exhausted=exhausted,
        )

    # ------------------------------------------------------------------
    # Uncharged access (bookkeeping that a real system would do in RAM)
    # ------------------------------------------------------------------

    def peek(self, start: int, stop: int) -> np.ndarray:
        """Read without charging -- for assertions and verification only."""
        return self._buffer[start:stop]

    def place(self, start: int, points: np.ndarray) -> None:
        """Write without charging -- used by builders that charge their
        I/O at a coarser, algorithm-level granularity."""
        points = np.asarray(points, dtype=np.float64)
        stop = start + points.shape[0]
        if stop > self.capacity:
            raise IndexError(f"write past capacity: [{start}, {stop})")
        self._ensure_rows(stop)
        self._buffer[start:stop] = points
        self.n_points = max(self.n_points, stop)
        self._refresh_crc(start, stop)

    def place_rows(self, rows: np.ndarray, points: np.ndarray) -> None:
        """Overwrite scattered existing rows without charging.

        ``points[i]`` goes to row ``rows[i]``.  A row named more than
        once keeps the *later* point, as a sequence of single-row
        :meth:`place` calls would leave it.  Each touched page's CRC is
        refreshed once.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == 0:
            return
        if rows.min() < 0 or rows.max() >= self.n_points:
            raise IndexError(f"rows outside [0, {self.n_points})")
        # np.unique on the reversed rows finds each row's last occurrence
        _, from_end = np.unique(rows[::-1], return_index=True)
        last = rows.shape[0] - 1 - from_end
        self._buffer[rows[last]] = np.asarray(points, dtype=np.float64)[last]
        if self._crc is not None:
            for rel in np.unique(rows // self.points_per_page).tolist():
                self._crc[rel] = zlib.crc32(self._page_payload(rel).tobytes())
