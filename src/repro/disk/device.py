"""A simulated disk that counts seeks and page transfers.

The device models what the paper measures: a linear address space of
fixed-size pages, a head position, and two counters.  Reading or
writing a run of pages costs one *seek* if the run does not start where
the head currently is, plus one *transfer* per page.  This reproduces
the paper's definition exactly ("page seeks [are] caused by reading a
page not adjacent to the previously read page").

The device stores no bytes -- data lives in the
:class:`~repro.disk.pagefile.PointFile` layers above -- it is purely the
accountant through which *all* simulated I/O must flow.

The ledger is lock-protected: the prediction service can drive one
device from several worker threads, and every counter update is a
read-modify-write that would otherwise lose increments (two threads
both reading ``_transfers`` before either writes it back).  The lock covers only counter arithmetic -- no I/O, no
randomness -- so single-threaded callers pay nothing measurable.
"""

from __future__ import annotations

import functools
import threading

from ..errors import DiskError
from .accounting import DiskParameters, IOCost

__all__ = ["SimulatedDisk"]


@functools.lru_cache(maxsize=4096)
def _access_cost(seeks: int, n_pages: int) -> IOCost:
    """The cost of one access; shared, since ``IOCost`` is immutable."""
    return IOCost(seeks=seeks, transfers=n_pages)


class SimulatedDisk:
    """Page-addressed disk with adjacency-aware seek counting.

    ``capacity_pages`` bounds the address space: when set, allocations
    past it raise :class:`~repro.errors.DiskError` instead of silently
    simulating a device larger than the one being modeled.
    """

    def __init__(
        self,
        parameters: DiskParameters | None = None,
        *,
        capacity_pages: int | None = None,
    ):
        if capacity_pages is not None and capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self.parameters = parameters or DiskParameters()
        self.capacity_pages = capacity_pages
        self._seeks = 0
        self._transfers = 0
        self._retries = 0
        self._faults = 0
        self._head: int | None = None  # page the head sits *after*
        self._next_free_page = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, n_pages: int) -> int:
        """Reserve ``n_pages`` consecutive pages; returns the start page."""
        if n_pages < 0:
            raise ValueError("cannot allocate a negative number of pages")
        with self._lock:
            if (
                self.capacity_pages is not None
                and self._next_free_page + n_pages > self.capacity_pages
            ):
                raise DiskError(
                    f"allocation of {n_pages} pages exceeds device capacity: "
                    f"{self._next_free_page} of {self.capacity_pages} pages "
                    f"already allocated"
                )
            start = self._next_free_page
            self._next_free_page += n_pages
            return start

    @property
    def allocated_pages(self) -> int:
        return self._next_free_page

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def access(self, start_page: int, n_pages: int) -> IOCost:
        """Read or write ``n_pages`` consecutive pages starting at
        ``start_page``; returns the incremental cost charged."""
        if start_page < 0 or n_pages < 0:
            raise ValueError("page addresses and counts must be non-negative")
        if n_pages == 0:
            return IOCost()
        with self._lock:
            seeks = 0 if self._head == start_page else 1
            self._seeks += seeks
            self._transfers += n_pages
            self._head = start_page + n_pages
        return _access_cost(seeks, n_pages)

    read = access
    write = access

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def cost(self) -> IOCost:
        """Total cost charged since construction (or the last reset)."""
        with self._lock:
            return IOCost(
                seeks=self._seeks,
                transfers=self._transfers,
                retries=self._retries,
                faults_seen=self._faults,
            )

    def seconds(self) -> float:
        return self.cost.seconds(self.parameters)

    def reset_counters(self) -> IOCost:
        """Zero the counters; returns the counts accumulated so far.

        The head position and the allocation pointer are preserved --
        resetting the ledger must not create a phantom free seek.
        """
        with self._lock:
            total = IOCost(
                seeks=self._seeks,
                transfers=self._transfers,
                retries=self._retries,
                faults_seen=self._faults,
            )
            self._seeks = 0
            self._transfers = 0
            self._retries = 0
            self._faults = 0
            return total

    # ------------------------------------------------------------------
    # Resilience accounting (used by FaultInjector / RetryPolicy)
    # ------------------------------------------------------------------

    def charge_penalty(self, penalty: IOCost) -> None:
        """Charge extra simulated time (latency spike, retry backoff)
        without moving the head -- the device stalled, it did not seek
        anywhere useful."""
        with self._lock:
            self._seeks += penalty.seeks
            self._transfers += penalty.transfers

    def note_retry(self, backoff: IOCost) -> None:
        """Record one retry round and charge its backoff to the ledger."""
        with self._lock:
            self._seeks += backoff.seeks
            self._transfers += backoff.transfers
            self._retries += 1

    def note_fault(self) -> None:
        """Record one injected fault observation."""
        with self._lock:
            self._faults += 1

    def drop_head(self) -> None:
        """Forget the head position (e.g. another process used the disk),
        so the next access pays a seek."""
        with self._lock:
            self._head = None
