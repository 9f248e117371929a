"""Deterministic fault injection over the simulated disk.

:class:`FaultInjector` wraps a :class:`~repro.disk.device.SimulatedDisk`
behind the same ``allocate``/``access``/``read``/``write`` API and
injects seed-driven fault classes with independent rates:

* **transient read failures** -- the attempted run is charged (the
  device did seek and stream) but the data is garbage, so
  :class:`~repro.errors.TransientReadError` is raised; a retry may
  succeed;
* **torn multi-page writes** -- only a random prefix of a multi-page
  write lands (and is charged) before
  :class:`~repro.errors.TornWriteError` is raised; rewriting the full
  range is safe because page writes are idempotent;
* **latency spikes** -- the access succeeds but costs extra penalty
  seeks, modeling queueing or remapping stalls;
* **silent corruption** -- the read succeeds and *nothing is raised*:
  the injector records a deterministic bit flip against one page of the
  run, which the data layer above (a checksum-verifying
  :class:`~repro.disk.pagefile.PointFile`) applies to the returned
  payload.  Without checksum verification the caller silently consumes
  corrupted data; with it, the flip is caught as
  :class:`~repro.errors.ChecksumError`.
* **at-rest corruption** -- rot on the platter, not the wire.  On the
  *first* read of each page a seed-deterministic verdict is drawn at
  ``at_rest_corruption_rate``; a rotten page carries a persistent bit
  flip that every subsequent read returns, so retries cannot help and
  the flip survives :meth:`reboot` and :meth:`reset_counters` alike.
  Only a *write* to the page heals it (re-magnetizing the platter) --
  which is exactly what the repair-on-read path of a redundant
  :class:`~repro.disk.pagefile.PointFile` does, reconstructing the
  payload from a mirrored replica or a parity stripe
  (:mod:`repro.disk.redundancy`).  The registry is queried
  non-destructively via :meth:`at_rest_flips` / :meth:`is_rotten`,
  unlike the consume-once in-transit flips.  A freshly written page is
  considered durably clean: its verdict is settled as "not rotten" and
  later reads draw nothing, keeping replay deterministic (no
  heal-then-re-rot loops).

Crash scheduling is orthogonal to the rates: ``crash_at=N`` raises
:class:`~repro.errors.CrashPoint` when the N-th charged operation
(1-based, reads and writes alike) is about to be issued.  The
operation never lands, and the injector then plays dead -- every later
charged access raises ``CrashPoint`` again -- until :meth:`reboot`.

Faults come from a private :class:`numpy.random.Generator` seeded at
construction, so a fixed seed over a fixed operation sequence replays
bit-identically -- the property the fault-injection tests pin down.
With all rates zero and no crash armed the injector is a strict
pass-through: no random draws, no extra cost, byte-identical ledgers to
the bare device (the zero-overhead guarantee).

The errors surfaced here feed two recovery layers above: the
per-access :class:`~repro.disk.retry.RetryPolicy` (charged retries with
backoff), and -- when a :class:`~repro.runtime.breaker.CircuitBreaker`
is attached to the :class:`~repro.disk.pagefile.PointFile` -- a
failure-rate window that opens the circuit on a persistently faulty
device, short-circuiting further charged attempts with
:class:`~repro.errors.CircuitOpenError` instead of burning the retry
budget (the facade then degrades to the disk-free methods).
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    CrashPoint,
    InputValidationError,
    TornWriteError,
    TransientReadError,
)
from .accounting import DiskParameters, IOCost
from .device import SimulatedDisk

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seed-driven fault wrapper presenting the ``SimulatedDisk`` API."""

    def __init__(
        self,
        disk: SimulatedDisk,
        *,
        read_fault_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        latency_spike_rate: float = 0.0,
        silent_corruption_rate: float = 0.0,
        at_rest_corruption_rate: float = 0.0,
        seed: int = 0,
        spike_seeks: int = 2,
        crash_at: int | None = None,
    ):
        for name, rate in (
            ("read_fault_rate", read_fault_rate),
            ("torn_write_rate", torn_write_rate),
            ("latency_spike_rate", latency_spike_rate),
            ("silent_corruption_rate", silent_corruption_rate),
            ("at_rest_corruption_rate", at_rest_corruption_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise InputValidationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if spike_seeks < 0:
            raise InputValidationError("spike_seeks must be non-negative")
        if crash_at is not None and crash_at < 1:
            raise InputValidationError(
                f"crash_at is a 1-based charged-op index, got {crash_at}"
            )
        self.inner = disk
        self.read_fault_rate = read_fault_rate
        self.torn_write_rate = torn_write_rate
        self.latency_spike_rate = latency_spike_rate
        self.silent_corruption_rate = silent_corruption_rate
        self.at_rest_corruption_rate = at_rest_corruption_rate
        self.seed = seed
        self.spike_seeks = spike_seeks
        self.crash_at = crash_at
        self._rng = np.random.default_rng(seed)
        self._ops_issued = 0
        self._crashed = False
        #: (absolute page, byte offset within payload, bit) flips recorded
        #: by the last corrupted read, awaiting pickup by the data layer
        self._pending_corruption: list[tuple[int, int, int]] = []
        #: absolute page -> (byte, bit) persistent flip on the media;
        #: unlike pending corruption this is the state of the platter,
        #: surviving reboots, counter resets, and any number of rereads
        self._rotten: dict[int, tuple[int, int]] = {}
        #: pages whose at-rest verdict is settled (rotten or durably
        #: clean); a page is only ever drawn against the rate once
        self._rot_decided: set[int] = set()

    @property
    def _inert(self) -> bool:
        return (
            self.read_fault_rate == 0.0
            and self.torn_write_rate == 0.0
            and self.latency_spike_rate == 0.0
            and self.silent_corruption_rate == 0.0
            and self.at_rest_corruption_rate == 0.0
        )

    # ------------------------------------------------------------------
    # Crash scheduling
    # ------------------------------------------------------------------

    def _count_op(self) -> None:
        """Account one charged operation; dies if the crash is due.

        Raises *before* the operation reaches the device: the op that
        hits the crash point never lands, matching a process killed
        between issuing the syscall and the device accepting it.
        """
        if self._crashed:
            raise CrashPoint(self._ops_issued)
        self._ops_issued += 1
        if self.crash_at is not None and self._ops_issued >= self.crash_at:
            self._crashed = True
            raise CrashPoint(self._ops_issued)

    @property
    def crashed(self) -> bool:
        return self._crashed

    def reboot(self, *, crash_at: int | None = None) -> None:
        """Bring a crashed injector back up.

        Clears the dead state, restarts the charged-op count, and arms
        the next crash at ``crash_at`` (``None`` disarms).  The head
        position is forgotten -- a rebooted machine has no idea where
        the arm sits -- so recovery I/O pays its first seek honestly.
        Fault rates and the fault RNG stream are left untouched: the
        world stays as hostile as it was before the crash.  At-rest rot
        survives too -- a reboot spins the same rusty platter back up.
        """
        self._crashed = False
        self._ops_issued = 0
        self.crash_at = crash_at
        self.inner.drop_head()

    # ------------------------------------------------------------------
    # Faulting access paths
    # ------------------------------------------------------------------

    def read(self, start_page: int, n_pages: int) -> IOCost:
        """Read a run; may raise ``TransientReadError`` after charging
        the failed attempt, or record a silent bit flip."""
        if n_pages == 0:
            return self.inner.read(start_page, n_pages)
        if self._inert:
            if self.crash_at is not None or self._crashed:
                self._count_op()
            return self.inner.read(start_page, n_pages)
        self._count_op()
        if (
            self.read_fault_rate > 0.0
            and self._rng.random() < self.read_fault_rate
        ):
            self.inner.read(start_page, n_pages)  # the attempt is paid for
            self.inner.note_fault()
            raise TransientReadError(start_page, n_pages)
        cost = self.inner.read(start_page, n_pages)
        if self.at_rest_corruption_rate > 0.0:
            self._decide_rot(start_page, n_pages)
        if (
            self.silent_corruption_rate > 0.0
            and self._rng.random() < self.silent_corruption_rate
        ):
            page = start_page + int(self._rng.integers(0, n_pages))
            byte = int(self._rng.integers(0, self.inner.parameters.page_bytes))
            bit = int(self._rng.integers(0, 8))
            self._pending_corruption.append((page, byte, bit))
            self.inner.note_fault()
        return cost + self._maybe_spike()

    def write(self, start_page: int, n_pages: int) -> IOCost:
        """Write a run; may raise ``TornWriteError`` after charging the
        prefix that landed."""
        if n_pages == 0:
            return self.inner.write(start_page, n_pages)
        if self._inert:
            if self.crash_at is not None or self._crashed:
                self._count_op()
            self._settle_write(start_page, n_pages)
            return self.inner.write(start_page, n_pages)
        self._count_op()
        if (
            n_pages >= 2
            and self.torn_write_rate > 0.0
            and self._rng.random() < self.torn_write_rate
        ):
            pages_written = int(self._rng.integers(1, n_pages))
            self.inner.write(start_page, pages_written)
            # only the landed prefix was re-magnetized
            self._settle_write(start_page, pages_written)
            self.inner.note_fault()
            raise TornWriteError(start_page, n_pages, pages_written)
        cost = self.inner.write(start_page, n_pages)
        self._settle_write(start_page, n_pages)
        return cost + self._maybe_spike()

    # ``SimulatedDisk`` exposes a direction-agnostic ``access``; callers
    # using it get the read fault model (scans dominate that path).
    access = read

    def consume_corruption(
        self, start_page: int, n_pages: int
    ) -> list[tuple[int, int, int]]:
        """Hand pending bit flips for ``[start_page, start_page+n_pages)``
        to the data layer, clearing them.

        Flips are recorded by the read that drew them and consumed by
        the layer holding the bytes (the device itself stores none).
        Flips outside the queried run stay pending -- they belong to a
        different file's pages.
        """
        if not self._pending_corruption:
            return []
        end = start_page + n_pages
        taken = [c for c in self._pending_corruption if start_page <= c[0] < end]
        if taken:
            self._pending_corruption = [
                c for c in self._pending_corruption if not start_page <= c[0] < end
            ]
        return taken

    # ------------------------------------------------------------------
    # At-rest corruption (rot on the platter)
    # ------------------------------------------------------------------

    def _decide_rot(self, start_page: int, n_pages: int) -> None:
        """Draw the one-time at-rest verdict for undecided pages of a run."""
        for page in range(start_page, start_page + n_pages):
            if page in self._rot_decided:
                continue
            self._rot_decided.add(page)
            if self._rng.random() < self.at_rest_corruption_rate:
                byte = int(
                    self._rng.integers(0, self.inner.parameters.page_bytes)
                )
                bit = int(self._rng.integers(0, 8))
                self._rotten[page] = (byte, bit)
                self.inner.note_fault()

    def _settle_write(self, start_page: int, n_pages: int) -> None:
        """A landed write re-magnetizes its pages: rot is healed and the
        verdict is settled as durably clean."""
        if self.at_rest_corruption_rate > 0.0:
            self._rot_decided.update(range(start_page, start_page + n_pages))
        if self._rotten:
            for page in range(start_page, start_page + n_pages):
                self._rotten.pop(page, None)

    def at_rest_flips(
        self, start_page: int, n_pages: int
    ) -> list[tuple[int, int, int]]:
        """Persistent ``(page, byte, bit)`` flips within the run.

        Non-destructive, unlike :meth:`consume_corruption`: the rot is
        on the platter and stays until the page is rewritten.  The data
        layer calls this after every charged read to overlay the
        media's true state on the returned payload.
        """
        if not self._rotten:
            return []
        end = start_page + n_pages
        return [
            (page, byte, bit)
            for page, (byte, bit) in self._rotten.items()
            if start_page <= page < end
        ]

    def is_rotten(self, page: int) -> bool:
        """Whether ``page`` currently carries an at-rest flip."""
        return page in self._rotten

    @property
    def rotten_pages(self) -> int:
        """Number of pages currently rotten on the media."""
        return len(self._rotten)

    def _maybe_spike(self) -> IOCost:
        if (
            self.latency_spike_rate > 0.0
            and self._rng.random() < self.latency_spike_rate
        ):
            penalty = IOCost(seeks=self.spike_seeks)
            self.inner.charge_penalty(penalty)
            self.inner.note_fault()
            return penalty
        return IOCost()

    # ------------------------------------------------------------------
    # Pass-through of the rest of the device API
    # ------------------------------------------------------------------

    @property
    def parameters(self) -> DiskParameters:
        return self.inner.parameters

    @property
    def capacity_pages(self) -> int | None:
        return self.inner.capacity_pages

    def allocate(self, n_pages: int) -> int:
        return self.inner.allocate(n_pages)

    @property
    def allocated_pages(self) -> int:
        return self.inner.allocated_pages

    @property
    def cost(self) -> IOCost:
        return self.inner.cost

    def seconds(self) -> float:
        return self.inner.seconds()

    def reset_counters(self) -> IOCost:
        """Zero the ledger *and* the injector's phase-local residue.

        Phase-scoped accounting (``reset; run phase; read cost``) must
        not leak state between phases: the device zeroes seeks,
        transfers, retries, and faults_seen together, and the injector
        drops corruption flips recorded but never consumed -- a flip
        from phase A materializing in phase B would charge B for A's
        fault.  The fault RNG stream, the crash schedule, and the
        at-rest rot registry are *not* reset: they model the hostile
        world (and the physical media), not the ledger.
        """
        self._pending_corruption.clear()
        return self.inner.reset_counters()

    def drop_head(self) -> None:
        self.inner.drop_head()

    def charge_penalty(self, penalty: IOCost) -> None:
        self.inner.charge_penalty(penalty)

    def note_retry(self, backoff: IOCost) -> None:
        self.inner.note_retry(backoff)

    def note_fault(self) -> None:
        self.inner.note_fault()
