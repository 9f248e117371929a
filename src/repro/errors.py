"""Structured exception hierarchy and input validation.

The paper's value proposition is predicting index cost *cheaply and
reliably*; a production deployment of the predictor therefore needs a
vocabulary for the ways a prediction can fail.  Everything raised on
purpose by this package derives from :class:`ReproError`:

``ReproError``
    root of the hierarchy; callers that want "anything this library
    considers a handled failure" catch this.
``InputValidationError``
    hostile or malformed caller input (NaN/inf coordinates, empty or
    ragged point arrays).  Also subclasses :class:`ValueError` so code
    written against the pre-hierarchy API keeps working.
``DiskError``
    the simulated device failed an operation.  Subclasses
    :class:`TransientReadError` (a read attempt returned garbage;
    retryable), :class:`TornWriteError` (a multi-page write only
    partially landed; retryable by rewriting the full range), and
    :class:`ChecksumError` (a page's payload failed CRC verification --
    silent corruption caught on the wire; retryable by re-reading), and
    :class:`UnrecoverableCorruptionError` (a page rotted *at rest* and
    every replica and parity copy is bad too; not retryable -- rereads
    fetch the same rotten bits -- so the facade degrades with
    ``cause=media``).
``CrashPoint``
    the simulated process was killed at a scheduled charged disk
    operation.  Deliberately *not* a :class:`DiskError`: nothing inside
    the library retries or degrades around a dead process -- the
    exception propagates to whatever harness scheduled the crash, which
    may then run recovery and resume.
``PredictionError``
    a prediction method could not produce an estimate (budget
    infeasible, or disk faults exhausted every retry and every
    fallback method).
``UnknownKernelError``
    a counting-kernel name (``REPRO_KERNEL``, or a name passed to
    :func:`repro.kernels.get_kernel`) did not resolve against the kernel
    table.  Also a :class:`ValueError`, like any other invalid
    parameter; the CLI maps it to exit code 14.
``BudgetExceededError`` / ``DeadlineExceededError``
    a :class:`~repro.runtime.Budget` resource (charged I/O operations,
    sample bytes) or its wall-clock deadline ran out mid-prediction.
    Raised by the :class:`~repro.runtime.Governor` at phase/chunk/leaf
    boundaries; the facade treats them as a *downgrade signal* -- the
    prediction continues along the cheaper fallback chain -- unless the
    caller asked for strict propagation (``degrade=False``).
``CircuitOpenError``
    a :class:`~repro.runtime.CircuitBreaker` guarding a
    :class:`~repro.disk.pagefile.PointFile` is open: recent charged
    operations failed at a rate above its threshold, so further disk
    access is refused *before* any I/O or retries are spent.  A
    :class:`DiskError` (the device is effectively unavailable), but not
    retryable -- the breaker itself decides when to probe again.
``TenantQuotaExceededError`` / ``ServiceOverloadedError``
    the multi-tenant prediction service refused a request up front:
    either *this tenant* ran out of its own quota (in-flight slots or
    charged-op allowance -- the neighbours are unaffected), or the
    *shared* request queue is full and the service sheds load rather
    than queueing unboundedly.  Both are admission verdicts, raised
    before any I/O is spent; the CLI maps them to exit codes 15 and 16.
``ArtifactCorruptError``
    a saved model artifact failed verification on load: a section's
    CRC32 disagrees with the stored payload, the header is malformed,
    or the format version is one this build does not speak.  The
    artifact is *never* trusted partially -- the loader raises before
    returning any model, and the service rebuilds the model from data
    instead.  The CLI maps it to exit code 17.
``ReplicaUnavailableError``
    the sharded prediction cluster could not place a request: every
    replica owning the target shard was down, breaker-open, or
    refusing, and the caller asked for strict routing
    (``degrade=False``).  With degradation enabled the router answers
    from the closed-form baseline instead and annotates the response.
    The CLI maps it to exit code 18.
``StaleRoutingEpochError``
    a dispatch pinned a routing epoch the cluster has already moved
    past (a topology change -- scale-out, scale-in, shard split or
    re-tune -- published a newer table).  The fence refuses the request
    instead of routing it against a ghost topology; the caller re-reads
    the table and retries on the fresh epoch.  The CLI maps it to exit
    code 19.

:class:`DegradedResultWarning` is a :class:`UserWarning`, not an error:
the facade emits it when it had to fall back to a cheaper method and
the returned estimate is annotated rather than failed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ReproError",
    "InputValidationError",
    "DiskError",
    "TransientReadError",
    "TornWriteError",
    "ChecksumError",
    "UnrecoverableCorruptionError",
    "CrashPoint",
    "PredictionError",
    "UnknownKernelError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "TenantQuotaExceededError",
    "ServiceOverloadedError",
    "ArtifactCorruptError",
    "ReplicaUnavailableError",
    "StaleRoutingEpochError",
    "DegradedResultWarning",
    "validate_points",
    "EXIT_CODES",
    "exit_code_for",
]


class ReproError(Exception):
    """Root of every intentional failure raised by this package."""


class InputValidationError(ReproError, ValueError):
    """Caller input rejected before it can corrupt a computation."""


class DiskError(ReproError):
    """The simulated disk failed an operation."""

    #: whether re-issuing the same operation can succeed
    retryable = False


class TransientReadError(DiskError):
    """A page read returned garbage; re-reading the run may succeed."""

    retryable = True

    def __init__(self, start_page: int, n_pages: int, *, attempts: int = 1):
        self.start_page = start_page
        self.n_pages = n_pages
        self.attempts = attempts
        super().__init__(start_page, n_pages)

    def __str__(self) -> str:
        # composed on demand so a retry policy bumping ``attempts``
        # after exhaustion is reflected in the rendered message
        return (
            f"transient read fault on pages "
            f"[{self.start_page}, {self.start_page + self.n_pages}) after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}"
        )


class TornWriteError(DiskError):
    """A multi-page write only partially landed; rewrite the range."""

    retryable = True

    def __init__(self, start_page: int, n_pages: int, pages_written: int):
        self.start_page = start_page
        self.n_pages = n_pages
        self.pages_written = pages_written
        super().__init__(start_page, n_pages, pages_written)

    def __str__(self) -> str:
        return (
            f"torn write on pages "
            f"[{self.start_page}, {self.start_page + self.n_pages}): "
            f"only {self.pages_written} of {self.n_pages} pages landed"
        )


class ChecksumError(DiskError):
    """A page's payload did not match its stored CRC32 checksum.

    Raised by a checksum-verifying :class:`~repro.disk.pagefile.PointFile`
    when a charged read returns bits that disagree with the page-header
    sidecar.  The corruption model is transient (a flip on the wire, not
    rot on the platter), so re-reading the run may return clean data:
    the error is retryable and flows through the same
    :class:`~repro.disk.retry.RetryPolicy` as transient read faults.
    """

    retryable = True

    def __init__(
        self, page: int, expected: int, actual: int, *, attempts: int = 1
    ):
        self.page = page
        self.expected = expected
        self.actual = actual
        self.attempts = attempts
        super().__init__(page, expected, actual)

    def __str__(self) -> str:
        return (
            f"checksum mismatch on page {self.page}: stored crc32 "
            f"{self.expected:#010x}, payload reads {self.actual:#010x} "
            f"after {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''}"
        )


class UnrecoverableCorruptionError(DiskError):
    """A page rotted on the platter and no copy could reconstruct it.

    Raised by a checksum-verifying
    :class:`~repro.disk.pagefile.PointFile` when a charged read hits
    *at-rest* corruption (the fault injector's
    ``at_rest_corruption_rate``) and repair-on-read found every
    mirrored replica and parity reconstruction corrupted as well --
    or no redundancy was configured at all.  Deliberately **not** a
    subclass of :class:`ChecksumError` and **not** retryable:
    re-reading rotten media returns the same rotten bits, so the retry
    policy must not burn its backoff schedule here.  The facade treats
    it as a degradation trigger with ``cause="media"``; the CLI maps
    it to exit code 13.
    """

    retryable = False

    def __init__(self, page: int, *, copies_tried: int = 1):
        self.page = page
        self.copies_tried = copies_tried
        super().__init__(page, copies_tried)

    def __str__(self) -> str:
        return (
            f"unrecoverable at-rest corruption on page {self.page}: "
            f"all {self.copies_tried} "
            f"cop{'ies' if self.copies_tried != 1 else 'y'} failed "
            f"verification"
        )


class CrashPoint(ReproError):
    """The simulated process died at a scheduled charged disk operation.

    Raised by a :class:`~repro.disk.faults.FaultInjector` armed with
    ``crash_at=N`` when the N-th charged operation is about to be
    issued; the operation never lands.  Once raised, the injector stays
    dead -- every further charged access raises again -- until
    ``reboot()`` is called.  Not retryable and never absorbed by the
    degradation chain: a crash is an exit, not an error to paper over.
    """

    def __init__(self, op_index: int):
        self.op_index = op_index
        super().__init__(op_index)

    def __str__(self) -> str:
        return f"simulated crash at charged disk operation {self.op_index}"


class PredictionError(ReproError):
    """No prediction method could produce an estimate."""


class UnknownKernelError(ReproError, ValueError):
    """A counting-kernel name did not resolve against the kernel table.

    ``kernel`` is the rejected name and ``available`` the names that
    would have resolved.  Raised eagerly by
    :func:`repro.kernels.get_kernel` and by the facade's constructor so
    a typo fails before any I/O is spent; the CLI maps it to exit
    code 14.
    """

    def __init__(self, kernel: str, *, available: tuple = ()):
        self.kernel = kernel
        self.available = tuple(available)
        super().__init__(kernel)

    def __str__(self) -> str:
        options = ", ".join(self.available) if self.available else "none"
        return (f"unknown counting kernel {self.kernel!r}; "
                f"registered kernels: {options}")


class BudgetExceededError(ReproError):
    """A governed resource budget ran out at a prediction boundary.

    ``resource`` names what was exhausted (``"io_ops"`` or
    ``"sample_bytes"``), ``spent`` and ``limit`` quantify it, and
    ``phase`` is the prediction phase whose boundary check tripped.
    Inside the facade this is a downgrade signal: the prediction
    continues with a cheaper method and the returned estimate carries
    the full spend report.  It only escapes to the caller under
    ``degrade=False`` (the CLI's ``--strict-budget``), exit code 11.
    """

    def __init__(self, resource: str, spent: float, limit: float,
                 *, phase: str = "?"):
        self.resource = resource
        self.spent = spent
        self.limit = limit
        self.phase = phase
        super().__init__(resource, spent, limit, phase)

    def __str__(self) -> str:
        return (
            f"{self.resource} budget exhausted at phase {self.phase!r}: "
            f"spent {self.spent:g} of {self.limit:g}"
        )


class DeadlineExceededError(BudgetExceededError):
    """The wall-clock deadline of a governed prediction passed.

    A :class:`BudgetExceededError` whose resource is time, measured on
    the *monotonic* clock (wall-clock adjustments must never fire or
    mask a deadline).  Distinct class -- and distinct CLI exit code 12
    -- because callers often want to treat "too slow" differently from
    "too expensive".
    """

    def __init__(self, elapsed: float, limit: float, *, phase: str = "?"):
        super().__init__("deadline", elapsed, limit, phase=phase)
        self.elapsed = elapsed

    def __str__(self) -> str:
        return (
            f"deadline exceeded at phase {self.phase!r}: "
            f"{self.elapsed:.3f} s elapsed of {self.limit:g} s allowed"
        )


class CircuitOpenError(DiskError):
    """A circuit breaker refused the operation before it was issued.

    Raised by :meth:`~repro.disk.pagefile.PointFile.charged` when the
    attached :class:`~repro.runtime.CircuitBreaker` is open.  Nothing
    was charged and nothing touched the disk; the retry policy never
    runs (fail-fast is the breaker's whole point).  Not retryable --
    the breaker transitions to half-open on its own cooldown schedule.
    """

    retryable = False

    def __init__(self, failure_rate: float, window: int,
                 *, cooldown_remaining: float = 0.0):
        self.failure_rate = failure_rate
        self.window = window
        self.cooldown_remaining = cooldown_remaining
        super().__init__(failure_rate, window)

    def __str__(self) -> str:
        return (
            f"circuit breaker open: {self.failure_rate:.0%} of the last "
            f"{self.window} charged operations failed; next probe in "
            f"{self.cooldown_remaining:.3f} s"
        )


class TenantQuotaExceededError(ReproError):
    """A tenant's own quota refused the request at admission.

    Raised by the multi-tenant prediction service when *this tenant*
    has no in-flight slot left (``resource="inflight"``) or its charged
    I/O-op allowance is spent (``resource="io_ops"``).  Per-tenant by
    construction: one tenant exhausting its quota never affects what
    the service admits from anyone else.  Nothing was queued and no
    I/O was spent; the CLI maps it to exit code 15.
    """

    def __init__(self, tenant: str, resource: str, used: float, limit: float):
        self.tenant = tenant
        self.resource = resource
        self.used = used
        self.limit = limit
        super().__init__(tenant, resource, used, limit)

    def __str__(self) -> str:
        return (
            f"tenant {self.tenant!r} exceeded its {self.resource} quota: "
            f"{self.used:g} of {self.limit:g}"
        )


class ServiceOverloadedError(ReproError):
    """The shared request queue is full: load shed, not queued.

    Raised by the multi-tenant prediction service when the bounded
    request queue has no free slot.  Backpressure is deliberate -- an
    unbounded queue converts overload into unbounded latency and
    eventual memory exhaustion, both of which look like hangs to every
    tenant.  The caller should back off and retry; the CLI maps it to
    exit code 16.
    """

    def __init__(self, queued: int, capacity: int):
        self.queued = queued
        self.capacity = capacity
        super().__init__(queued, capacity)

    def __str__(self) -> str:
        return (
            f"service overloaded: request queue full "
            f"({self.queued} of {self.capacity} slots taken)"
        )


class ArtifactCorruptError(ReproError):
    """A saved model artifact failed verification and was not trusted.

    ``reason`` says what failed: ``"magic"`` (not an artifact file),
    ``"version"`` (format version skew -- written by an incompatible
    build), ``"header"`` (malformed or truncated metadata), or
    ``"checksum"`` (a section's payload disagrees with its stored
    CRC32; ``section`` names it).  Loading stops at the first failed
    check and returns nothing: a warm-start consumer rebuilds the model
    from data instead of predicting from corrupt geometry.  The CLI
    maps it to exit code 17.
    """

    def __init__(self, path: str, reason: str, *, section: str | None = None,
                 detail: str | None = None):
        self.path = str(path)
        self.reason = reason
        self.section = section
        self.detail = detail
        super().__init__(self.path, reason)

    def __str__(self) -> str:
        message = f"model artifact {self.path} failed {self.reason} check"
        if self.section:
            message += f" in section {self.section!r}"
        if self.detail:
            message += f": {self.detail}"
        return message


class ReplicaUnavailableError(ReproError):
    """Every replica owning a shard refused or was unreachable.

    Raised (or embedded in a typed error response) by the cluster
    router when a request's shard has no healthy owner left: each
    candidate was dead, breaker-open, quota-refusing, or answered with
    a typed error, and hedged dispatch found no late winner either.
    ``tried`` records each ``(replica, reason)`` pair in the order the
    router gave up on it -- the causal record of the failed failover.
    Nothing was served and no partial answer is returned; with
    degradation enabled the router falls back to the shard's
    closed-form baseline instead of raising.  The CLI maps it to exit
    code 18.
    """

    def __init__(self, shard: int, tried: tuple = ()):
        self.shard = shard
        self.tried = tuple(tried)
        super().__init__(shard, self.tried)

    def __str__(self) -> str:
        attempts = (
            "; ".join(f"{name}: {reason}" for name, reason in self.tried)
            or "no candidate replicas"
        )
        return (
            f"no replica available for shard {self.shard}: {attempts}"
        )


class StaleRoutingEpochError(ReproError):
    """A dispatch pinned a routing epoch the table has moved past.

    Topology changes (scale-out/in, shard splits, drift re-tunes)
    publish a new routing table under a monotonically increasing
    epoch.  A caller that read the table before the change may pin the
    old epoch on its dispatch; the fence rejects the request with this
    typed error instead of silently dispatching against a ghost
    topology.  Recovery is trivial and local: re-read the table
    (``current`` carries the live epoch) and retry -- the in-flight
    requests admitted under the old epoch still drain to completion,
    so nothing already submitted is lost.  The CLI maps it to exit
    code 19.
    """

    def __init__(self, shard: int, presented: int, current: int):
        self.shard = shard
        self.presented = presented
        self.current = current
        super().__init__(shard, presented, current)

    def __str__(self) -> str:
        return (
            f"routing epoch {self.presented} is stale for shard "
            f"{self.shard}: the table is at epoch {self.current}; "
            f"refresh the routing table and retry"
        )


class DegradedResultWarning(UserWarning):
    """The estimate came from a fallback method, not the one requested."""


def validate_points(points, *, name: str = "points") -> np.ndarray:
    """A validated ``(n, d)`` float64 matrix, or :class:`InputValidationError`.

    Rejects ragged nested sequences, empty arrays (no points or zero
    dimensions), wrong ranks, and non-finite coordinates -- the inputs
    that otherwise surface as cryptic numpy failures deep inside a
    bulk load or a distance kernel.
    """
    try:
        array = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise InputValidationError(
            f"{name} is not a rectangular numeric array: {error}"
        ) from error
    if array.ndim != 2:
        raise InputValidationError(
            f"{name} must be an (n, d) matrix, got shape {array.shape}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise InputValidationError(
            f"{name} must be non-empty, got shape {array.shape}"
        )
    if not np.isfinite(array).all():
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise InputValidationError(
            f"{name} contains {bad} non-finite coordinate"
            f"{'s' if bad != 1 else ''} (NaN or inf)"
        )
    return array


#: The CLI exit code and ``--help`` description for every error class,
#: most-specific-first: :func:`exit_code_for` walks this table and the
#: first :func:`issubclass` match wins, so a subclass entry must sit
#: above its parent (``DeadlineExceededError`` above
#: ``BudgetExceededError``, every ``DiskError`` leaf above
#: ``DiskError``, everything above the ``ReproError`` catch-all).
#: :class:`CircuitOpenError` deliberately has no row of its own -- an
#: open breaker means the device is effectively unavailable, so it
#: resolves through :class:`DiskError` to code 6.  The test suite
#: asserts every exported :class:`ReproError` subclass resolves to
#: exactly one code, so a new error class cannot ship without deciding
#: its exit code here.
EXIT_CODES: tuple[tuple[type, int, str], ...] = (
    (UnknownKernelError, 14,
     "unknown counting kernel (REPRO_KERNEL did not match a "
     "registered backend)"),
    (InputValidationError, 3,
     "invalid input (NaN/inf, empty matrix, bad rates)"),
    (TransientReadError, 4, "transient read fault, retries exhausted"),
    (TornWriteError, 5, "torn multi-page write, retries exhausted"),
    (ChecksumError, 9, "checksum mismatch (silent corruption caught)"),
    (UnrecoverableCorruptionError, 13,
     "unrecoverable at-rest corruption: every copy of a page failed "
     "verification (raise --replication-factor or enable --parity)"),
    (DeadlineExceededError, 12,
     "deadline exceeded (--deadline-s, --strict-budget)"),
    (BudgetExceededError, 11,
     "resource budget exhausted (--max-io-ops, --strict-budget)"),
    (DiskError, 6,
     "other disk error (includes an open circuit breaker)"),
    (PredictionError, 7, "every prediction method failed"),
    (CrashPoint, 10,
     "simulated crash point hit (resume via checkpoint APIs)"),
    (TenantQuotaExceededError, 15,
     "tenant quota exceeded: the tenant's own in-flight slots or "
     "charged-op allowance refused the request at admission"),
    (ServiceOverloadedError, 16,
     "service overloaded: the shared bounded request queue is full "
     "and load was shed instead of queued unboundedly"),
    (ArtifactCorruptError, 17,
     "model artifact corrupt: a saved warm-start artifact failed its "
     "CRC/version verification and was not trusted"),
    (ReplicaUnavailableError, 18,
     "replica unavailable: every replica owning a shard was dead, "
     "breaker-open, or erroring, and closed-form degradation was not "
     "taken"),
    (StaleRoutingEpochError, 19,
     "stale routing epoch: the dispatch pinned a routing epoch an "
     "elastic topology change has fenced off; refresh the routing "
     "table and retry"),
    (ReproError, 8, "other repro error"),
)


def exit_code_for(error) -> int:
    """The process exit code for an error instance or class.

    Walks :data:`EXIT_CODES` most-specific-first; the first matching
    entry wins.  Anything outside the hierarchy falls back to the
    :class:`ReproError` catch-all code.
    """
    klass = error if isinstance(error, type) else type(error)
    for registered, code, _description in EXIT_CODES:
        if issubclass(klass, registered):
            return code
    return 8
