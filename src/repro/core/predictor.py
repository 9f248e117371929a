"""High-level facade: one entry point for prediction and measurement.

``IndexCostPredictor`` wires together the dataset file, the workload,
the three prediction methods of the paper, and the measured on-disk
ground truth, deriving page capacities from the disk geometry the way
the paper does.  It is the API the examples and benchmarks use::

    predictor = IndexCostPredictor(dim=60, memory=10_000)
    workload = predictor.make_workload(points, n_queries=500, k=21, seed=1)
    estimate = predictor.predict(points, workload, method="resampled")
    truth = predictor.measure(points, workload)
    error = estimate.relative_error(truth.mean_accesses)

Resilience: the facade validates its inputs up front
(:class:`~repro.errors.InputValidationError` on NaN/inf or empty
matrices), optionally injects seed-driven disk faults
(``fault_rate`` / ``torn_write_rate`` / ``latency_spike_rate``), and
retries transient faults under ``retry``.  When a method still cannot
finish -- retries exhausted mid-phase -- :meth:`predict` degrades along
``resampled -> cutoff -> mini -> closed-form baseline``, annotating the
returned estimate with a ``degradation`` record and emitting a
:class:`~repro.errors.DegradedResultWarning`.

Self-healing: ``at_rest_corruption_rate`` lets pages rot on the
platter while ``replication_factor`` / ``parity`` provision the copies
repair-on-read heals from; ``scrub=True`` sweeps the file after each
successful prediction and attaches the scrub report.  A rotten page
with no surviving copy raises the non-retryable
:class:`~repro.errors.UnrecoverableCorruptionError`, which degrades
with ``cause="media"``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..baselines.uniform_model import UniformCostModel
from ..disk.accounting import DiskParameters, IOCost
from ..disk.device import SimulatedDisk
from ..disk.faults import FaultInjector
from ..disk.pagefile import PointFile
from ..disk.redundancy import RedundancyPolicy
from ..disk.retry import RetryPolicy
from ..errors import (
    BudgetExceededError,
    CrashPoint,
    DegradedResultWarning,
    InputValidationError,
    PredictionError,
    ReproError,
    UnrecoverableCorruptionError,
    validate_points,
)
from ..kernels.batched import memory_cap_from_env
from ..kernels.registry import get_kernel
from ..ondisk.builder import OnDiskBuilder, OnDiskIndex
from ..ondisk.measure import MeasurementResult, measure_knn
from ..rtree.bulkload import BulkLoadConfig
from ..runtime.breaker import CircuitBreaker
from ..runtime.budget import Budget
from ..runtime.governor import Governor
from ..runtime.hedge import run_hedged
from ..workload.queries import (
    KNNWorkload,
    RangeWorkload,
    density_biased_knn_workload,
)
from .counting import PredictionResult, count_grid_accesses
from .cutoff import CutoffModel
from .minindex import MiniIndexModel
from .resampled import ResampledModel
from .topology import Topology, page_capacities

__all__ = ["IndexCostPredictor"]

_METHODS = ("mini", "cutoff", "resampled")

#: degradation order -- each method falls back to everything after it
_FALLBACK_CHAIN = ("resampled", "cutoff", "mini", "baseline")


@dataclass
class IndexCostPredictor:
    """Predicts leaf-page accesses of a VAMSplit R*-tree for a workload.

    Page capacities default to what the disk geometry dictates for the
    dimensionality (Section 5's configuration); pass ``c_data`` /
    ``c_dir`` to override.  ``memory`` is the point budget ``M`` of the
    restricted-memory methods.

    ``fault_rate`` (transient read failures), ``torn_write_rate``,
    ``latency_spike_rate``, and ``silent_corruption_rate`` (in-transit
    bit flips) enable deterministic fault injection on the fresh
    simulated disk each phased prediction runs against, seeded by
    ``fault_seed``; ``retry`` governs how charged accesses recover.
    ``verify_checksums`` catches silent corruption as a retryable
    :class:`~repro.errors.ChecksumError` instead of returning flipped
    bits.  ``crash_at`` kills the run with
    :class:`~repro.errors.CrashPoint` before the N-th charged disk
    operation -- crashes are never degraded around; resume via the
    checkpoint/recovery APIs (see :mod:`repro.disk.chaos`).  All-zero
    rates with checksums off are guaranteed zero-overhead: identical
    estimates and identical ledgers to a bare disk.
    """

    dim: int
    memory: int = 10_000
    disk_parameters: DiskParameters = field(default_factory=DiskParameters)
    c_data: int | None = None
    c_dir: int | None = None
    config: BulkLoadConfig | None = None
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    fault_rate: float = 0.0
    torn_write_rate: float = 0.0
    latency_spike_rate: float = 0.0
    silent_corruption_rate: float = 0.0
    #: pages rot on the platter: a persistent seed-deterministic bit
    #: flip, surviving retries and reboots, healed only by a rewrite
    at_rest_corruption_rate: float = 0.0
    fault_seed: int = 0
    #: keep this many copies of every page (1 = just the primary);
    #: extra copies feed repair-on-read and are billed separately as
    #: ``redundancy_cost``
    replication_factor: int = 1
    #: keep XOR parity stripes as a cheaper single-failure fallback
    parity: bool = False
    #: sweep the file for rot after each successful prediction and
    #: attach the report as ``result.detail["scrub"]``
    scrub: bool = False
    #: verify per-page CRC32 sidecar checksums on every charged read
    verify_checksums: bool = False
    #: simulated crash before the N-th charged disk operation (1-based)
    crash_at: int | None = None
    #: shared circuit breaker threaded into every file this predictor
    #: opens; while open, charged accesses fail fast with
    #: :class:`~repro.errors.CircuitOpenError` instead of burning the
    #: retry budget, and the facade degrades to the disk-free methods
    breaker: CircuitBreaker | None = None

    def __post_init__(self) -> None:
        # Resolve REPRO_KERNEL eagerly so a typo fails at construction
        # with the typed UnknownKernelError, not mid-prediction after a
        # dataset scan; likewise a malformed REPRO_KERNEL_CAP_BYTES,
        # which the on-disk measurement reads whichever kernel counts.
        get_kernel()
        memory_cap_from_env()
        for name, rate in (
            ("fault_rate", self.fault_rate),
            ("torn_write_rate", self.torn_write_rate),
            ("latency_spike_rate", self.latency_spike_rate),
            ("silent_corruption_rate", self.silent_corruption_rate),
            ("at_rest_corruption_rate", self.at_rest_corruption_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise InputValidationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.crash_at is not None and self.crash_at < 1:
            raise InputValidationError(
                f"crash_at is a 1-based charged-op index, got {self.crash_at}"
            )
        if self.replication_factor < 1:
            raise InputValidationError(
                f"replication_factor counts copies including the primary, "
                f"so it must be >= 1, got {self.replication_factor}"
            )
        if self.replication_factor > 1 or self.parity or self.scrub:
            # repair and scrubbing both need the CRC sidecar to tell a
            # clean page from a rotten one; checksums charge no I/O, so
            # forcing them on costs nothing
            self.verify_checksums = True
        default_data, default_dir = page_capacities(
            self.disk_parameters.page_bytes,
            self.dim,
            bytes_per_value=self.disk_parameters.bytes_per_value,
        )
        if self.c_data is None:
            self.c_data = default_data
        if self.c_dir is None:
            self.c_dir = default_dir

    # ------------------------------------------------------------------

    def topology(self, n_points: int) -> Topology:
        return Topology(n_points=n_points, c_data=self.c_data, c_dir=self.c_dir)

    def _validated(
        self, points: np.ndarray, workload: KNNWorkload | RangeWorkload | None = None
    ) -> np.ndarray:
        """``validate_points(points)``, also rejecting any disagreement
        between the points', this predictor's and the workload's
        dimensionality -- a kernel fed mismatched dimensions either
        ignores the extra ones or fails with a raw broadcast error."""
        points = validate_points(points)
        dims = {"points": points.shape[1], "predictor dim": self.dim}
        if workload is not None:
            dims["workload"] = workload.dim
        if len(set(dims.values())) > 1:
            raise InputValidationError(
                "dimensionality mismatch: "
                + ", ".join(f"{name} {dim}-d" for name, dim in dims.items())
            )
        return points

    def make_workload(
        self, points: np.ndarray, n_queries: int, k: int, seed: int = 0
    ) -> KNNWorkload:
        """The paper's density-biased k-NN workload, seeded."""
        points = self._validated(points)
        rng = np.random.default_rng(seed)
        return density_biased_knn_workload(points, n_queries, k, rng)

    def new_file(self, points: np.ndarray) -> PointFile:
        """The dataset on a fresh simulated disk (I/O counters at zero),
        behind the configured fault injector when any rate is set."""
        disk = SimulatedDisk(self.disk_parameters)
        device = disk
        if (self.fault_rate or self.torn_write_rate
                or self.latency_spike_rate or self.silent_corruption_rate
                or self.at_rest_corruption_rate
                or self.crash_at is not None):
            device = FaultInjector(
                disk,
                read_fault_rate=self.fault_rate,
                torn_write_rate=self.torn_write_rate,
                latency_spike_rate=self.latency_spike_rate,
                silent_corruption_rate=self.silent_corruption_rate,
                at_rest_corruption_rate=self.at_rest_corruption_rate,
                seed=self.fault_seed,
                crash_at=self.crash_at,
            )
        return PointFile.from_points(
            device, points, retry=self.retry,
            verify_checksums=self.verify_checksums,
            breaker=self.breaker,
            redundancy=self._redundancy_policy(),
        )

    def _redundancy_policy(self) -> RedundancyPolicy | None:
        """The configured redundancy, or ``None`` when it is unarmed
        (``None`` keeps the file byte-for-byte on the PR 3 cost path)."""
        if self.replication_factor <= 1 and not self.parity:
            return None
        return RedundancyPolicy(
            replication_factor=self.replication_factor, parity=self.parity
        )

    # ------------------------------------------------------------------

    def predict(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str = "resampled",
        h_upper: int | None = None,
        sampling_fraction: float | None = None,
        seed: int = 0,
        degrade: bool = True,
        budget: Budget | None = None,
        hedge: bool = False,
        clock=None,
    ) -> PredictionResult:
        """Predict mean leaf accesses with the chosen method.

        ``method`` is ``"mini"`` (Section 3, needs ``sampling_fraction``),
        ``"cutoff"`` or ``"resampled"`` (Section 4, use ``memory`` and
        optionally ``h_upper``).  The phased methods run against a fresh
        simulated disk so ``result.io_cost`` is exactly their own I/O.

        If the chosen method dies on an unrecoverable disk fault (or any
        other :class:`~repro.errors.ReproError`) mid-phase, the facade
        falls back along ``resampled -> cutoff -> mini -> closed-form
        baseline``, returns the first estimate that completes, annotated
        with ``result.detail["degradation"]`` (methods attempted, faults
        seen, retries spent, method actually used), and warns with
        :class:`~repro.errors.DegradedResultWarning`.  Pass
        ``degrade=False`` to let the original failure propagate instead.

        ``budget`` makes the prediction *anytime*: a
        :class:`~repro.runtime.governor.Governor` enforces the charged
        I/O-op, wall-clock, and sample-byte limits across every fallback
        attempt, downgrading mid-flight (budget trips degrade the same
        way faults do) and annotating the result with
        ``result.detail["budget"]`` (spend, remaining, per-phase
        breakdown, ``within_budget``).  An ample budget is guaranteed
        zero-interference: bit-identical estimate, identical ledger.
        With ``degrade=False`` a tripped limit raises
        :class:`~repro.errors.BudgetExceededError` /
        :class:`~repro.errors.DeadlineExceededError` instead.

        ``hedge=True`` (requires ``budget.max_seconds``) races the
        governed chain against a cheap concurrent estimate (cutoff on
        its own fresh disk, closed-form if that fails) and serves
        whichever lands inside the deadline, recording which path won in
        ``result.detail["hedge"]``.

        ``clock`` overrides the governor's monotonic clock (a
        zero-argument callable returning seconds).  Tests drive
        deadlines deterministically with a fake clock instead of
        sleeping for real time; production callers leave it ``None``
        for :func:`time.monotonic`.  Ignored when no budget is set
        (there is no governor to time) and under ``hedge=True`` (the
        hedge race is genuinely concurrent, so its deadline must be
        real).
        """
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; options: {_METHODS}")
        points = self._validated(points, workload)
        if hedge:
            if budget is None or budget.max_seconds is None:
                raise InputValidationError(
                    "hedge=True needs a budget with max_seconds set: the "
                    "deadline is what decides which path gets served"
                )
            return self._predict_hedged(
                points, workload, method=method, h_upper=h_upper,
                sampling_fraction=sampling_fraction, seed=seed,
                degrade=degrade, budget=budget,
            )
        return self._predict_governed(
            points, workload, method=method, h_upper=h_upper,
            sampling_fraction=sampling_fraction, seed=seed,
            degrade=degrade, budget=budget, clock=clock,
        )

    def predict_radius_grid(
        self,
        points: np.ndarray,
        workload: KNNWorkload,
        radii_grid: np.ndarray,
        *,
        sampling_fraction: float | None = None,
        seed: int = 0,
    ) -> list[PredictionResult]:
        """Probe one fitted geometry at many radius rows, fused.

        Fits the in-memory mini model once (identical sampling and
        compensation to ``predict(method="mini", seed=seed)``) and
        answers every row of ``radii_grid`` -- ``(g, q)`` per-query
        radii, or ``(g,)`` constant radii -- through a single
        ``count_grid`` dispatch instead of ``g`` separate kernel calls.
        Result ``r`` is bit-identical to
        ``predict(points, workload.with_radii(radii_grid[r]),
        method="mini", seed=seed)``: the fused-grid contract guarantees
        each row equals its stand-alone ``count_knn``.
        """
        if not isinstance(workload, KNNWorkload):
            raise InputValidationError(
                "predict_radius_grid needs a KNNWorkload: a radius grid "
                "re-probes the same query spheres at different radii"
            )
        points = self._validated(points, workload)
        rng = np.random.default_rng(seed)
        fraction = (sampling_fraction if sampling_fraction is not None
                    else min(1.0, self.memory / points.shape[0]))
        model = MiniIndexModel(self.c_data, self.c_dir, config=self.config)
        geometry, detail = model.fit_geometry(points, fraction, rng)
        detail["kernel"] = get_kernel().name
        grid = count_grid_accesses(geometry, workload, radii_grid)
        return [
            PredictionResult(
                per_query=grid[r],
                detail={**detail, "grid_row": r, "grid_rows": grid.shape[0]},
            )
            for r in range(grid.shape[0])
        ]

    def _predict_governed(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str,
        h_upper: int | None,
        sampling_fraction: float | None,
        seed: int,
        degrade: bool,
        budget: Budget | None,
        clock=None,
    ) -> PredictionResult:
        """The degradation chain, optionally under one governed budget."""
        governor: Governor | None = None
        if budget is not None and not budget.unlimited:
            if clock is not None:
                governor = Governor(budget, clock=clock)
            else:
                governor = Governor(budget)

        chain = _FALLBACK_CHAIN[_FALLBACK_CHAIN.index(method):]
        attempts: list[dict] = []
        faults_before = retries_before = 0
        last_error: ReproError | None = None
        for fallback in chain:
            file: PointFile | None = None
            if governor is not None and fallback != "baseline":
                # admission control: skip an attempt whose cheapest
                # possible execution already cannot fit, instead of
                # burning a scan on it -- the mid-flight downgrade
                try:
                    governor.require_ops(
                        self._min_ops(fallback, points.shape[0], workload),
                        phase=f"admit:{fallback}",
                    )
                    governor.check_deadline(f"admit:{fallback}")
                except BudgetExceededError as error:
                    if not degrade:
                        raise
                    attempts.append({
                        "method": fallback,
                        "error": f"{type(error).__name__}: {error}",
                        "faults_seen": 0,
                        "retries": 0,
                        "cause": "budget",
                        "skipped": True,
                    })
                    last_error = error
                    continue
            try:
                if fallback in ("cutoff", "resampled"):
                    file = self.new_file(points)
                result = self._predict_once(
                    fallback, points, file, workload,
                    h_upper=h_upper, sampling_fraction=sampling_fraction,
                    seed=seed, governor=governor,
                )
            except ReproError as error:
                spent = file.disk.cost if file is not None else IOCost()
                if governor is not None:
                    governor.observe(f"{fallback}:aborted", spent)
                    governor.end_attempt()
                # bad caller input is a bug to surface, not a disk fault
                # to degrade around -- and a crash is the *process*
                # dying, so there is nobody left to run a fallback; the
                # caller must recover/resume and call again
                if (not degrade
                        or isinstance(error, (InputValidationError,
                                              CrashPoint))):
                    raise
                if isinstance(error, BudgetExceededError):
                    cause = "budget"
                elif isinstance(error, UnrecoverableCorruptionError):
                    cause = "media"
                else:
                    cause = "fault"
                attempts.append({
                    "method": fallback,
                    "error": f"{type(error).__name__}: {error}",
                    "faults_seen": spent.faults_seen,
                    "retries": spent.retries,
                    "cause": cause,
                })
                faults_before += spent.faults_seen
                retries_before += spent.retries
                last_error = error
                continue
            if governor is not None:
                governor.observe(fallback, result.io_cost)
                governor.end_attempt()
            if file is not None and file.redundancy is not None:
                rc = file.redundancy.redundancy_cost
                result.detail["redundancy"] = {
                    "replication_factor": self.replication_factor,
                    "parity": self.parity,
                    "repairs": file.redundancy.repairs,
                    "redundancy_seeks": rc.seeks,
                    "redundancy_transfers": rc.transfers,
                }
            if self.scrub and file is not None:
                report = file.scrub(governor=governor)
                if governor is not None:
                    governor.end_attempt()
                result.detail["scrub"] = report.as_dict()
            self._annotate_degradation(
                result, method, fallback, attempts,
                faults_before, retries_before,
            )
            if governor is not None:
                result.detail["budget"] = governor.report()
            return result
        raise PredictionError(
            f"every prediction method failed "
            f"({', '.join(a['method'] for a in attempts)}); last error: "
            f"{attempts[-1]['error'] if attempts else 'none'}"
        ) from last_error

    def _predict_hedged(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        *,
        method: str,
        h_upper: int | None,
        sampling_fraction: float | None,
        seed: int,
        degrade: bool,
        budget: Budget,
    ) -> PredictionResult:
        """Race the governed chain against a cheap concurrent estimate."""
        def primary() -> PredictionResult:
            return self._predict_governed(
                points, workload, method=method, h_upper=h_upper,
                sampling_fraction=sampling_fraction, seed=seed,
                degrade=degrade, budget=budget,
            )

        def cheap() -> PredictionResult:
            return self._hedge_estimate(
                points, workload, h_upper=h_upper, seed=seed
            )

        outcome = run_hedged(primary, cheap, deadline_s=budget.max_seconds)
        result = outcome.result
        result.detail["hedge"] = {
            "winner": outcome.winner,
            "elapsed_s": outcome.elapsed_s,
            "primary_completed": outcome.primary_completed,
            "hedge_completed": outcome.hedge_completed,
        }
        return result

    def _hedge_estimate(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
        *,
        h_upper: int | None,
        seed: int,
    ) -> PredictionResult:
        """The cheap path of a hedged prediction: cutoff on its own
        fresh disk (the two paths' ledgers never mix), closed-form if
        even that fails.  Ungoverned -- the deadline in
        :func:`~repro.runtime.hedge.run_hedged` bounds it."""
        try:
            result = self._predict_once(
                "cutoff", points, self.new_file(points), workload,
                h_upper=h_upper, sampling_fraction=None, seed=seed,
                governor=None,
            )
            result.detail["hedge_method"] = "cutoff"
        except ReproError:
            result = self._closed_form_baseline(points, workload)
            result.detail["hedge_method"] = "baseline"
        return result

    def _min_ops(
        self,
        method: str,
        n_points: int,
        workload: KNNWorkload | RangeWorkload,
    ) -> int:
        """Conservative lower bound on a method's charged operations.

        The phased methods must read each query point and scan the whole
        file at least once; everything else (spills, lower builds) only
        adds to it.  The in-memory methods charge nothing."""
        if method not in ("cutoff", "resampled"):
            return 0
        pages = -(-n_points // self.disk_parameters.points_per_page(self.dim))
        queries = (len(workload.query_ids)
                   if isinstance(workload, KNNWorkload) else 0)
        return queries + pages + 1

    def _predict_once(
        self,
        method: str,
        points: np.ndarray,
        file: PointFile | None,
        workload: KNNWorkload | RangeWorkload,
        *,
        h_upper: int | None,
        sampling_fraction: float | None,
        seed: int,
        governor: Governor | None = None,
    ) -> PredictionResult:
        """One attempt of one method, on a fresh rng seeded identically
        so a fallback run is bit-identical to calling it directly."""
        rng = np.random.default_rng(seed)
        if method == "mini":
            fraction = sampling_fraction if sampling_fraction is not None else min(
                1.0, self.memory / points.shape[0]
            )
            if governor is not None:
                governor.admit_sample(
                    max(1, int(np.ceil(points.shape[0] * fraction))),
                    points.shape[1], phase="mini:sample",
                )
            model = MiniIndexModel(self.c_data, self.c_dir, config=self.config)
            return model.predict(points, workload, fraction, rng)
        if method == "cutoff":
            cutoff = CutoffModel(
                self.c_data, self.c_dir, self.memory, h_upper=h_upper,
                config=self.config,
            )
            return cutoff.predict(file, workload, rng, governor=governor)
        if method == "resampled":
            resampled = ResampledModel(
                self.c_data, self.c_dir, self.memory, h_upper=h_upper,
                config=self.config,
            )
            return resampled.predict(file, workload, rng, governor=governor)
        if method == "baseline":
            return self._closed_form_baseline(points, workload)
        raise ValueError(f"unknown method {method!r}")

    def _closed_form_baseline(
        self,
        points: np.ndarray,
        workload: KNNWorkload | RangeWorkload,
    ) -> PredictionResult:
        """Last-resort estimate from the uniform closed-form model.

        Touches no disk at all, so no fault can reach it; accuracy is
        whatever uniformity buys (Section 5.3's baseline), which is why
        it sits at the very end of the degradation chain.
        """
        n, dim = points.shape
        topology = self.topology(n)
        try:
            model = UniformCostModel(n, dim, topology.c_eff_data)
            if isinstance(workload, KNNWorkload):
                value = model.predict_knn_accesses(workload.k)
                per_query = np.full(workload.n_queries, value)
            else:
                sides = (workload.upper - workload.lower).mean(axis=1)
                per_query = np.array([
                    model.predict_range_accesses(float(side)) for side in sides
                ])
        except ValueError as error:
            raise PredictionError(
                f"closed-form baseline infeasible: {error}"
            ) from error
        return PredictionResult(
            per_query=per_query,
            detail={"baseline": "uniform-closed-form"},
        )

    @staticmethod
    def _annotate_degradation(
        result: PredictionResult,
        method_requested: str,
        method_used: str,
        attempts: list[dict],
        faults_before: int,
        retries_before: int,
    ) -> None:
        """Attach the degradation record when anything noteworthy
        happened: a fallback was taken, or faults/retries were absorbed
        on the way to a successful estimate."""
        absorbed_faults = faults_before + result.io_cost.faults_seen
        absorbed_retries = retries_before + result.io_cost.retries
        if not attempts and not absorbed_faults and not absorbed_retries:
            return
        result.detail["degradation"] = {
            "method_requested": method_requested,
            "method_used": method_used,
            "attempts": list(attempts),
            "faults_seen": absorbed_faults,
            "retries": absorbed_retries,
        }
        if method_used != method_requested:
            warnings.warn(
                f"prediction degraded from {method_requested!r} to "
                f"{method_used!r} after "
                f"{len(attempts)} failed attempt"
                f"{'s' if len(attempts) != 1 else ''} "
                f"({absorbed_faults} faults, {absorbed_retries} retries)",
                DegradedResultWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------

    def build_ondisk(self, points: np.ndarray) -> OnDiskIndex:
        """Bulk load the real index on a fresh simulated disk."""
        builder = OnDiskBuilder(
            self.c_data, self.c_dir, self.memory, config=self.config
        )
        return builder.build(self.new_file(self._validated(points)))

    def measure(
        self,
        points: np.ndarray,
        workload: KNNWorkload,
        *,
        index: OnDiskIndex | None = None,
    ) -> MeasurementResult:
        """Measured ground truth: build (or reuse) the on-disk index and
        run the workload's queries on it.  The returned ``io_cost``
        covers the queries only; ``index.build_cost`` has the build."""
        points = self._validated(points, workload)
        if index is None:
            index = self.build_ondisk(points)
        return measure_knn(index, workload)
