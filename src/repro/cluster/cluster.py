"""The sharded prediction cluster: partition, tune, replicate, route.

:class:`PredictionCluster` composes every resilience layer the repo has
built so far into one distributed-serving front end:

1. **partition** -- the tuning workload is split by similarity
   (seeded k-means, :mod:`.partition`) and the *dataset* is split by
   the same centroids, so each shard serves the queries nearest its own
   data region;
2. **tune** -- each shard's index configuration comes from running the
   page-size tuning application on that shard's data and workload slice
   (:mod:`.tuning`), with the sampling predictor as the cost oracle --
   the cluster-then-tune-then-reroute loop;
3. **replicate** -- each shard is placed on ``replication`` replicas
   (ring placement), every owner registering the *identical* tuned
   configuration and fit seed, so the owners' warm-start artifacts are
   bit-identical and any owner can serve any of the shard's requests
   with a bit-identical answer;
4. **route** -- a failure-aware :class:`~.routing.Router` picks the
   cheapest healthy owner per request and fails over (breakers,
   hedging, typed unavailability, closed-form degradation).

Replicas double as each other's redundancy: :meth:`anti_entropy`
verifies every owner's on-disk artifact and heals a corrupt or
version-skewed copy *bit-identically from a peer's bytes* (adoption),
falling back to a single rebuild-from-data only when every copy of a
shard is bad -- PR 4's repair-on-read semantics lifted to the cluster.

**Elastic topology.**  The topology set at construction is a starting
point, not a contract: a :class:`~.elasticity.TopologyManager`
(``self.topology``) can add and remove replicas, split a shard whose
tuned cost diverges from its siblings, merge a sibling pair stranded
cheap by load decay, and re-tune a shard whose live queries have
drifted from its centroid -- each one plan, one placement step and
one epoch fence (see :mod:`.elasticity`).  A
:class:`~.controller.TopologyController`
(:meth:`start_controller`) closes the policy loop autonomously, with
hysteresis so the topology never flaps.  Two bookkeeping rules
make that safe: **shard ids are never reused** (successor shards mint
fresh ids from ``_next_shard_id`` when their tuning starts, and a
refused surgery burns them, so no successor can collide with an
earlier shard's artifact key or ledger history -- the partitioner's
centroid *rows* map to shard ids through ``_row_to_shard``), and
**nothing is deleted from the books** (removed replicas move to
``retired_replicas``, replaced shards to ``retired_shards``, and
:meth:`charged_ops` sums across all of them).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..baselines.uniform_model import UniformCostModel
from ..core.counting import PredictionResult
from ..core.topology import Topology
from ..disk.accounting import DiskParameters
from ..errors import (
    ArtifactCorruptError,
    InputValidationError,
    PredictionError,
    validate_points,
)
from ..runtime.budget import Budget
from ..service.tenancy import TenantQuota
from ..workload.queries import KNNWorkload
from .controller import TopologyController
from .elasticity import TopologyManager
from .partition import WorkloadPartition, partition_workload
from .replicas import Replica, shard_tenant
from .routing import ClusterResponse, Router, RoutingTable
from .tuning import DEFAULT_TUNING_PAGE_SIZES, ShardConfig, tune_shard

__all__ = ["ClusterPrediction", "PredictionCluster"]

#: a shard whose data slice is thinner than this serves the full
#: dataset instead -- a geometry cannot be fitted on a sliver
_MIN_SHARD_POINTS = 8


class ClusterPrediction:
    """A full-workload prediction merged back from per-shard verdicts.

    ``responses`` is one :class:`~.routing.ClusterResponse` per
    non-empty shard; ``per_query`` is the merged estimate in original
    query order with ``NaN`` at positions whose shard returned an error
    verdict (``complete`` is ``False`` then).
    """

    def __init__(self, per_query: np.ndarray,
                 responses: list[ClusterResponse]):
        self.per_query = per_query
        self.responses = responses

    @property
    def complete(self) -> bool:
        return bool(np.all(np.isfinite(self.per_query)))

    @property
    def mean_accesses(self) -> float:
        return float(np.mean(self.per_query))


class PredictionCluster:
    """N replicas, similarity-sharded and failure-aware routed."""

    def __init__(
        self,
        data: np.ndarray,
        tuning_workload: KNNWorkload,
        *,
        artifact_root: str | Path,
        n_shards: int = 2,
        n_replicas: int = 3,
        replication: int = 2,
        workers_per_replica: int = 2,
        max_queue: int = 32,
        memory: int = 2_000,
        fit_seed: int = 0,
        seed: int = 0,
        page_sizes: tuple[int, ...] = DEFAULT_TUNING_PAGE_SIZES,
        tuning_method: str = "cutoff",
        base_disk: DiskParameters | None = None,
        quota: TenantQuota | None = None,
        latency_factors: dict[str, float] | None = None,
        hedge_after_s: float = 0.05,
        request_timeout_s: float = 30.0,
        breaker_cooldown_s: float = 0.2,
        split_when: float = 3.0,
        merge_when: float = 1.5,
        drift_threshold: float = 0.35,
        min_drift_observations: int = 24,
        reorg_budget: Budget | None = None,
        coalesce: bool = False,
        coalesce_window_ms: float = 2.0,
    ):
        if n_replicas < 1:
            raise InputValidationError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        if not 1 <= replication <= n_replicas:
            raise InputValidationError(
                f"replication must be in [1, n_replicas={n_replicas}], "
                f"got {replication}"
            )
        data = validate_points(data)
        self.data = data
        self.replication = replication
        self.fit_seed = fit_seed
        # Tuning inputs kept for elastic reorganization: a split or
        # re-tune re-runs the same tune_shard call on a new slice.
        self.seed = seed
        self.memory = memory
        self.page_sizes = page_sizes
        self.tuning_method = tuning_method
        self.base_disk = base_disk
        self.tuning_workload = tuning_workload

        # 1. partition: queries by similarity, data by the same centroids
        self.partition: WorkloadPartition = partition_workload(
            tuning_workload, n_shards, seed=seed
        )
        #: centroid row -> shard id.  Rows and ids coincide at
        #: construction; splits and re-tunes mint fresh ids (never
        #: reused) while the partitioner keeps addressing rows.
        self._row_to_shard: list[int] = list(range(n_shards))
        self._next_shard_id = n_shards
        self.retired_replicas: dict[str, Replica] = {}
        self.retired_shards: dict[int, dict] = {}
        data_shards = self.partition.shard_of(data)
        self.shard_points: dict[int, np.ndarray] = {}
        #: global dataset index -> this shard's local row (query ids of
        #: the paper's workloads index the dataset; the phased methods
        #: read query points by id from the shard's own file, so ids
        #: must be re-anchored to the slice)
        self._local_ids: dict[int, dict[int, int]] = {}
        for shard in range(n_shards):
            idx = np.flatnonzero(data_shards == shard)
            if idx.size < _MIN_SHARD_POINTS:
                # a sliver cannot carry a fitted geometry: serve the
                # full dataset (ids then map to themselves)
                self.shard_points[shard] = data
                self._local_ids[shard] = {
                    i: i for i in range(data.shape[0])
                }
            else:
                self.shard_points[shard] = data[idx]
                self._local_ids[shard] = {
                    int(g): local for local, g in enumerate(idx)
                }

        # 2. tune: each shard's configuration from its own slices
        self.shard_configs: dict[int, ShardConfig] = {}
        #: the remapped tuning slice each shard was tuned on, kept so a
        #: split can re-partition exactly what construction saw
        self.tuning_slices: dict[int, KNNWorkload] = {}
        for shard in range(n_shards):
            slice_workload = self._remap(
                shard, self.partition.slice(tuning_workload, shard)
            )
            if slice_workload.n_queries == 0:  # unreachable post-fit
                raise PredictionError(
                    f"shard {shard} received no tuning queries"
                )
            self.tuning_slices[shard] = slice_workload
            self.shard_configs[shard] = tune_shard(
                shard, self.shard_points[shard], slice_workload,
                memory=memory, page_sizes=page_sizes,
                base_disk=base_disk, method=tuning_method,
                seed=seed,
            )

        # 3. replicate: ring placement, identical config per owner
        self._artifact_root = Path(artifact_root)
        # coalescing is replica-side: the router already forwards one
        # shard-local multi-query batch per leg, so fusing happens in
        # each replica's service, leaving hedging and epoch fencing
        # untouched
        self._replica_kwargs = dict(
            workers=workers_per_replica, max_queue=max_queue,
            memory=memory, quota=quota,
            coalesce=coalesce, coalesce_window_ms=coalesce_window_ms,
        )
        factors = latency_factors or {}
        self.replicas: dict[str, Replica] = {}
        names = [f"replica-{i}" for i in range(n_replicas)]
        for name in names:
            self.replicas[name] = self._new_replica(
                name, factors.get(name, 1.0)
            )
        owners: dict[int, tuple[str, ...]] = {}
        costs: dict[int, dict[str, float]] = {}
        for shard in range(n_shards):
            placed = [names[(shard + j) % n_replicas]
                      for j in range(replication)]
            config = self.shard_configs[shard]
            for name in placed:
                self.replicas[name].register_shard(
                    shard, self.shard_points[shard], config,
                    fit_seed=fit_seed,
                )
            owners[shard], costs[shard] = self._rank(
                config.predicted_seconds, placed
            )

        # 4. route
        self.router = Router(
            self.replicas,
            RoutingTable(version=1, epoch=1, owners=owners, costs=costs),
            hedge_after_s=hedge_after_s,
            request_timeout_s=request_timeout_s,
            degraded_fallback=self._closed_form,
            breaker_cooldown_s=breaker_cooldown_s,
        )

        # 5. elasticity: runtime topology surgery behind the epoch fence
        self.topology = TopologyManager(
            self,
            split_when=split_when,
            merge_when=merge_when,
            drift_threshold=drift_threshold,
            min_drift_observations=min_drift_observations,
            reorg_budget=reorg_budget,
        )
        #: the autonomous policy loop, attached on demand
        self.controller: TopologyController | None = None

    def _new_replica(self, name: str, latency_factor: float = 1.0
                     ) -> Replica:
        """Build one replica under this cluster's uniform service
        parameters (scale-out uses the same constructor construction
        did, so a scaled-out replica differs only by latency factor)."""
        return Replica(
            name,
            artifact_dir=self._artifact_root / name,
            latency_factor=latency_factor,
            **self._replica_kwargs,
        )

    def _rank(
        self, seconds: float, names, cost: dict[str, float] | None = None
    ) -> tuple[tuple[str, ...], dict[str, float]]:
        """One shard's routing entry: ``names`` priced at the shard's
        tuned ``seconds`` times each replica's latency factor, merged
        over the entry's existing ``cost``, owners cheapest first (name
        breaks ties)."""
        cost = dict(cost or {})
        for name in names:
            cost[name] = seconds * self.replicas[name].latency_factor
        return tuple(sorted(cost, key=lambda n: (cost[n], n))), cost

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    def active_shards(self) -> list[int]:
        """Shard ids currently routable (retired ids excluded)."""
        return sorted(self._row_to_shard)

    def _row_of(self, shard: int) -> int:
        """The partitioner's centroid row backing an active shard id."""
        try:
            return self._row_to_shard.index(shard)
        except ValueError:
            raise InputValidationError(
                f"shard {shard} is not active; active shards are "
                f"{self.active_shards()}"
            ) from None

    def shard_of(self, queries: np.ndarray) -> np.ndarray:
        """Shard *ids* (not centroid rows) for a batch of queries."""
        rows = self.partition.shard_of(queries)
        return np.asarray(self._row_to_shard, dtype=np.int64)[rows]

    def request(
        self,
        shard: int,
        workload: KNNWorkload,
        *,
        method: str = "warm",
        seed: int = 0,
        degrade: bool = True,
        epoch: int | None = None,
    ) -> ClusterResponse:
        """Route one per-shard request through the failure-aware path.

        ``epoch`` pins the dispatch to a routing epoch the caller
        captured earlier; a topology change in between surfaces as a
        typed :class:`~repro.errors.StaleRoutingEpochError` (refresh
        and retry).  Served queries feed the drift detector.
        """
        response = self.router.dispatch(
            shard, workload, method=method, seed=seed, degrade=degrade,
            epoch=epoch,
        )
        self.topology.drift.observe(shard, workload.queries)
        return response

    def predict(
        self,
        workload: KNNWorkload,
        *,
        method: str = "warm",
        seed: int = 0,
        degrade: bool = True,
    ) -> ClusterPrediction:
        """Predict a whole workload: split by shard, route, merge.

        Per-shard sub-requests are dispatched in cost order with full
        failover semantics; the merged estimate restores original query
        order.  A shard whose verdict is an error leaves ``NaN`` at its
        positions rather than poisoning the rest.
        """
        merged = np.full(workload.n_queries, np.nan)
        responses: list[ClusterResponse] = []
        for row, idx, sub in self.partition.split(workload):
            shard = self._row_to_shard[row]
            if method != "warm":
                # phased methods read query points by id from the
                # shard's file; warm counting never touches the ids
                sub = self._remap(shard, sub)
            response = self.request(
                shard, sub, method=method, seed=seed, degrade=degrade
            )
            responses.append(response)
            if response.result is not None:
                merged[idx] = response.result.per_query
        return ClusterPrediction(merged, responses)

    def _remap(self, shard: int, workload: KNNWorkload) -> KNNWorkload:
        """Re-anchor a sub-workload's query ids to the shard's slice.

        Workload queries are dataset points, and a point's nearest
        centroid is the same whether it arrives as data or as a query
        -- so every query routed to a shard has its point in that
        shard's slice.  A query id outside the cluster's dataset means
        the caller built the workload elsewhere; full-method requests
        cannot serve it, so that is a typed input error.
        """
        mapping = self._local_ids[shard]
        try:
            local = np.fromiter(
                (mapping[int(g)] for g in workload.query_ids),
                dtype=np.int64, count=workload.n_queries,
            )
        except KeyError as missing:
            raise InputValidationError(
                f"query id {missing.args[0]} is not a point of shard "
                f"{shard}'s data slice; full-method cluster predictions "
                f"need workloads drawn from the cluster's own dataset"
            ) from None
        return KNNWorkload(
            k=workload.k, query_ids=local,
            queries=workload.queries, radii=workload.radii,
        )

    def _closed_form(
        self, shard: int, workload: KNNWorkload
    ) -> PredictionResult:
        """The degraded answer when every owner of a shard is down:
        the uniform closed-form baseline over the shard's own data and
        tuned capacities -- no disk, no replica, cannot fail with them."""
        config = self.shard_configs[shard]
        points = self.shard_points[shard]
        n, dim = points.shape
        topology = Topology(
            n_points=n, c_data=config.c_data, c_dir=config.c_dir
        )
        model = UniformCostModel(n, dim, topology.c_eff_data)
        value = model.predict_knn_accesses(workload.k)
        return PredictionResult(
            per_query=np.full(workload.n_queries, value),
            detail={"baseline": "uniform-closed-form", "shard": shard},
        )

    # ------------------------------------------------------------------
    # Failure lifecycle
    # ------------------------------------------------------------------

    def kill_replica(self, name: str) -> None:
        self._replica(name).kill()

    def restart_replica(self, name: str) -> None:
        """Restart a killed replica and give it a clean routing slate.

        The breaker reset mirrors an operator bringing a node back:
        accumulated failure history belongs to the dead incarnation.
        """
        self._replica(name).restart()
        self.router.reset_breakers(name)

    # Elasticity entry points (delegate to the topology manager) --------

    def add_replica(self, name: str | None = None, **kwargs) -> dict:
        """Scale out: warm a new replica from peers, fence it in."""
        return self.topology.add_replica(name, **kwargs)

    def remove_replica(self, name: str) -> dict:
        """Scale in: fence the replica out, drain, fold its books."""
        return self.topology.remove_replica(name)

    def split_shard(self, shard: int) -> tuple[int, int]:
        """Split one shard in two freshly tuned successors."""
        return self.topology.split_shard(shard)

    def re_tune_shard(self, shard: int, **kwargs) -> int:
        """Replace one shard with a freshly tuned successor."""
        return self.topology.re_tune_shard(shard, **kwargs)

    def merge_shards(self, a: int, b: int) -> int:
        """Merge two shards into one freshly tuned successor."""
        return self.topology.merge_shards(a, b)

    def start_controller(
        self, *, autostart: bool = True, **kwargs
    ) -> TopologyController:
        """Attach the autonomous topology controller (and start it).

        ``autostart=False`` attaches without spawning the background
        thread -- callers then drive :meth:`TopologyController.tick`
        themselves (tests and the chaos storm do, for determinism).
        Keyword arguments go to :class:`TopologyController` --
        ``interval_s``, ``dwell_epochs``, ``cooldown_epochs``, and an
        injectable ``clock``.
        """
        if self.controller is not None and self.controller.running:
            raise InputValidationError(
                "a topology controller is already running; stop it "
                "before attaching a new one"
            )
        self.controller = TopologyController(self, **kwargs)
        if autostart:
            self.controller.start()
        return self.controller

    def stop_controller(self) -> None:
        """Stop the controller's background loop, if one is attached."""
        if self.controller is not None:
            self.controller.stop()

    def _replica(self, name: str) -> Replica:
        try:
            return self.replicas[name]
        except KeyError:
            raise InputValidationError(
                f"unknown replica {name!r}; cluster has "
                f"{sorted(self.replicas)}"
            ) from None

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------

    def anti_entropy(self) -> dict:
        """Verify every owner's artifact copy; heal divergent ones.

        For each shard, every owner's on-disk artifact is fully
        verified (CRCs, version, framing).  A bad copy is healed by
        *adopting the first verified peer's bytes* -- artifacts of the
        same fit are bit-identical, so adoption restores the copy
        without touching the data.  Only when **every** copy of a shard
        is bad does one owner rebuild from data (one fit), and the
        rebuilt bytes then propagate to the other owners by adoption.
        Live tenants' warm models are refreshed from the healed
        artifacts, so serving picks the heal up immediately.

        Returns a report: per shard, which owners verified, which were
        healed from which donor, and whether a data rebuild was needed.
        """
        report: dict[int, dict] = {}
        for shard, owner_names in sorted(self.router.table.owners.items()):
            key = shard_tenant(shard)
            verified: list[str] = []
            corrupt: list[tuple[str, str]] = []
            for name in owner_names:
                replica = self.replicas[name]
                store = replica.service.store
                try:
                    store.verify(key)
                    verified.append(name)
                except ArtifactCorruptError as error:
                    corrupt.append((name, error.reason))
            healed: list[dict] = []
            rebuilt_by: str | None = None
            if corrupt:
                if verified:
                    donor = verified[0]
                else:
                    # every copy is bad: one owner rebuilds from data...
                    donor, reason = corrupt[0]
                    rebuilt = self._rebuild(donor, shard)
                    self.replicas[donor].adopt_model(shard, rebuilt)
                    rebuilt_by = donor
                    healed.append({
                        "replica": donor, "via": "rebuild",
                        "reason": reason,
                    })
                    corrupt = corrupt[1:]
                # ...and everyone else adopts the donor's bytes.
                donor_bytes = (
                    self.replicas[donor].artifact_path(shard).read_bytes()
                )
                for name, reason in corrupt:
                    replica = self.replicas[name]
                    model = replica.service.store.adopt(key, donor_bytes)
                    replica.adopt_model(shard, model)
                    healed.append({
                        "replica": name, "via": f"peer:{donor}",
                        "reason": reason,
                    })
            report[shard] = {
                "verified": verified,
                "healed": healed,
                "rebuilt": rebuilt_by,
            }
        return report

    def _rebuild(self, name: str, shard: int):
        """One rebuild-from-data through the store's keyed lock (the
        corrupt file triggers the store's rebuilt-and-overwrite path)."""
        replica = self.replicas[name]
        reg = replica._registered[shard]
        config: ShardConfig = reg["config"]
        from ..service.artifacts import fit_model

        def fit():
            return fit_model(
                reg["points"],
                c_data=config.c_data, c_dir=config.c_dir,
                memory=replica.service.memory, seed=reg["fit_seed"],
            )

        return replica.service.store.load_or_fit(shard_tenant(shard), fit)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the controller, drain the router, stop every live
        replica.  Idempotent.  The controller goes first: a surgery
        scheduled after the drain would race the shutdown."""
        self.stop_controller()
        self.router.drain()
        for replica in self.replicas.values():
            if not replica.down:
                replica.service.stop()

    def __enter__(self) -> "PredictionCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def charged_ops(self, shard: int) -> int:
        """All replicas' lifetime charged ops for one shard -- live
        *and* retired replicas, so scale-in never loses a charge."""
        return sum(
            replica.charged_ops(shard)
            for replica in self.replicas.values()
        ) + sum(
            replica.charged_ops(shard)
            for replica in self.retired_replicas.values()
        )

    def metrics(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "replication": self.replication,
            "router": self.router.metrics(),
            "probe": self.router.probe(),
            "table": self.router.table.as_dict(),
            "shards": {
                shard: config.as_dict()
                for shard, config in self.shard_configs.items()
            },
            "replicas": {
                name: replica.metrics()
                for name, replica in self.replicas.items()
            },
            "retired_replicas": {
                name: replica.metrics()
                for name, replica in self.retired_replicas.items()
            },
            "retired_shards": {
                shard: dict(info)
                for shard, info in self.retired_shards.items()
            },
            "topology": self.topology.report(),
            "controller": (
                self.controller.report()
                if self.controller is not None else None
            ),
        }

    # Convenience the chaos harness and tests use -----------------------

    def make_workload(
        self, n_queries: int, k: int, seed: int = 0
    ) -> KNNWorkload:
        """A density-biased workload over the cluster's full dataset."""
        from ..workload.queries import density_biased_knn_workload
        rng = np.random.default_rng(seed)
        return density_biased_knn_workload(self.data, n_queries, k, rng)

    def corrupt_artifact(self, name: str, shard: int) -> None:
        """Flip a byte in one replica's copy of one shard's artifact
        (chaos injection; the anti-entropy pass must catch and heal it)."""
        path = self._replica(name).artifact_path(shard)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

    def wait_idle(self, timeout_s: float = 30.0) -> None:
        """Block until no leg is outstanding (reconciliation barrier)."""
        self.router.drain(timeout_s=timeout_s)

    def uptime(self) -> dict:
        return {
            name: (replica.service.metrics()["uptime_s"]
                   if not replica.down else 0.0)
            for name, replica in self.replicas.items()
        }
