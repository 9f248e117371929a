"""Elastic cluster topology: epoch-fenced scale, split, merge, re-tune.

The paper's predictor is cheap enough to re-run online, so per-shard
predicted cost drives topology decisions -- scale-out/in, splitting a
shard whose tuned cost diverges from its siblings, merging a cheap
pair, re-tuning a shard whose workload drifted -- instead of static
placement.  The five operations of :class:`TopologyManager` are thin
callers of three shared steps:

1. **one plan per shard surgery** -- split, merge and re-tune all pool
   their parents (points stacked, tuning slices concatenated with ids
   offset per parent), carve the pool into children (seeded k-means
   with k=2 for a split, one child otherwise), admit the change against
   a reorg :class:`~repro.runtime.budget.Budget` through a
   :class:`~repro.runtime.governor.Governor` *before* any work (an
   exhausted budget refuses with a typed error, topology untouched),
   then tune each child on its own slice and charge the actual
   ``tuning_io_ops``.  Child ids are minted from ``_next_shard_id``
   when tuning starts and never reused: a surgery refused later burns
   its ids, so a successor can never collide with an earlier
   artifact or ledger under the same key.
2. **one placement step** -- every new copy of a shard (scale-out
   warming, every successor shard) walks its donors for a copy that
   passes verification and adopts those exact bytes, so registration
   is a warm hit; with no verified donor it fits once and each
   registered target donates to the next.  It reports exactly the
   replicas that registered, and successors are routed only to those.
3. **one fence** -- every change publishes a whole new
   :class:`~.routing.RoutingTable` under a strictly larger epoch,
   drains the router (a drained leg has settled its ledger), and only
   then folds the retiring ledgers (a parent shard's on its owners, or
   a removed replica's) -- which is what makes the op books exact
   across the boundary.  In-flight requests admitted under the old
   epoch answer bit-identically against the tenant they captured;
   dispatches pinned to the old epoch are refused with a typed
   :class:`~repro.errors.StaleRoutingEpochError`.

``merge_when < split_when`` is enforced so the two cost detectors leave
a hysteresis band between them, and a merge whose re-tuned cost would
immediately re-trip ``split_when`` is refused before the fence.  A
:class:`DriftDetector` compares live per-shard query centers against
the partitioner's frozen centroids and proposes re-tunes.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter, deque
from typing import TYPE_CHECKING

import numpy as np

from ..disk.accounting import IOCost
from ..errors import (
    ArtifactCorruptError,
    InputValidationError,
    PredictionError,
)
from ..runtime.budget import Budget
from ..runtime.governor import Governor
from ..workload.queries import KNNWorkload, exact_knn_radii
from .partition import WorkloadPartition, _distances_sq, partition_workload
from .replicas import shard_tenant
from .routing import RoutingTable
from .tuning import ShardConfig, tune_shard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import PredictionCluster

__all__ = ["DriftDetector", "DriftProposal", "TopologyManager"]

#: how long a topology change waits for the old epoch's legs to drain
_TOPOLOGY_DRAIN_S = 30.0

#: how many recent query centers the drift detector retains per shard
#: (the re-tune workload is synthesized from these)
_DRIFT_WINDOW = 256

#: recent queries anchored per block when synthesizing a re-tune
#: workload (bounds the block x points x d difference array)
_ANCHOR_BLOCK = 8


@dataclasses.dataclass(frozen=True)
class DriftProposal:
    """One shard whose live queries have walked away from its centroid.

    ``drift`` is the distance between the live query center and the
    partitioner's frozen centroid, normalized by the mean pairwise
    distance between frozen centroids (so the threshold is scale-free).
    """

    shard: int
    drift: float
    observations: int
    action: str = "re-tune"

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "drift": round(self.drift, 4)}


class DriftDetector:
    """Live query centers vs the partitioner's frozen per-shard centers.

    The partition routes a query to its nearest *frozen* centroid; if
    the queries actually arriving at a shard concentrate far from that
    centroid, the shard is serving a workload its configuration was
    never tuned for.  The detector accumulates per-shard running sums
    of observed query centers, reports normalized drift, and proposes a
    re-tune once drift crosses ``threshold`` with at least
    ``min_observations`` queries behind it (a handful of outliers must
    not trigger surgery).  ``freeze`` re-anchors a shard after a
    topology change and clears its observations -- drift is always
    measured against the *current* topology.
    """

    def __init__(self, *, threshold: float = 0.35,
                 min_observations: int = 24):
        if threshold <= 0:
            raise InputValidationError(
                f"drift threshold must be positive, got {threshold}"
            )
        self.threshold = threshold
        self.min_observations = int(min_observations)
        self._frozen: dict[int, np.ndarray] = {}
        self._sums: dict[int, np.ndarray] = {}
        self._counts: Counter = Counter()
        self._recent: dict[int, deque] = {}
        self._scale = 1.0
        self._degenerate = False
        self._lock = threading.Lock()

    def freeze(self, centers: dict[int, np.ndarray]) -> None:
        """(Re-)anchor shards at their frozen centroids.

        Shards present in ``centers`` get the new anchor and a cleared
        observation window; shards absent from ``centers`` but
        previously frozen are dropped (they were retired).
        """
        with self._lock:
            self._frozen = {
                shard: np.asarray(c, dtype=np.float64).copy()
                for shard, c in centers.items()
            }
            for shard in list(self._sums):
                if shard not in self._frozen:
                    del self._sums[shard]
                    del self._recent[shard]
                    del self._counts[shard]
            for shard in centers:
                self._sums[shard] = np.zeros_like(self._frozen[shard])
                self._recent[shard] = deque(maxlen=_DRIFT_WINDOW)
                self._counts[shard] = 0
            anchors = list(self._frozen.values())
            if len(anchors) >= 2:
                stack = np.stack(anchors)
                dist = np.sqrt(_distances_sq(stack, stack))
                off_diag = dist[~np.eye(len(anchors), dtype=bool)]
                mean = float(off_diag.mean())
                # All centers coinciding is a *degenerate* partition:
                # there is no inter-centroid scale to normalize against,
                # so drift is defined as 0.0 (see :meth:`drift`) rather
                # than dividing by zero or an arbitrary unit scale.
                self._degenerate = mean <= 0.0
                self._scale = mean if mean > 0 else 1.0
            else:
                self._degenerate = False
                self._scale = 1.0

    def observe(self, shard: int, queries: np.ndarray) -> None:
        """Fold a request's query centers into the shard's live stats."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        with self._lock:
            if shard not in self._frozen:
                return  # unknown/retired shard: nothing to compare to
            if queries.shape[1] != self._frozen[shard].shape[0]:
                return  # dimensionality mismatch cannot be drift
            self._sums[shard] += queries.sum(axis=0)
            self._counts[shard] += queries.shape[0]
            self._recent[shard].extend(queries)

    def live_center(self, shard: int) -> np.ndarray | None:
        with self._lock:
            count = self._counts.get(shard, 0)
            if count == 0:
                return None
            return self._sums[shard] / count

    def recent_queries(self, shard: int) -> np.ndarray:
        with self._lock:
            window = self._recent.get(shard)
            if not window:
                return np.empty((0, 0))
            return np.stack(list(window))

    def drift(self, shard: int) -> float:
        """Normalized displacement of the live center (0.0 until
        ``min_observations`` queries have been seen)."""
        with self._lock:
            count = self._counts.get(shard, 0)
            if count < self.min_observations:
                return 0.0
            if self._degenerate:
                # Every frozen center coincides: displacement has no
                # scale to be measured against, and a partition whose
                # centroids are identical routes arbitrarily anyway --
                # drift against it is meaningless, explicitly 0.0.
                return 0.0
            live = self._sums[shard] / count
            return float(
                np.linalg.norm(live - self._frozen[shard]) / self._scale
            )

    def proposals(self) -> list[DriftProposal]:
        """Every shard whose drift has crossed the threshold."""
        out = []
        for shard in sorted(self._frozen):
            value = self.drift(shard)
            if value > self.threshold:
                out.append(DriftProposal(
                    shard=shard, drift=value,
                    observations=int(self._counts[shard]),
                ))
        return out

    def report(self) -> dict:
        with self._lock:
            shards = sorted(self._frozen)
        return {
            "threshold": self.threshold,
            "min_observations": self.min_observations,
            "degenerate": self._degenerate,
            "shards": {
                shard: {
                    "observations": int(self._counts.get(shard, 0)),
                    "drift": round(self.drift(shard), 4),
                }
                for shard in shards
            },
        }


@dataclasses.dataclass
class _Child:
    """One successor shard of a surgery plan."""

    points: np.ndarray
    workload: KNNWorkload
    centroid: np.ndarray
    local_ids: dict[int, int]
    shard: int = -1
    config: ShardConfig | None = None


@dataclasses.dataclass
class _Plan:
    """One shard surgery; ``owners`` unites the parents' owners."""

    op: str
    parents: tuple[int, ...]
    owners: list
    children: list[_Child]
    charged: int


class TopologyManager:
    """Runtime topology surgery for one :class:`PredictionCluster`.

    The five operations call :meth:`_plan`, :meth:`_place` and
    :meth:`_fence` (see the module docstring) and serialize under one
    lock -- concurrent *requests* race the fence safely (the router
    snapshots the table per dispatch), but two concurrent topology
    changes would race each other's books.
    """

    def __init__(
        self,
        cluster: "PredictionCluster",
        *,
        split_when: float = 3.0,
        merge_when: float = 1.5,
        drift_threshold: float = 0.35,
        min_drift_observations: int = 24,
        reorg_budget: Budget | None = None,
    ):
        if split_when <= 1.0:
            raise InputValidationError(
                f"split_when must exceed 1.0 (it is a cost *ratio* "
                f"against the sibling median), got {split_when}"
            )
        if not 0.0 < merge_when < split_when:
            raise InputValidationError(
                f"merge_when must lie in (0, split_when={split_when}): "
                f"the gap between the two thresholds is the hysteresis "
                f"band that keeps split and merge from flapping; got "
                f"{merge_when}"
            )
        self.cluster = cluster
        self.split_when = split_when
        self.merge_when = merge_when
        self.governor = Governor(reorg_budget or Budget())
        self.drift = DriftDetector(
            threshold=drift_threshold,
            min_observations=min_drift_observations,
        )
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self.drift.freeze(self._current_centers())

    # ------------------------------------------------------------------
    # The three shared steps: plan, place, fence
    # ------------------------------------------------------------------

    def _current_centers(self) -> dict[int, np.ndarray]:
        cluster = self.cluster
        return dict(zip(cluster._row_to_shard, cluster.partition.centroids))

    def _plan(
        self,
        op: str,
        parents: tuple[int, ...],
        n: int,
        *,
        workload: KNNWorkload | None = None,
        center: np.ndarray | None = None,
    ) -> _Plan:
        """Admit, pool the parents, carve ``n`` children, tune them.

        The first parent wins a global id both parents hold, and ``k``
        is the parents' minimum; ``workload`` replaces the pooled slice
        (the drift re-tune passes its synthesized one).  A single child
        is centred on ``center`` when given, else on the point-weighted
        mean of the parent centroids (a re-tune's own centroid).
        Admission is ``max(1, sum(parent tuning_io_ops) * n)``.  Caller
        holds ``self._lock``.
        """
        from .cluster import _MIN_SHARD_POINTS

        cluster = self.cluster
        table = cluster.router.table
        rows = [cluster._row_of(p) for p in parents]
        names = dict.fromkeys(n for p in parents for n in table.owners_of(p))
        owners = [cluster.replicas[n] for n in names if n in cluster.replicas]
        if not owners:
            raise InputValidationError(
                f"shard(s) {list(parents)} have no owners to carry their "
                f"successors"
            )
        self.governor.require_ops(max(1, n * sum(
            cluster.shard_configs[p].tuning_io_ops for p in parents
        )), phase=op)

        # --- pool the parents -----------------------------------------
        sizes = [cluster.shard_points[p].shape[0] for p in parents]
        offsets = [sum(sizes[:i]) for i in range(len(parents))]
        points = np.vstack([cluster.shard_points[p] for p in parents])
        if workload is None:
            slices = [cluster.tuning_slices[p] for p in parents]
            workload = KNNWorkload(
                k=min(s.k for s in slices),
                query_ids=np.concatenate([
                    s.query_ids + off for s, off in zip(slices, offsets)
                ]),
                queries=np.vstack([s.queries for s in slices]),
                radii=np.concatenate([s.radii for s in slices]),
            )
        local_ids: dict[int, int] = {}
        for parent, off in zip(parents, offsets):
            for g, local in cluster._local_ids[parent].items():
                local_ids.setdefault(g, local + off)

        # --- carve the pool into n children -----------------------------
        if n == 1:
            if center is None:
                weights = np.asarray(sizes, dtype=np.float64) / sum(sizes)
                center = weights @ cluster.partition.centroids[rows]
            carve = WorkloadPartition(
                centroids=np.asarray(center, dtype=np.float64)[None, :],
                assignments=np.zeros(workload.n_queries, dtype=np.int64),
            )
        elif workload.n_queries < n:
            raise PredictionError(
                f"shard(s) {list(parents)} have only {workload.n_queries} "
                f"tuning queries; cannot split into {n}"
            )
        else:
            carve = partition_workload(workload, n, seed=cluster.seed)
        point_group = carve.shard_of(points)
        children = []
        for group, centroid in enumerate(carve.centroids):
            idx = np.flatnonzero(point_group == group)
            q_mask = carve.assignments == group
            if idx.size < _MIN_SHARD_POINTS or not np.any(q_mask):
                raise PredictionError(
                    f"{op} of shard(s) {list(parents)} would create a "
                    f"sliver ({idx.size} points, "
                    f"{int(np.count_nonzero(q_mask))} queries in child "
                    f"{group}); a geometry cannot be fitted on a sliver "
                    f"-- topology unchanged"
                )
            to_child = {int(g): j for j, g in enumerate(idx)}
            try:
                query_ids = np.fromiter(
                    (to_child[int(g)] for g in workload.query_ids[q_mask]),
                    dtype=np.int64, count=int(np.count_nonzero(q_mask)),
                )
            except KeyError as missing:
                raise InputValidationError(
                    f"tuning query id {missing.args[0]} of shard(s) "
                    f"{list(parents)} does not land in its own child's "
                    f"slice; re-tune workloads must be drawn from the "
                    f"shard's data"
                ) from None
            children.append(_Child(
                points=points[idx],
                workload=KNNWorkload(
                    k=workload.k, query_ids=query_ids,
                    queries=workload.queries[q_mask],
                    radii=workload.radii[q_mask],
                ),
                centroid=centroid,
                local_ids={
                    g: to_child[local] for g, local in local_ids.items()
                    if local in to_child
                },
            ))

        # --- mint ids, tune each child on its own slice, charge --------
        base = cluster._next_shard_id
        cluster._next_shard_id += len(children)
        for offset, child in enumerate(children):
            child.shard = base + offset
            child.config = tune_shard(
                child.shard, child.points, child.workload,
                memory=cluster.memory, page_sizes=cluster.page_sizes,
                base_disk=cluster.base_disk, method=cluster.tuning_method,
                seed=cluster.seed, kernel=cluster.kernel,
            )
        charged = sum(child.config.tuning_io_ops for child in children)
        self.governor.observe(op, IOCost(seeks=int(charged)))
        self.governor.end_attempt()
        return _Plan(op, parents, owners, children, charged)

    def _place(
        self, shard: int, points: np.ndarray, config: ShardConfig,
        targets: list, donors: tuple[str, ...] = (),
    ) -> dict[str, str]:
        """Register one shard on every live target, fitting at most once.

        Each target adopts the exact bytes of the first copy among the
        ``donors`` (replica names) that passes ``store.verify`` (a
        corrupt donor is skipped, never trusted), so its registration is
        a warm hit; with no verified donor it fits, and every registered
        target donates to the next.  Returns ``{name: "peer:<donor>" |
        "fit"}`` for exactly the targets that registered.
        """
        key = shard_tenant(shard)
        replicas = self.cluster.replicas
        donors = [replicas[name] for name in donors if name in replicas]
        placed: dict[str, str] = {}
        for target in targets:
            if target.down or target.service is None:
                continue
            via = "fit"
            for donor in donors:
                if donor.down or donor.service is None:
                    continue
                try:
                    donor.service.store.verify(key)
                except ArtifactCorruptError:
                    continue  # corrupt donor: never warm from it
                target.adopt_shard_bytes(
                    shard, donor.artifact_path(shard).read_bytes()
                )
                via = f"peer:{donor.name}"
                break
            target.register_shard(
                shard, points, config, fit_seed=self.cluster.fit_seed
            )
            placed[target.name] = via
            donors.append(target)
        return placed

    def _fence(
        self,
        event: dict,
        *,
        parents: tuple[int, ...] = (),
        replica: str | None = None,
        placed: dict[int, list[str]] | None = None,
    ) -> dict:
        """Publish one topology change: install, drain, fold, record.

        The new table is the old one minus the retired ``parents`` or
        ``replica``, plus each ``placed`` shard routed to exactly the
        names that registered it.  Records ``event`` completed with the
        new epoch (and a retired replica's folded ops) and returns it
        without its ``op`` key, as the operation's report.
        """
        cluster = self.cluster
        old = cluster.router.table
        placed = placed or {}
        owners, costs = {}, {}
        for s, names in old.owners.items():
            if s not in parents:
                owners[s] = tuple(n for n in names if n != replica)
                costs[s] = {n: c for n, c in old.costs.get(s, {}).items()
                            if n != replica}
        for shard, names in placed.items():
            owners[shard], costs[shard] = cluster._rank(
                cluster.shard_configs[shard].predicted_seconds,
                names, costs.get(shard),
            )
        table = RoutingTable(
            version=old.version + 1, epoch=old.epoch + 1,
            owners=owners, costs=costs,
        )
        cluster.router.install_table(table)
        cluster.router.drain(timeout_s=_TOPOLOGY_DRAIN_S)
        for parent in parents:
            for name in old.owners_of(parent):
                if name in cluster.replicas:
                    cluster.replicas[name].retire_shard(parent)
            cluster.retired_shards[parent] = {
                "children": tuple(placed), "epoch": table.epoch,
                "reason": event["op"],
            }
        if replica is not None:
            retiring = cluster.replicas[replica]
            retiring.retire()
            del cluster.replicas[replica]
            cluster.retired_replicas[replica] = retiring
            event["retired_ops"] = {
                int(s): int(v) for s, v in retiring.retired_ops.items()
            }
        if parents:
            self.drift.freeze(self._current_centers())
        event["epoch"] = table.epoch
        self.events.append(event)
        return {k: v for k, v in event.items() if k != "op"}

    def _commit(self, plan: _Plan) -> tuple[int, ...]:
        """Place every child on the parents' owners, write the cluster
        state, and fence the parents out.  Caller holds ``self._lock``.

        State is written only once every child has registered, so a
        refused surgery leaves nothing behind but its burned ids.
        Children take the first parent's centroid row; extra children
        are appended and the other parents' rows deleted.
        """
        cluster = self.cluster
        placed = {}
        for child in plan.children:
            placed[child.shard] = list(self._place(
                child.shard, child.points, child.config, plan.owners
            ))
            if not placed[child.shard]:
                raise InputValidationError(
                    f"no live owner of shard(s) {list(plan.parents)} can "
                    f"carry their successors; restart an owner first"
                )
        for child in plan.children:
            cluster.shard_points[child.shard] = child.points
            cluster.shard_configs[child.shard] = child.config
            cluster.tuning_slices[child.shard] = child.workload
            cluster._local_ids[child.shard] = child.local_ids

        # --- partition geometry: successor centroid rows ---------------
        first, *gone = [cluster._row_of(p) for p in plan.parents]
        rows = [
            plan.children[0].shard if r == first else shard
            for r, shard in enumerate(cluster._row_to_shard) if r not in gone
        ] + [child.shard for child in plan.children[1:]]
        centers = self._current_centers()
        centers.update((c.shard, c.centroid) for c in plan.children)
        centroids = np.stack([centers[shard] for shard in rows])
        cluster._row_to_shard = rows
        cluster.partition = WorkloadPartition(
            centroids=centroids,
            assignments=np.argmin(_distances_sq(
                cluster.tuning_workload.queries, centroids
            ), axis=1),
        )

        parents = (
            {"shard": plan.parents[0]} if len(plan.parents) == 1
            else {"shards": list(plan.parents)}
        )
        self._fence(
            {"op": plan.op, **parents, "children": list(placed),
             "charged_ops": plan.charged},
            parents=plan.parents, placed=placed,
        )
        return tuple(placed)

    # ------------------------------------------------------------------
    # Scale-out / scale-in
    # ------------------------------------------------------------------

    def add_replica(
        self,
        name: str | None = None,
        *,
        latency_factor: float = 1.0,
        shards: list[int] | None = None,
    ) -> dict:
        """Scale out: build, warm, and route to a new replica.

        The replica is constructed, warmed shard by shard from the
        current owners' verified bytes (:meth:`_place`: zero refits
        when any verified peer exists), and only then published as an
        owner under a new epoch -- requests never observe a half-warmed
        owner.  Returns the warm report (``via`` per shard:
        ``peer:<donor>`` or ``fit``).
        """
        with self._lock:
            cluster = self.cluster
            if name is None:
                taken = set(cluster.replicas) | set(cluster.retired_replicas)
                index = len(taken)
                while f"replica-{index}" in taken:
                    index += 1
                name = f"replica-{index}"
            elif (name in cluster.replicas
                    or name in cluster.retired_replicas):
                raise InputValidationError(
                    f"replica name {name!r} is already "
                    f"{'retired' if name in cluster.retired_replicas else 'live'}"
                )
            active = cluster.active_shards()
            if shards is None:
                shards = active
            else:
                shards = sorted(set(int(s) for s in shards))
                unknown = [s for s in shards if s not in active]
                if unknown:
                    raise InputValidationError(
                        f"cannot place unknown shard(s) {unknown}; "
                        f"active shards are {active}"
                    )
            replica = cluster._new_replica(name, latency_factor)
            warmed = []
            for shard in shards:
                via = self._place(
                    shard, cluster.shard_points[shard],
                    cluster.shard_configs[shard], [replica],
                    donors=cluster.router.table.owners_of(shard),
                )
                warmed.append({"shard": shard, "via": via[name]})
            cluster.replicas[name] = replica
            return self._fence(
                {"op": "add_replica", "replica": name, "warmed": warmed,
                 "refits": sum(w["via"] == "fit" for w in warmed)},
                placed={shard: [name] for shard in shards},
            )

    def remove_replica(self, name: str) -> dict:
        """Scale in: fence the replica out, drain, fold its ledgers.

        The new table (without the replica) is installed *first*, so no
        new leg can target it; the router then drains -- in-flight legs
        on the retiring replica run to completion and settle their
        ledgers -- and only then is the replica retired, folding its
        books exactly as :meth:`~.replicas.Replica.kill` does.  Refuses
        (typed) to remove the last owner of any shard.
        """
        with self._lock:
            self.cluster._replica(name)
            for shard, owner_names in self.cluster.router.table.owners.items():
                if owner_names and set(owner_names) == {name}:
                    raise InputValidationError(
                        f"cannot remove {name!r}: it is the last owner "
                        f"of shard {shard}"
                    )
            return self._fence(
                {"op": "remove_replica", "replica": name}, replica=name
            )

    # ------------------------------------------------------------------
    # Shard surgery
    # ------------------------------------------------------------------

    def _sibling_ratio(self, seconds: float, exclude) -> float | None:
        """``seconds`` over the median tuned cost of the active shards
        not in ``exclude`` (``None`` without a positive baseline)."""
        cluster = self.cluster
        others = [
            cluster.shard_configs[s].predicted_seconds
            for s in cluster.active_shards() if s not in exclude
        ]
        baseline = float(np.median(others)) if others else 0.0
        return seconds / baseline if baseline > 0 else None

    def split_candidates(self) -> list[dict]:
        """Shards whose tuned predicted cost diverges from siblings.

        A shard is a candidate when its tuned ``predicted_seconds``
        exceeds ``split_when`` times the median of its siblings' --
        the predictor's own per-shard cost estimate driving topology,
        which is the point of having a cheap predictor.
        """
        out = []
        for shard in self.cluster.active_shards():
            seconds = self.cluster.shard_configs[shard].predicted_seconds
            ratio = self._sibling_ratio(seconds, (shard,))
            if ratio is not None and ratio >= self.split_when:
                out.append({
                    "shard": shard,
                    "ratio": round(ratio, 3),
                    "predicted_seconds": seconds,
                })
        return out

    def merge_candidates(self) -> list[dict]:
        """Sibling pairs cheap enough to share one shard again.

        A pair is a candidate when the *sum* of both tuned
        ``predicted_seconds`` stays within ``merge_when`` times the
        median of the remaining siblings' -- i.e. even merged, the
        combined shard would sit well below the ``split_when`` ratio
        (``merge_when < split_when`` is enforced; the gap is the
        hysteresis band).  Pairs are greedily chosen cheapest-ratio
        first with no shard in two pairs.  The controller additionally
        requires a candidate to *persist* for a dwell window before it
        fires -- one cheap tuning snapshot must not trigger surgery.
        """
        cluster = self.cluster
        active = cluster.active_shards()
        # a pair is judged against the *other* shards' median; with
        # fewer than 3 active shards there is no external baseline and
        # candidacy would be self-referential (any balanced pair rates
        # ratio 2.0 against itself), so a 2-shard cluster never merges
        # autonomously -- folding to a single shard erases routing.
        if len(active) < 3:
            return []
        seconds = {
            s: cluster.shard_configs[s].predicted_seconds for s in active
        }
        pairs = []
        for i, a in enumerate(active):
            for b in active[i + 1:]:
                combined = seconds[a] + seconds[b]
                ratio = self._sibling_ratio(combined, (a, b))
                if ratio is not None and ratio <= self.merge_when:
                    pairs.append({
                        "pair": (a, b),
                        "ratio": round(ratio, 3),
                        "combined_seconds": combined,
                    })
        pairs.sort(key=lambda p: (p["ratio"], p["pair"]))
        chosen: list[dict] = []
        used: set[int] = set()
        for pair in pairs:
            a, b = pair["pair"]
            if a in used or b in used:
                continue
            used.update((a, b))
            chosen.append(pair)
        return chosen

    def split_shard(self, shard: int) -> tuple[int, int]:
        """Split one shard in two, each half re-tuned on its own slice.

        The parent's tuning slice is re-partitioned (seeded k-means,
        k=2), the parent's points follow the same child centroids, and
        each child is tuned on its own slice exactly as construction
        tuned the parent.  Children get fresh, never-reused shard ids
        and are placed on the parent's owners before the fence; a
        request that straddles the handoff was admitted under the old
        epoch against the parent's captured tenant, so its answer is
        bit-identical to the pre-split cluster's.
        """
        with self._lock:
            return self._commit(self._plan("split", (shard,), 2))

    def re_tune_shard(
        self,
        shard: int,
        *,
        workload: KNNWorkload | None = None,
        center: np.ndarray | None = None,
    ) -> int:
        """Replace one shard with a freshly tuned successor (same data).

        ``workload`` is the slice to tune against (defaults to the
        shard's stored tuning slice); ``center`` re-anchors the
        shard's routing centroid (the drift path passes the live query
        center, so post-re-tune drift measures from the new anchor).
        Returns the successor's shard id.
        """
        with self._lock:
            (child,) = self._commit(self._plan(
                "re-tune", (shard,), 1, workload=workload, center=center,
            ))
            return child

    def _drift_workload(self, shard: int) -> KNNWorkload | None:
        """A tuning workload synthesized from the observed drifted
        queries: each recent query anchored to its nearest point of the
        shard's slice (tuning reads query points by id from the
        shard's own file), radii recomputed against the slice."""
        cluster = self.cluster
        recent = self.drift.recent_queries(shard)
        if recent.size == 0:
            return None
        points = cluster.shard_points[shard]
        if recent.shape[1] != points.shape[1]:
            return None
        # blocks of recent queries bound the (block, n, d) difference
        # array; each row's distances are computed exactly as unblocked
        nearest = np.concatenate([
            np.argmin(_distances_sq(recent[i:i + _ANCHOR_BLOCK], points),
                      axis=1)
            for i in range(0, recent.shape[0], _ANCHOR_BLOCK)
        ]).astype(np.int64)
        k = cluster.tuning_slices[shard].k
        k = min(k, points.shape[0])
        radii = exact_knn_radii(points, points[nearest], k)
        return KNNWorkload(
            k=k, query_ids=nearest, queries=points[nearest], radii=radii,
        )

    def apply_drift_proposals(self) -> list[dict]:
        """Execute every pending drift proposal as a governed re-tune.

        Each fired proposal re-tunes the shard on a workload
        synthesized from the drifted queries actually observed and
        re-anchors its centroid at the live query center.  Returns one
        record per proposal (including refusals: an exhausted reorg
        budget refuses with the typed error recorded, topology
        unchanged).
        """
        applied = []
        for proposal in self.drift.proposals():
            record = proposal.as_dict()
            workload = self._drift_workload(proposal.shard)
            center = self.drift.live_center(proposal.shard)
            try:
                record["successor"] = self.re_tune_shard(
                    proposal.shard, workload=workload, center=center,
                )
            except (InputValidationError, PredictionError) as error:
                record["refused"] = type(error).__name__
                record["error"] = str(error)
            applied.append(record)
        return applied

    def merge_shards(self, a: int, b: int) -> int:
        """Merge two shards into one fresh successor -- split, inverted.

        The parents are pooled (b's query ids re-anchored past a's
        points), the merged shard is re-tuned on the combined slice
        exactly as construction tuned each parent, and it gets a fresh
        never-reused id.  Admission is charged against the reorg budget
        *before* any surgery, and a merged configuration that would
        immediately re-trip ``split_when`` against the surviving
        siblings is refused (typed) with the routing table untouched --
        merging and promptly re-splitting is the flap the hysteresis
        band exists to prevent.  The handoff is the same fence as a
        split: a straddling request admitted under the old epoch still
        answers bit-identically against the parent tenant it captured,
        and both parents' ledgers fold into the owners' retired books.
        Returns the merged shard's id.
        """
        with self._lock:
            if a == b:
                raise InputValidationError(
                    f"cannot merge shard {a} with itself"
                )
            plan = self._plan("merge", (a, b), 1)
            merged = plan.children[0].config.predicted_seconds
            ratio = self._sibling_ratio(merged, (a, b))
            if ratio is not None and ratio >= self.split_when:
                raise PredictionError(
                    f"merging shards {a}+{b} would re-trip split_when "
                    f"immediately (merged cost {merged:.4g} is "
                    f"{ratio:.2f}x the sibling median, threshold "
                    f"{self.split_when:g}) -- topology unchanged"
                )
            (child,) = self._commit(plan)
            return child

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def proposals(self) -> dict:
        return {
            "split": self.split_candidates(),
            "merge": self.merge_candidates(),
            "re_tune": [p.as_dict() for p in self.drift.proposals()],
        }

    def report(self) -> dict:
        return {
            "split_when": self.split_when,
            "merge_when": self.merge_when,
            "events": list(self.events),
            "drift": self.drift.report(),
            "reorg": self.governor.report(),
            "proposals": self.proposals(),
        }
