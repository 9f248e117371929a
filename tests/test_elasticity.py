"""Tests for elastic cluster topology: the epoch fence, runtime
scale-out/in, shard splitting, drift-triggered re-tuning, and the
governed reorganization budget.

The guarantees under test:

* the routing-table epoch only moves forward, a dispatch pinned to a
  fenced-off epoch is refused with a typed error, and the op books
  reconcile exactly across every epoch boundary;
* scale-out warms the new replica bit-identically from verified peer
  bytes (zero refits; a corrupt donor is skipped, never trusted);
* scale-in drains in-flight legs and folds the retiring replica's
  ledgers -- no charge vanishes -- and a dispatch racing the removal
  takes the router's ghost-skip path, never an ``AttributeError``;
* a split mints never-reused successor ids, re-tunes each half on its
  own workload slice, and answers straddling requests bit-identically
  to the pre-split cluster;
* drift proposals fire only past the threshold with enough
  observations behind them, and every reorganization is admitted
  against the reorg budget *before* surgery (refusal leaves the
  topology untouched).
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.cluster import PredictionCluster, RoutingTable
from repro.cluster.elasticity import DriftDetector, TopologyManager
from repro.errors import (
    BudgetExceededError,
    InputValidationError,
    PredictionError,
    StaleRoutingEpochError,
)
from repro.runtime.budget import Budget
from repro.service.artifacts import fit_model
from repro.workload.queries import (
    KNNWorkload,
    density_biased_knn_workload,
    exact_knn_radii,
)

N_PER_BLOB, DIM, MEMORY = 120, 4, 100


@pytest.fixture(scope="module")
def blob_data():
    rng = np.random.default_rng(0)
    return np.vstack([
        rng.normal(0.0, 1.0, (N_PER_BLOB, DIM)),
        rng.normal(6.0, 0.5, (N_PER_BLOB, DIM)),
    ])


@pytest.fixture(scope="module")
def tuning_workload(blob_data):
    return density_biased_knn_workload(
        blob_data, 16, 4, np.random.default_rng(1)
    )


@pytest.fixture
def cluster(blob_data, tuning_workload, tmp_path):
    built = PredictionCluster(
        blob_data, tuning_workload, artifact_root=tmp_path,
        memory=MEMORY,
    )
    yield built
    built.stop()


def shard_workload(cluster, shard, n=6, seed=2):
    return density_biased_knn_workload(
        cluster.shard_points[shard], n, 4, np.random.default_rng(seed)
    )


class TestEpochFence:
    def test_install_rejects_epoch_regression(self, cluster):
        current = cluster.router.table
        stale = RoutingTable(
            version=current.version + 1, epoch=current.epoch - 1,
            owners=current.owners, costs=current.costs,
        )
        with pytest.raises(InputValidationError, match="regression"):
            cluster.router.install_table(stale)

    def test_install_rejects_same_epoch_version_regression(self, cluster):
        current = cluster.router.table
        cluster.router.install_table(RoutingTable(
            version=current.version + 1, epoch=current.epoch,
            owners=current.owners, costs=current.costs,
        ))
        with pytest.raises(InputValidationError, match="regression"):
            cluster.router.install_table(current)

    def test_same_epoch_version_bump_is_not_a_topology_change(self, cluster):
        current = cluster.router.table
        cluster.router.install_table(RoutingTable(
            version=current.version + 1, epoch=current.epoch,
            owners=current.owners, costs=current.costs,
        ))
        assert cluster.router.table.epoch == current.epoch
        # unpinned and correctly-pinned dispatches both serve
        workload = shard_workload(cluster, 0)
        assert cluster.request(0, workload).ok
        assert cluster.request(0, workload, epoch=current.epoch).ok

    def test_pinned_stale_epoch_is_typed_and_retryable(self, cluster):
        workload = shard_workload(cluster, 0)
        pinned = cluster.router.table.epoch
        cluster.add_replica()
        with pytest.raises(StaleRoutingEpochError) as caught:
            cluster.request(0, workload, epoch=pinned)
        assert caught.value.presented == pinned
        assert caught.value.current == pinned + 1
        assert caught.value.shard == 0
        assert cluster.router.metrics()["stale_rejections"] == 1
        # the refusal happened before any leg was submitted
        assert cluster.router.metrics()["dispatches"] == 0
        # refresh-and-retry: the fresh epoch serves
        retry = cluster.request(
            0, workload, epoch=cluster.router.table.epoch
        )
        assert retry.ok
        assert retry.routing_epoch == pinned + 1

    def test_books_reconcile_across_epochs(self, cluster):
        """Satellite: charged traffic on both sides of a fence must
        land in per-epoch books that sum to the drained totals."""
        workloads = {s: shard_workload(cluster, s) for s in (0, 1)}
        for shard, workload in workloads.items():
            assert cluster.request(
                shard, workload, method="cutoff", seed=3
            ).ok
        pinned = cluster.router.table.epoch
        cluster.add_replica()
        with pytest.raises(StaleRoutingEpochError):
            cluster.request(0, workloads[0], epoch=pinned)
        for shard, workload in workloads.items():
            assert cluster.request(
                shard, workload, method="cutoff", seed=4
            ).ok
        cluster.wait_idle()
        drained = cluster.router.drain()
        books = cluster.router.epoch_ops()
        assert sorted(books) == [pinned, pinned + 1]
        for shard in (0, 1):
            across = sum(
                book.get(shard, 0) for book in books.values()
            )
            assert across == drained[shard] > 0
            assert cluster.charged_ops(shard) == drained[shard]


class TestScaleOut:
    def test_warm_start_from_peers_zero_refits(self, cluster):
        report = cluster.add_replica()
        assert report["refits"] == 0
        assert {w["shard"] for w in report["warmed"]} == {0, 1}
        assert all(
            w["via"].startswith("peer:") for w in report["warmed"]
        )
        for shard in (0, 1):
            assert report["replica"] in \
                cluster.router.table.owners_of(shard)

    def test_scaled_replica_serves_bit_identically(self, cluster):
        workload = shard_workload(cluster, 0)
        reference = cluster.request(0, workload)
        assert reference.ok
        report = cluster.add_replica(latency_factor=0.25)
        response = cluster.request(0, workload)
        assert response.ok
        # cheapest owner: the new replica is now the primary
        assert response.served_by == report["replica"]
        assert np.array_equal(
            response.result.per_query, reference.result.per_query
        )

    def test_corrupt_donor_is_skipped(self, cluster):
        donor = cluster.router.table.owners_of(0)[0]
        peer = cluster.router.table.owners_of(0)[1]
        cluster.corrupt_artifact(donor, 0)
        report = cluster.add_replica()
        warmed = {w["shard"]: w["via"] for w in report["warmed"]}
        assert warmed[0] == f"peer:{peer}"
        assert report["refits"] == 0

    def test_refits_count_fresh_fits(self, cluster):
        """With no verified donor the new replica fits shard 0 from
        data, and the report counts that fit as a refit."""
        for owner in cluster.router.table.owners_of(0):
            cluster.corrupt_artifact(owner, 0)
        report = cluster.add_replica()
        warmed = {w["shard"]: w["via"] for w in report["warmed"]}
        assert warmed[0] == "fit"
        assert warmed[1].startswith("peer:")
        assert report["refits"] == 1

    def test_duplicate_name_refused(self, cluster):
        with pytest.raises(InputValidationError, match="already"):
            cluster.add_replica("replica-0")

    def test_unknown_shard_placement_refused(self, cluster):
        with pytest.raises(InputValidationError, match="unknown shard"):
            cluster.add_replica(shards=[99])


class TestScaleIn:
    def test_remove_folds_books_and_fences(self, cluster):
        report = cluster.add_replica(latency_factor=0.25)
        name = report["replica"]
        workload = shard_workload(cluster, 0)
        charged = cluster.request(0, workload, method="cutoff", seed=5)
        assert charged.ok and charged.served_by == name
        cluster.wait_idle()
        before = cluster.charged_ops(0)
        assert before > 0
        epoch_before = cluster.router.table.epoch
        removal = cluster.remove_replica(name)
        assert removal["epoch"] == epoch_before + 1
        assert name not in cluster.replicas
        assert name in cluster.retired_replicas
        assert cluster.retired_replicas[name].retired
        for shard in (0, 1):
            assert name not in cluster.router.table.owners_of(shard)
        # the retiring replica's charges folded, nothing vanished
        assert cluster.charged_ops(0) == before
        assert removal["retired_ops"][0] > 0

    def test_remove_last_owner_refused(self, cluster):
        owners = cluster.router.table.owners_of(0)
        cluster.remove_replica(owners[0])
        with pytest.raises(InputValidationError, match="last owner"):
            cluster.remove_replica(owners[1])

    def test_retired_replica_cannot_restart(self, cluster):
        report = cluster.add_replica()
        replica = cluster.replicas[report["replica"]]
        cluster.remove_replica(report["replica"])
        with pytest.raises(InputValidationError, match="retired"):
            replica.restart()

    def test_dispatch_racing_removal_is_never_untyped(self, cluster):
        """Satellite regression: a dispatch that read the table before
        a removal nulled the replica's service must take the router's
        ghost-skip path -- a served/degraded/typed verdict -- never an
        ``AttributeError`` from ``replica.service.submit``."""
        report = cluster.add_replica(latency_factor=0.25)
        name = report["replica"]
        workload = shard_workload(cluster, 0)
        failures: list[BaseException] = []
        statuses: list[str] = []
        start = threading.Event()

        def hammer() -> None:
            start.wait()
            for _ in range(60):
                try:
                    statuses.append(cluster.request(0, workload).status)
                except StaleRoutingEpochError:  # pragma: no cover
                    statuses.append("stale")
                except BaseException as error:  # pragma: no cover
                    failures.append(error)
                    return

        threads = [
            threading.Thread(target=hammer, daemon=True)
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        start.set()
        cluster.remove_replica(name)
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures, f"untyped escape: {failures!r}"
        assert statuses and all(
            status in {"ok", "degraded", "error", "stale"}
            for status in statuses
        )
        # the shard kept its surviving owners: requests still serve
        assert cluster.request(0, workload).ok


class TestSplit:
    def test_split_mints_fresh_ids_and_retires_parent(self, cluster):
        epoch_before = cluster.router.table.epoch
        children = cluster.split_shard(1)
        assert len(children) == 2
        assert set(children).isdisjoint({0, 1})
        assert sorted(cluster.active_shards()) == sorted([0, *children])
        assert cluster.retired_shards[1]["children"] == children
        assert cluster.router.table.epoch == epoch_before + 1
        assert cluster.router.table.owners_of(1) == ()
        # children partition the parent's points exactly
        total = sum(
            cluster.shard_points[child].shape[0] for child in children
        )
        assert total == cluster.shard_points[1].shape[0]
        # each child was re-tuned on its own slice and serves
        for child in children:
            assert cluster.shard_configs[child].n_tuning_queries > 0
            assert cluster.request(
                child, shard_workload(cluster, child)
            ).ok

    def test_split_books_cover_parent_and_children(self, cluster):
        workload = shard_workload(cluster, 1)
        assert cluster.request(1, workload, method="cutoff", seed=6).ok
        cluster.wait_idle()
        parent_ops = cluster.charged_ops(1)
        assert parent_ops > 0
        children = cluster.split_shard(1)
        for child in children:
            assert cluster.request(
                child, shard_workload(cluster, child),
                method="cutoff", seed=7,
            ).ok
        cluster.wait_idle()
        drained = cluster.router.drain()
        # the parent's charges survived the split in the retired books
        assert cluster.charged_ops(1) == parent_ops == drained[1]
        for child in children:
            assert cluster.charged_ops(child) == drained[child] > 0

    def test_straddling_request_is_bit_identical(self, cluster):
        """A request admitted under the pre-split epoch and still in
        flight during the handoff must answer exactly as the pre-split
        cluster would have."""
        workload = shard_workload(cluster, 1)
        reference = cluster.request(1, workload)
        assert reference.ok
        pre_epoch = cluster.router.table.epoch
        for name in cluster.router.table.owners_of(1):
            cluster.replicas[name].slow_s = 0.25
        straddler: list = []

        def submit() -> None:
            straddler.append(cluster.request(1, workload))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        import time
        time.sleep(0.08)  # the leg is in flight, unresolved
        cluster.split_shard(1)  # fences, then drains the straddler
        thread.join(timeout=30.0)
        for name in cluster.replicas:
            cluster.replicas[name].slow_s = 0.0
        (response,) = straddler
        assert response.ok
        assert response.routing_epoch == pre_epoch
        assert np.array_equal(
            response.result.per_query, reference.result.per_query
        )

    def test_sliver_split_refused_atomically(self, tmp_path):
        """A split whose half could not carry a fitted geometry is
        refused up front; the topology is untouched."""
        rng = np.random.default_rng(3)
        data = np.vstack([
            rng.normal(0.0, 1.0, (200, DIM)),
            rng.normal(8.0, 0.05, (10, DIM)),
        ])
        queries = np.vstack([data[:14], data[200:202]])
        ids = np.concatenate([np.arange(14), np.arange(200, 202)])
        tuning = KNNWorkload(
            k=4, query_ids=ids, queries=queries,
            radii=exact_knn_radii(data, queries, 4),
        )
        built = PredictionCluster(
            data, tuning, artifact_root=tmp_path, memory=MEMORY,
        )
        try:
            small = min(
                built.active_shards(),
                key=lambda s: built.shard_points[s].shape[0],
            )
            epoch = built.router.table.epoch
            active = built.active_shards()
            with pytest.raises(PredictionError, match="sliver"):
                built.split_shard(small)
            assert built.router.table.epoch == epoch
            assert built.active_shards() == active
        finally:
            built.stop()


class TestDrift:
    def test_detector_needs_observations(self):
        detector = DriftDetector(threshold=0.3, min_observations=10)
        detector.freeze({
            0: np.zeros(2), 1: np.full(2, 10.0),
        })
        detector.observe(0, np.full((5, 2), 5.0))
        assert detector.drift(0) == 0.0  # below min_observations
        assert detector.proposals() == []
        detector.observe(0, np.full((10, 2), 5.0))
        assert detector.drift(0) == pytest.approx(
            np.linalg.norm([5.0, 5.0]) / np.linalg.norm([10.0, 10.0])
        )
        proposals = detector.proposals()
        assert [p.shard for p in proposals] == [0]
        assert proposals[0].action == "re-tune"

    def test_freeze_rescinds_observations(self):
        detector = DriftDetector(threshold=0.3, min_observations=4)
        detector.freeze({0: np.zeros(2), 1: np.full(2, 10.0)})
        detector.observe(0, np.full((8, 2), 5.0))
        assert detector.proposals()
        detector.freeze({0: np.full(2, 5.0), 1: np.full(2, 10.0)})
        assert detector.drift(0) == 0.0
        assert detector.proposals() == []

    def test_drift_triggered_retune_end_to_end(
        self, blob_data, tuning_workload, tmp_path
    ):
        built = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path,
            memory=MEMORY, drift_threshold=0.2,
            min_drift_observations=8,
        )
        try:
            # live queries concentrated away from shard 0's centroid
            points = built.shard_points[0]
            shifted = points[:12] + 2.5
            drifted = KNNWorkload(
                k=4, query_ids=np.arange(12), queries=shifted,
                radii=exact_knn_radii(points, shifted, 4),
            )
            for _ in range(2):
                assert built.request(0, drifted).ok
            proposals = built.topology.drift.proposals()
            assert [p.shard for p in proposals] == [0]
            applied = built.topology.apply_drift_proposals()
            assert len(applied) == 1
            successor = applied[0]["successor"]
            assert successor not in (0, 1)
            assert 0 not in built.active_shards()
            assert successor in built.active_shards()
            assert built.retired_shards[0]["reason"] == "re-tune"
            # the successor was tuned on the *drifted* workload
            assert built.shard_configs[successor].n_tuning_queries == 24
            assert built.request(
                successor, shard_workload(built, successor)
            ).ok
        finally:
            built.stop()


class TestGovernedReorg:
    def test_budget_refusal_leaves_topology_unchanged(
        self, blob_data, tuning_workload, tmp_path
    ):
        built = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path,
            memory=MEMORY, reorg_budget=Budget(max_io_ops=1),
        )
        try:
            epoch = built.router.table.epoch
            active = built.active_shards()
            with pytest.raises(BudgetExceededError):
                built.split_shard(1)
            assert built.router.table.epoch == epoch
            assert built.active_shards() == active
            assert built.router.table.owners_of(1) != ()
            assert built.topology.events == []
        finally:
            built.stop()

    def test_reorg_charges_actual_tuning_ops(self, cluster):
        assert cluster.topology.governor.spent_ops == 0
        cluster.split_shard(1)
        children = cluster.retired_shards[1]["children"]
        expected = sum(
            cluster.shard_configs[child].tuning_io_ops
            for child in children
        )
        assert expected > 0
        assert cluster.topology.governor.spent_ops == expected

    def test_tuning_cost_is_on_the_config(self, cluster):
        for shard in cluster.active_shards():
            config = cluster.shard_configs[shard]
            assert config.tuning_io_ops > 0
            assert config.as_dict()["tuning_io_ops"] == \
                config.tuning_io_ops


class TestMerge:
    def test_merge_mints_fresh_id_and_retires_parents(self, cluster):
        epoch_before = cluster.router.table.epoch
        points_before = {
            s: cluster.shard_points[s].shape[0]
            for s in cluster.active_shards()
        }
        merged = cluster.merge_shards(0, 1)
        assert merged not in (0, 1)
        assert cluster.active_shards() == [merged]
        assert cluster.router.table.epoch == epoch_before + 1
        for parent in (0, 1):
            assert cluster.retired_shards[parent]["children"] == (merged,)
            assert cluster.retired_shards[parent]["reason"] == "merge"
            assert cluster.router.table.owners_of(parent) == ()
        # the child holds exactly the parents' points and was re-tuned
        # on the *concatenated* tuning slices
        assert cluster.shard_points[merged].shape[0] == \
            points_before[0] + points_before[1]
        assert cluster.shard_configs[merged].n_tuning_queries == \
            cluster.tuning_slices[0].query_ids.size + \
            cluster.tuning_slices[1].query_ids.size
        assert cluster.request(
            merged, shard_workload(cluster, merged)
        ).ok

    def test_merge_books_cover_parents_and_child(self, cluster):
        for shard in (0, 1):
            assert cluster.request(
                shard, shard_workload(cluster, shard),
                method="cutoff", seed=8,
            ).ok
        cluster.wait_idle()
        parent_ops = {s: cluster.charged_ops(s) for s in (0, 1)}
        assert all(v > 0 for v in parent_ops.values())
        merged = cluster.merge_shards(0, 1)
        assert cluster.request(
            merged, shard_workload(cluster, merged),
            method="cutoff", seed=9,
        ).ok
        cluster.wait_idle()
        books = cluster.router.epoch_ops()
        drained = cluster.router.drain()
        # the parents' pre-merge charges survived the fold exactly
        for shard in (0, 1):
            assert cluster.charged_ops(shard) == parent_ops[shard] \
                == drained[shard]
        assert cluster.charged_ops(merged) == drained[merged] > 0
        # per-epoch books sum to the drained totals to the op
        across: dict[int, int] = {}
        for book in books.values():
            for shard, ops in book.items():
                across[shard] = across.get(shard, 0) + ops
        for shard, total in drained.items():
            assert across.get(shard, 0) == total

    def test_straddling_request_is_bit_identical(self, cluster):
        """A request admitted under the pre-merge epoch and still in
        flight during the handoff must answer exactly as the pre-merge
        cluster would have -- the parent's captured tenant serves it."""
        workload = shard_workload(cluster, 0)
        reference = cluster.request(0, workload)
        assert reference.ok
        pre_epoch = cluster.router.table.epoch
        for name in cluster.router.table.owners_of(0):
            cluster.replicas[name].slow_s = 0.25
        straddler: list = []

        def submit() -> None:
            straddler.append(cluster.request(0, workload))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        import time
        time.sleep(0.08)  # the leg is in flight, unresolved
        cluster.merge_shards(0, 1)  # fences, then drains the straddler
        thread.join(timeout=30.0)
        for name in cluster.replicas:
            cluster.replicas[name].slow_s = 0.0
        (response,) = straddler
        assert response.ok
        assert response.routing_epoch == pre_epoch
        assert np.array_equal(
            response.result.per_query, reference.result.per_query
        )

    def test_merge_validates_identity_and_liveness(self, cluster):
        with pytest.raises(InputValidationError):
            cluster.merge_shards(0, 0)
        with pytest.raises(InputValidationError):
            cluster.merge_shards(0, 99)
        merged = cluster.merge_shards(0, 1)
        # a retired parent cannot merge again
        with pytest.raises(InputValidationError):
            cluster.merge_shards(merged, 0)

    def test_merge_refused_when_it_would_retrip_split(
        self, blob_data, tuning_workload, tmp_path
    ):
        """A merge whose freshly tuned cost would immediately be a
        split candidate is refused atomically: hysteresis must not let
        the controller undo itself one surgery later.  The survivor is
        made genuinely cheap so the merged shard's cost diverges past
        ``split_when`` against the post-merge sibling median."""
        import dataclasses

        built = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path,
            memory=MEMORY, n_shards=3,
        )
        try:
            active = built.active_shards()
            survivor = active[2]
            config = built.shard_configs[survivor]
            built.shard_configs[survivor] = dataclasses.replace(
                config, predicted_seconds=config.predicted_seconds / 100
            )
            epoch = built.router.table.epoch
            with pytest.raises(PredictionError, match="re-trip"):
                built.merge_shards(active[0], active[1])
            assert built.router.table.epoch == epoch
            assert built.active_shards() == active
        finally:
            built.stop()

    def test_merge_budget_refusal_leaves_topology_unchanged(
        self, blob_data, tuning_workload, tmp_path
    ):
        built = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path,
            memory=MEMORY, reorg_budget=Budget(max_io_ops=1),
        )
        try:
            epoch = built.router.table.epoch
            active = built.active_shards()
            with pytest.raises(BudgetExceededError):
                built.merge_shards(0, 1)
            assert built.router.table.epoch == epoch
            assert built.active_shards() == active
            assert built.topology.events == []
        finally:
            built.stop()


class TestMergeCandidates:
    def test_two_shard_cluster_has_no_external_baseline(self, cluster):
        # any balanced pair rates 2.0 against itself: candidacy with
        # fewer than 3 active shards would be self-referential, so the
        # detector reports none and a 2-shard cluster never auto-merges
        assert cluster.topology.merge_candidates() == []

    def test_over_partitioned_pair_is_a_candidate(
        self, blob_data, tuning_workload, tmp_path
    ):
        built = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path,
            memory=MEMORY, n_shards=3, merge_when=2.5,
        )
        try:
            candidates = built.topology.merge_candidates()
            assert candidates, "over-partitioned pair not detected"
            # greedy selection never reuses a shard across pairs
            seen: set[int] = set()
            for candidate in candidates:
                a, b = candidate["pair"]
                assert {a, b}.isdisjoint(seen)
                seen |= {a, b}
                assert candidate["ratio"] <= 2.5
            assert "merge" in built.topology.proposals()
        finally:
            built.stop()

    def test_hysteresis_band_is_validated(
        self, blob_data, tuning_workload, tmp_path
    ):
        with pytest.raises(InputValidationError):
            PredictionCluster(
                blob_data, tuning_workload, artifact_root=tmp_path,
                memory=MEMORY, split_when=2.0, merge_when=2.0,
            )


class TestLastOwnerRace:
    def test_remove_last_owner_refused_under_dispatch_fire(self, cluster):
        """The last-owner refusal must hold while dispatches race it:
        no request may error, the table must not move, and the typed
        refusal must fire every time."""
        shard = 0
        owners = cluster.router.table.owners_of(shard)
        assert len(owners) >= 2
        # scale the other owners in gracefully: the survivor becomes
        # the last owner of the shard
        for name in owners[1:]:
            cluster.remove_replica(name)
        last = owners[0]
        assert cluster.router.table.owners_of(shard) == (last,)
        epoch = cluster.router.table.epoch

        workload = shard_workload(cluster, shard)
        stop = threading.Event()
        statuses: list[str] = []

        def hammer() -> None:
            while not stop.is_set():
                statuses.append(cluster.request(shard, workload).status)

        threads = [
            threading.Thread(target=hammer, daemon=True)
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                with pytest.raises(InputValidationError,
                                   match="last owner"):
                    cluster.remove_replica(last)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert statuses and all(s == "ok" for s in statuses)
        assert cluster.router.table.epoch == epoch
        assert cluster.router.table.owners_of(shard) == (last,)
        assert last in cluster.replicas


class TestDegenerateDrift:
    """Satellite guard: coincident frozen centers must short-circuit to
    drift 0.0 -- never a divide-by-zero or a spurious re-tune storm."""

    @given(
        base=hyp_st.lists(
            hyp_st.floats(-1e3, 1e3, allow_nan=False,
                          allow_infinity=False, width=32),
            min_size=2, max_size=4,
        ),
        n_shards=hyp_st.integers(2, 5),
        offset=hyp_st.floats(0.0, 1e3, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_centers_yield_zero_drift(
        self, base, n_shards, offset
    ):
        center = np.asarray(base, dtype=float)
        detector = DriftDetector(threshold=0.1, min_observations=4)
        detector.freeze({s: center.copy() for s in range(n_shards)})
        detector.observe(0, np.tile(center + offset, (8, 1)))
        assert detector.drift(0) == 0.0
        assert detector.proposals() == []
        assert detector.report()["degenerate"] is True

    @given(
        n_shards=hyp_st.integers(2, 5),
        step=hyp_st.floats(0.0, 10.0, allow_nan=False),
        dim=hyp_st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_collinear_centers_yield_finite_drift(
        self, n_shards, step, dim
    ):
        # centers on one line, step 0 collapsing them onto one point:
        # drift must stay finite (and exactly 0.0 when coincident)
        detector = DriftDetector(threshold=0.1, min_observations=4)
        detector.freeze({
            s: np.full(dim, s * step, dtype=float)
            for s in range(n_shards)
        })
        detector.observe(0, np.full((8, dim), 5.0))
        value = detector.drift(0)
        assert np.isfinite(value) and value >= 0.0
        report = detector.report()
        if step == 0.0:
            assert report["degenerate"] is True
        # a subnormal step can underflow the pairwise norm to zero, so
        # "degenerate" may also trip for tiny-but-nonzero steps -- the
        # contract is only that degenerate implies an exact 0.0 drift
        if report["degenerate"]:
            assert value == 0.0

    def test_separated_centers_are_not_degenerate(self):
        detector = DriftDetector(threshold=0.1, min_observations=4)
        detector.freeze({0: np.zeros(3), 1: np.full(3, 1.0)})
        detector.observe(0, np.full((8, 3), 5.0))
        assert detector.report()["degenerate"] is False
        assert detector.drift(0) > 0.0


class TestFencedPlacement:
    """Successors are routed only to the owners that registered them,
    and a refused surgery burns its ids instead of leaving state."""

    def test_successor_skips_owner_restarted_mid_placement(
        self, cluster, monkeypatch
    ):
        # replica-1 is down when child 2 is placed and comes back while
        # replica-2 registers it: replica-1 never owns child 2, so the
        # table must not route child 2 to it
        assert cluster.router.table.owners_of(1) == ("replica-1", "replica-2")
        cluster.kill_replica("replica-1")
        survivor = cluster.replicas["replica-2"]
        register = survivor.register_shard

        def register_then_restart(shard, *args, **kwargs):
            register(shard, *args, **kwargs)
            if shard == 2:
                cluster.restart_replica("replica-1")

        monkeypatch.setattr(survivor, "register_shard", register_then_restart)
        children = cluster.split_shard(1)
        assert children == (2, 3)
        table = cluster.router.table
        assert table.owners_of(2) == ("replica-2",)
        assert set(table.owners_of(3)) == {"replica-1", "replica-2"}
        for child in children:
            for name in table.owners_of(child):
                assert child in cluster.replicas[name].shards()
            response = cluster.request(child, shard_workload(cluster, child))
            assert response.ok
            assert response.tried == [] and response.failover_from is None

    def test_failed_surgery_burns_its_ids(self, cluster, monkeypatch):
        survivor = cluster.replicas["replica-2"]
        register = survivor.register_shard

        def register_then_kill_owners(shard, *args, **kwargs):
            register(shard, *args, **kwargs)
            if shard == 2:
                cluster.kill_replica("replica-1")
                cluster.kill_replica("replica-2")

        monkeypatch.setattr(
            survivor, "register_shard", register_then_kill_owners
        )
        epoch = cluster.router.table.epoch
        with pytest.raises(InputValidationError, match="no live owner"):
            cluster.split_shard(1)
        monkeypatch.undo()
        assert cluster.router.table.epoch == epoch
        assert cluster.active_shards() == [0, 1]
        assert cluster._next_shard_id == 4
        assert not {2, 3} & set(cluster.shard_points)
        for name in ("replica-1", "replica-2"):
            cluster.restart_replica(name)

        # the failed split's child-2 artifact must never serve a merge
        merged = cluster.merge_shards(1, 0)
        assert merged == 4
        config = cluster.shard_configs[merged]
        workload = shard_workload(cluster, merged)
        expected = fit_model(
            cluster.shard_points[merged], c_data=config.c_data,
            c_dir=config.c_dir, memory=MEMORY, seed=cluster.fit_seed,
        ).predict(workload).per_query
        owners = cluster.router.table.owners_of(merged)
        assert set(owners) == {"replica-0", "replica-1", "replica-2"}
        for name in owners:
            served = cluster.replicas[name].submit(merged, workload)
            response = served.result(30.0)
            assert response.status == "ok"
            assert np.array_equal(response.result.per_query, expected)


class TestDriftAnchoring:
    def test_anchoring_is_blocked_and_exact(self):
        """Anchoring recent queries on a large shard must not allocate
        a queries x points x d array, and must pick exactly the points
        the unblocked formula picks."""
        rng = np.random.default_rng(4)
        points = rng.normal(size=(2000, 16))
        recent = rng.normal(size=(256, 16))
        manager = SimpleNamespace(
            cluster=SimpleNamespace(
                shard_points={0: points},
                tuning_slices={0: SimpleNamespace(k=4)},
            ),
            drift=SimpleNamespace(recent_queries=lambda shard: recent),
        )
        tracemalloc.start()
        try:
            workload = TopologyManager._drift_workload(manager, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # unblocked, the difference array alone is 256*2000*16*8 = 64 MB
        assert peak < 24 * 2**20
        diff = recent[:, None, :] - points[None, :, :]
        expected = np.argmin(np.einsum("qnd,qnd->qn", diff, diff), axis=1)
        assert np.array_equal(workload.query_ids, expected)
        assert np.array_equal(workload.queries, points[expected])


class TestLegBook:
    def test_router_keeps_no_settled_leg(self, cluster):
        workload = cluster.make_workload(8, 4, seed=3)
        refs = []
        for seed in range(4):
            prediction = cluster.predict(workload, method="cutoff", seed=seed)
            assert prediction.complete
            refs += [
                weakref.ref(leg.pending)
                for response in prediction.responses
                for leg in response.legs
            ]
        del prediction
        assert cluster.router.metrics()["legs"] == len(refs) > 0
        assert cluster.router.in_flight() == 0
        drained = cluster.router.drain()
        books = cluster.router.epoch_ops()
        for shard in cluster.active_shards():
            across = sum(book.get(shard, 0) for book in books.values())
            assert drained[shard] == across == cluster.charged_ops(shard) > 0
        # stopping joins the service workers, whose frames may still
        # hold their last request: only the router could keep a leg now
        cluster.stop()
        gc.collect()
        assert all(ref() is None for ref in refs)
