"""Tests for the sharded prediction cluster.

Covers each layer in isolation and composed: the seeded similarity
partition, per-shard page-size tuning, the restartable replica wrapper
and its retired-op accounting, the failure-aware router (failover with
a causal record, stale-table tolerance, typed unavailability, degraded
closed-form fallback), anti-entropy artifact healing (peer adoption and
the every-copy-bad rebuild path), and the acceptance guarantees: a
single replica kill never fails a request for a shard with a healthy
peer, and a corrupt artifact heals bit-identically without refitting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    PredictionCluster,
    partition_workload,
    shard_tenant,
    tune_shard,
)
from repro.cluster.tuning import DEFAULT_TUNING_PAGE_SIZES
from repro.errors import InputValidationError
from repro.workload.queries import KNNWorkload, density_biased_knn_workload

N_PER_BLOB, DIM, MEMORY = 120, 4, 100


@pytest.fixture(scope="module")
def blob_data():
    """Two well-separated gaussian blobs: the partition has structure."""
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


class TestPartition:
    def test_deterministic_for_seed(self, tuning_workload):
        first = partition_workload(tuning_workload, 3, seed=7)
        again = partition_workload(tuning_workload, 3, seed=7)
        assert np.array_equal(first.centroids, again.centroids)
        assert np.array_equal(first.assignments, again.assignments)

    def test_every_shard_nonempty_on_fit(self, tuning_workload):
        for n_shards in (1, 2, 3, 5):
            part = partition_workload(tuning_workload, n_shards, seed=0)
            assert part.n_shards == n_shards
            assert set(np.unique(part.assignments)) == set(range(n_shards))

    def test_split_restores_original_order(self, tuning_workload):
        part = partition_workload(tuning_workload, 3, seed=0)
        pieces = part.split(tuning_workload)
        covered = np.concatenate([idx for _, idx, _ in pieces])
        assert sorted(covered.tolist()) == list(
            range(tuning_workload.n_queries)
        )
        for shard, idx, sub in pieces:
            assert np.array_equal(
                sub.queries, tuning_workload.queries[idx]
            )
            assert np.all(part.shard_of(sub.queries) == shard)

    def test_separated_blobs_split_cleanly(self, blob_data, tuning_workload):
        part = partition_workload(tuning_workload, 2, seed=0)
        shards = part.shard_of(blob_data)
        # each blob lands (almost) entirely in one shard
        first, second = shards[:N_PER_BLOB], shards[N_PER_BLOB:]
        assert np.mean(first == np.bincount(first).argmax()) > 0.95
        assert np.mean(second == np.bincount(second).argmax()) > 0.95

    def test_rejects_bad_shard_counts(self, tuning_workload):
        with pytest.raises(InputValidationError):
            partition_workload(tuning_workload, 0)
        with pytest.raises(InputValidationError):
            partition_workload(tuning_workload,
                               tuning_workload.n_queries + 1)

    def test_dimension_mismatch_is_typed(self, tuning_workload):
        part = partition_workload(tuning_workload, 2, seed=0)
        with pytest.raises(InputValidationError):
            part.shard_of(np.zeros((3, DIM + 1)))


class TestTuneShard:
    def test_config_comes_from_the_sweep(self, blob_data, tuning_workload):
        part = partition_workload(tuning_workload, 2, seed=0)
        config = tune_shard(
            0, blob_data, part.slice(tuning_workload, 0), memory=MEMORY
        )
        assert config.page_bytes in DEFAULT_TUNING_PAGE_SIZES
        assert config.disk.page_bytes == config.page_bytes
        assert config.predicted_seconds > 0
        assert config.n_tuning_queries > 0
        payload = config.as_dict()
        for key in ("shard", "page_bytes", "c_data", "c_dir",
                    "predicted_seconds"):
            assert key in payload


class TestReplica:
    def test_restart_serves_bit_identical_from_artifact(self, cluster):
        workload = cluster.make_workload(6, 4, seed=2)
        shard0 = cluster.partition.split(workload)[0][2]
        name = cluster.router.table.owners_of(0)[0]
        replica = cluster.replicas[name]
        before = replica.submit(0, shard0).result(10.0)
        replica.kill()
        assert replica.down and not replica.healthy()
        replica.restart()
        # the restarted generation warm-started from its own artifact
        # store: no refit, and answers are bit-identical
        assert replica.service.store.rebuilds() == 0
        after = replica.submit(0, shard0).result(10.0)
        assert np.array_equal(
            before.result.per_query, after.result.per_query
        )

    def test_healthy_follows_the_service(self, cluster):
        """Up while its service runs a live worker; down once the
        service stops (even without a kill), is killed or is retired."""
        name = cluster.router.table.owners_of(0)[0]
        replica = cluster.replicas[name]
        assert replica.healthy() and replica.service.alive()
        replica.service.stop()
        assert not replica.down and not replica.healthy()
        replica.service.start()
        assert replica.healthy()
        replica.kill()
        assert not replica.healthy()
        replica.restart()
        assert replica.healthy()
        replica.retire()
        assert replica.service is None and not replica.healthy()

    def test_kill_folds_charged_ops(self, cluster):
        workload = cluster._remap(
            0, cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        )
        name = cluster.router.table.owners_of(0)[0]
        replica = cluster.replicas[name]
        charged = replica.submit(
            0, workload, method="cutoff"
        ).result(30.0)
        assert charged.io_ops > 0
        replica.kill()
        assert replica.charged_ops(0) == charged.io_ops
        replica.restart()
        assert replica.charged_ops(0) == charged.io_ops  # survives restart

    def test_kill_and_restart_are_idempotent(self, cluster):
        name = cluster.router.table.owners_of(0)[0]
        replica = cluster.replicas[name]
        replica.kill()
        replica.kill()
        assert replica.kills == 1
        replica.restart()
        replica.restart()
        assert replica.restarts == 1

    def test_submit_unowned_shard_is_typed(self, cluster):
        workload = cluster.make_workload(4, 4)
        for replica in cluster.replicas.values():
            missing = next(
                s for s in range(99) if s not in replica.shards()
            )
            with pytest.raises(InputValidationError):
                replica.submit(missing, workload)


class TestRouting:
    def test_primary_serves_when_healthy(self, cluster):
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        response = cluster.request(0, workload)
        assert response.status == "ok"
        assert response.served_by == cluster.router.table.owners_of(0)[0]
        assert response.failover_from is None

    def test_failover_carries_causal_record(self, cluster):
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        reference = cluster.request(0, workload)
        primary = cluster.router.table.owners_of(0)[0]
        cluster.kill_replica(primary)
        response = cluster.request(0, workload)
        assert response.status == "ok"
        assert response.served_by != primary
        assert response.failover_from == primary
        assert (primary, "down") in response.tried
        assert np.array_equal(
            response.result.per_query, reference.result.per_query
        )

    def test_stale_table_entry_is_skipped_not_fatal(self, cluster):
        table = cluster.router.table
        owners = {s: ("ghost",) + o for s, o in table.owners.items()}
        costs = {
            s: {"ghost": 0.0, **c} for s, c in table.costs.items()
        }
        cluster.router.install_table(
            type(table)(version=2, owners=owners, costs=costs)
        )
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        response = cluster.request(0, workload)
        assert response.status == "ok"
        assert ("ghost", "unknown") in response.tried
        assert response.routing_version == 2

    def test_all_owners_down_degrades_to_closed_form(self, cluster):
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        for name in cluster.router.table.owners_of(0):
            cluster.kill_replica(name)
        response = cluster.request(0, workload)
        assert response.status == "degraded"
        assert response.method_used == "closed_form"
        assert response.cause == "unavailable"
        assert response.result is not None
        assert np.all(np.isfinite(response.result.per_query))

    def test_all_owners_down_without_degrade_is_typed(self, cluster):
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        for name in cluster.router.table.owners_of(0):
            cluster.kill_replica(name)
        response = cluster.request(0, workload, degrade=False)
        assert response.status == "error"
        assert response.error_type == "ReplicaUnavailableError"
        assert len(response.tried) >= 2  # every owner accounted for

    def test_drain_reconciles_with_responses(self, cluster):
        workload = cluster._remap(
            0, cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        )
        responses = [
            cluster.request(0, workload, method="cutoff", seed=i)
            for i in range(3)
        ]
        drained = cluster.router.drain()
        assert drained[0] == sum(r.charged_ops() for r in responses)
        assert drained[0] == cluster.charged_ops(0)


class TestAntiEntropy:
    def test_corrupt_copy_healed_from_peer_bit_identically(self, cluster):
        owners = cluster.router.table.owners_of(0)
        victim = owners[0]
        pristine = cluster.replicas[victim].artifact_path(0).read_bytes()
        cluster.corrupt_artifact(victim, 0)
        report = cluster.anti_entropy()
        assert report[0]["rebuilt"] is None
        assert report[0]["healed"] == [{
            "replica": victim, "via": f"peer:{owners[1]}",
            "reason": "checksum",
        }]
        healed = cluster.replicas[victim].artifact_path(0).read_bytes()
        assert healed == pristine
        assert all(
            r.service.store.rebuilds() == 0
            for r in cluster.replicas.values()
        )

    def test_missing_copy_healed_from_peer(self, cluster):
        owners = cluster.router.table.owners_of(0)
        victim = owners[0]
        pristine = cluster.replicas[victim].artifact_path(0).read_bytes()
        cluster.replicas[victim].artifact_path(0).unlink()
        report = cluster.anti_entropy()
        assert report[0]["healed"][0]["reason"] == "header"
        assert cluster.replicas[victim].artifact_path(0).read_bytes() \
            == pristine

    def test_every_copy_bad_rebuilds_once_then_propagates(self, cluster):
        owners = cluster.router.table.owners_of(0)
        pristine = cluster.replicas[owners[0]].artifact_path(0).read_bytes()
        for name in owners:
            cluster.corrupt_artifact(name, 0)
        report = cluster.anti_entropy()
        assert report[0]["rebuilt"] == owners[0]
        assert {e["replica"] for e in report[0]["healed"]} == set(owners)
        assert [e["via"] for e in report[0]["healed"]] == (
            ["rebuild"] + [f"peer:{owners[0]}"] * (len(owners) - 1)
        )
        rebuilds = sum(
            r.service.store.rebuilds() for r in cluster.replicas.values()
        )
        assert rebuilds == 1  # one fit-from-data, everyone else adopted
        # deterministic refit: the rebuilt artifact is the original one
        for name in owners:
            assert cluster.replicas[name].artifact_path(0).read_bytes() \
                == pristine

    def test_second_pass_on_healed_cluster_is_idempotent(self, cluster):
        """Anti-entropy must converge: a pass over a just-healed
        cluster verifies every copy and moves no bytes -- zero heals,
        zero adoptions, zero rebuilds."""
        victim = cluster.router.table.owners_of(0)[0]
        cluster.corrupt_artifact(victim, 0)
        first = cluster.anti_entropy()
        assert first[0]["healed"]

        def store_events():
            return {
                name: len(replica.service.store.events)
                for name, replica in cluster.replicas.items()
            }

        events_before = store_events()
        second = cluster.anti_entropy()
        for shard, entry in second.items():
            assert entry["healed"] == [], f"shard {shard} re-healed"
            assert entry["rebuilt"] is None
            assert set(entry["verified"]) == \
                set(cluster.router.table.owners_of(shard))
        # no store activity at all: verification reads, no copies
        assert store_events() == events_before
        assert all(
            r.service.store.rebuilds() == 0
            for r in cluster.replicas.values()
        )

    def test_serving_is_bit_identical_after_heal(self, cluster):
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        reference = cluster.request(0, workload)
        victim = cluster.router.table.owners_of(0)[0]
        cluster.corrupt_artifact(victim, 0)
        cluster.anti_entropy()
        healed = cluster.request(0, workload)
        assert healed.served_by == victim
        assert np.array_equal(
            reference.result.per_query, healed.result.per_query
        )


class TestPredictionCluster:
    def test_predict_merges_in_original_order(self, cluster):
        workload = cluster.make_workload(10, 4, seed=3)
        prediction = cluster.predict(workload)
        assert prediction.complete
        assert prediction.per_query.shape == (10,)
        # merged values agree with per-shard direct requests
        for shard, idx, sub in cluster.partition.split(workload):
            direct = cluster.request(shard, sub)
            assert np.array_equal(
                prediction.per_query[idx], direct.result.per_query
            )

    def test_full_method_predict_charges_io(self, cluster):
        workload = cluster.make_workload(8, 4, seed=4)
        prediction = cluster.predict(workload, method="cutoff")
        assert prediction.complete
        assert sum(r.charged_ops() for r in prediction.responses) > 0

    def test_foreign_query_ids_are_typed(self, cluster):
        foreign = KNNWorkload(
            k=4,
            query_ids=np.array([10 ** 6]),
            queries=cluster.data[:1],
            radii=np.array([0.5]),
        )
        with pytest.raises(InputValidationError):
            cluster.predict(foreign, method="cutoff")

    def test_any_single_kill_never_fails_a_request(self, cluster):
        """The acceptance criterion: replication 2 on 3 replicas means
        every shard keeps a healthy owner under any single kill."""
        workload = cluster.make_workload(10, 4, seed=5)
        reference = cluster.predict(workload)
        for name in sorted(cluster.replicas):
            cluster.kill_replica(name)
            prediction = cluster.predict(workload)
            assert prediction.complete
            assert all(r.status == "ok" for r in prediction.responses)
            assert np.array_equal(
                prediction.per_query, reference.per_query
            )
            cluster.restart_replica(name)

    def test_replication_one_leaves_no_failover(self, blob_data,
                                                tuning_workload, tmp_path):
        solo = PredictionCluster(
            blob_data, tuning_workload, artifact_root=tmp_path / "solo",
            replication=1, memory=MEMORY,
        )
        try:
            workload = solo.partition.split(solo.make_workload(6, 4))[0][2]
            solo.kill_replica(solo.router.table.owners_of(0)[0])
            response = solo.request(0, workload, degrade=False)
            assert response.status == "error"
            assert response.error_type == "ReplicaUnavailableError"
        finally:
            solo.stop()

    def test_rejects_bad_replication(self, blob_data, tuning_workload,
                                     tmp_path):
        with pytest.raises(InputValidationError):
            PredictionCluster(
                blob_data, tuning_workload, artifact_root=tmp_path,
                n_replicas=2, replication=3, memory=MEMORY,
            )

    def test_owners_are_bit_identical_peers(self, cluster):
        """Every owner of a shard holds byte-identical artifacts -- the
        precondition for both failover bit-identity and peer healing."""
        for shard in range(cluster.n_shards):
            owners = cluster.router.table.owners_of(shard)
            blobs = {
                cluster.replicas[name].artifact_path(shard).read_bytes()
                for name in owners
            }
            assert len(blobs) == 1

    def test_metrics_shape(self, cluster):
        metrics = cluster.metrics()
        assert metrics["n_shards"] == cluster.n_shards
        assert set(metrics["replicas"]) == set(cluster.replicas)
        assert metrics["table"]["version"] == 1
        for shard in range(cluster.n_shards):
            assert shard in metrics["shards"]

    def test_tenant_key_naming(self):
        assert shard_tenant(3) == "shard-3"


class TestErrorLegs:
    def test_failed_leg_is_judged_once(self, cluster):
        """A leg whose error verdict was already recorded in the cost
        walk must not be re-judged while the router waits for hedged
        legs: one tried entry and one breaker failure per leg."""
        from repro.errors import PredictionError

        def fail(item):
            raise PredictionError("injected")

        owners = cluster.router.table.owners_of(0)
        for name in owners:
            cluster.replicas[name].request_hook = fail
        workload = cluster.partition.split(cluster.make_workload(6, 4))[0][2]
        response = cluster.request(0, workload)
        assert response.status == "degraded"
        assert response.tried == [
            (name, "error:PredictionError") for name in owners
        ]
        # one failure per breaker stays under min_calls=2: still closed
        for name in owners:
            breaker = cluster.router.breaker_for(name, 0)
            assert breaker.state == "closed"
            assert breaker.opened_count == 0
