"""Tests for the multi-tenant prediction service layer.

Covers the three pieces of :mod:`repro.service` in isolation and
together: checksummed warm-start artifacts (bit-identical reload,
corruption detection, rebuild-on-corrupt), per-tenant quotas and
ledgers, and the threaded server itself -- admission gates, deadline
handling on an injected clock, worker death with supervision, and the
no-hang shutdown contract.  Everything here runs without real sleeps
except where a thread genuinely has to block on another.
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ArtifactCorruptError,
    InputValidationError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
)
from repro.service import (
    ARTIFACT_VERSION,
    ArtifactStore,
    FittedModel,
    PredictionService,
    TenantLedger,
    TenantQuota,
    WorkerDeath,
    fit_model,
    load_artifact,
    save_artifact,
)
from repro.workload.queries import density_biased_knn_workload

N, DIM, MEMORY = 700, 6, 180


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(11).normal(size=(N, DIM))


@pytest.fixture(scope="module")
def model(points):
    return fit_model(points, c_data=30, c_dir=40, memory=MEMORY, seed=5)


@pytest.fixture(scope="module")
def workload(points):
    return density_biased_knn_workload(
        points, 15, 5, np.random.default_rng(3)
    )


class TestArtifactRoundTrip:
    def test_reload_is_bit_identical(self, model, workload, tmp_path):
        path = save_artifact(tmp_path / "m.rpro", model)
        loaded = load_artifact(path)
        for attr in ("lower", "upper", "n_points", "virtual_n"):
            assert np.array_equal(
                getattr(model.geometry, attr), getattr(loaded.geometry, attr)
            )
        assert np.array_equal(
            model.predict(workload).per_query,
            loaded.predict(workload).per_query,
        )
        assert loaded.meta == model.meta

    def test_fitting_is_deterministic(self, points, model):
        again = fit_model(points, c_data=30, c_dir=40, memory=MEMORY, seed=5)
        assert np.array_equal(model.geometry.lower, again.geometry.lower)
        assert np.array_equal(model.geometry.upper, again.geometry.upper)

    def test_save_is_atomic_no_tmp_left_behind(self, model, tmp_path):
        save_artifact(tmp_path / "m.rpro", model)
        assert [p.name for p in tmp_path.iterdir()] == ["m.rpro"]

    def test_warm_predict_reports_detail(self, model, workload):
        result = model.predict(workload)
        assert result.detail["warm"] is True
        assert result.detail["n_mini_leaves"] == model.geometry.k
        assert result.io_cost.ops == 0


class TestArtifactVerification:
    def test_any_single_byte_flip_is_detected(self, model, workload,
                                              tmp_path):
        path = save_artifact(tmp_path / "m.rpro", model)
        clean = path.read_bytes()
        rng = np.random.default_rng(9)
        for offset in rng.choice(len(clean), size=24, replace=False):
            raw = bytearray(clean)
            raw[int(offset)] ^= 0x40
            path.write_bytes(bytes(raw))
            with pytest.raises(ArtifactCorruptError):
                load_artifact(path)
        path.write_bytes(clean)  # pristine bytes still load
        assert np.array_equal(
            load_artifact(path).predict(workload).per_query,
            model.predict(workload).per_query,
        )

    def test_truncation_is_detected(self, model, tmp_path):
        path = save_artifact(tmp_path / "m.rpro", model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactCorruptError):
            load_artifact(path)

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "junk.rpro"
        path.write_bytes(b"definitely not a model artifact")
        with pytest.raises(ArtifactCorruptError) as info:
            load_artifact(path)
        assert info.value.reason in ("magic", "checksum")

    def test_version_skew_refused(self, model, tmp_path):
        path = save_artifact(tmp_path / "m.rpro", model)
        body = bytearray(path.read_bytes()[:-4])
        # bump the u32 version field right after the 4-byte magic, then
        # re-stamp the whole-file crc so only the version check can fire
        body[4:8] = struct.pack("<I", ARTIFACT_VERSION + 1)
        footer = struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
        path.write_bytes(bytes(body) + footer)
        with pytest.raises(ArtifactCorruptError) as info:
            load_artifact(path)
        assert info.value.reason == "version"

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ArtifactCorruptError):
            load_artifact(tmp_path / "never-written.rpro")

    @given(
        n=st.integers(40, 300),
        dim=st.integers(2, 8),
        memory=st.integers(20, 200),
        seed=st.integers(0, 50),
        flip=st.one_of(st.none(), st.floats(0.0, 1.0)),
        xor=st.integers(1, 255),
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, n, dim, memory,
                                seed, flip, xor):
        """Any fitted model: a clean reload predicts bit-identically;
        any tampered byte raises the typed error, never wrong answers."""
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        fitted = fit_model(points, c_data=16, c_dir=16, memory=memory,
                           seed=seed)
        path = tmp_path_factory.mktemp("artifacts") / "p.rpro"
        save_artifact(path, fitted)
        if flip is None:
            loaded = load_artifact(path)
            wl = density_biased_knn_workload(points, 8, 3,
                                             np.random.default_rng(1))
            assert np.array_equal(
                fitted.predict(wl).per_query, loaded.predict(wl).per_query
            )
        else:
            raw = bytearray(path.read_bytes())
            raw[int(flip * (len(raw) - 1))] ^= xor
            path.write_bytes(bytes(raw))
            with pytest.raises(ArtifactCorruptError):
                load_artifact(path)


class TestArtifactStore:
    def test_miss_then_hit(self, points, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def fit():
            calls.append(1)
            return fit_model(points, c_data=30, c_dir=40, memory=MEMORY)

        first = store.load_or_fit("alpha", fit)
        second = store.load_or_fit("alpha", fit)
        assert len(calls) == 1  # the hit never refits
        assert np.array_equal(first.geometry.lower, second.geometry.lower)
        assert [e[1] for e in store.events] == ["miss", "hit"]

    def test_corrupt_artifact_rebuilt_and_healed(self, points, tmp_path):
        store = ArtifactStore(tmp_path)

        def fit():
            return fit_model(points, c_data=30, c_dir=40, memory=MEMORY)

        store.load_or_fit("beta", fit)
        path = store.path_for("beta")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        rebuilt = store.load_or_fit("beta", fit)
        assert store.rebuilds() == 1
        # the bad file was overwritten: the next lookup verifies clean
        healed = store.load_or_fit("beta", fit)
        assert np.array_equal(rebuilt.geometry.lower, healed.geometry.lower)
        assert [e[1] for e in store.events] == ["miss", "rebuilt", "hit"]

    def test_keys_are_sanitized(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("ten/ant:one two")
        assert path.parent == store.directory
        assert path.name == "ten_ant_one_two.rpro"

    def test_concurrent_load_or_fit_on_corrupt_artifact(self, points,
                                                        tmp_path):
        """Two threads racing load_or_fit on the same corrupt artifact:
        the per-key lock serializes them, so exactly one rebuild-from-
        data happens, both callers get bit-identical models, and the
        file on disk is healed for the next reader."""
        store = ArtifactStore(tmp_path)

        calls = []
        lock = threading.Lock()

        def fit():
            with lock:
                calls.append(threading.current_thread().name)
            return fit_model(points, c_data=30, c_dir=40, memory=MEMORY)

        store.load_or_fit("gamma", fit)
        path = store.path_for("gamma")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        calls.clear()

        gate = threading.Barrier(3)
        models = {}

        def racer(name: str) -> None:
            gate.wait(5.0)
            models[name] = store.load_or_fit("gamma", fit)

        threads = [
            threading.Thread(target=racer, args=(f"racer-{i}",),
                             name=f"racer-{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        gate.wait(5.0)
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(calls) == 1  # one rebuild, not one per racer
        assert store.rebuilds() == 1
        first, second = models["racer-0"], models["racer-1"]
        assert np.array_equal(
            first.geometry.lower, second.geometry.lower
        )
        assert np.array_equal(
            first.geometry.upper, second.geometry.upper
        )
        # the loser of the race observed a healed file (a "hit"), and
        # the file stays verifiable afterward
        assert [e[1] for e in store.events[-2:]] == ["rebuilt", "hit"]
        store.verify("gamma")


class TestTenantQuota:
    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0},
        {"max_io_ops": -1},
        {"deadline_s": 0.0},
        {"max_retries": -1},
        {"backoff_s": -0.5},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InputValidationError):
            TenantQuota(**kwargs)

    def test_inflight_cap_refuses_with_typed_error(self):
        ledger = TenantLedger("t", TenantQuota(max_inflight=2))
        ledger.admit()
        ledger.admit()
        with pytest.raises(TenantQuotaExceededError) as info:
            ledger.admit()
        assert info.value.tenant == "t"
        assert info.value.resource == "inflight"
        ledger.release()
        ledger.admit()  # a released slot is admittable again

    def test_spent_allowance_refuses(self):
        ledger = TenantLedger("t", TenantQuota(max_inflight=8, max_io_ops=10))
        ledger.admit()
        ledger.settle(10, "ok")
        ledger.release()
        with pytest.raises(TenantQuotaExceededError) as info:
            ledger.admit()
        assert info.value.resource == "io_ops"

    def test_ledger_and_governor_agree(self):
        ledger = TenantLedger("t", TenantQuota())
        for ops, status in ((5, "ok"), (3, "degraded"), (0, "error")):
            ledger.admit()
            ledger.settle(ops, status)
            ledger.release()
        snap = ledger.snapshot()
        assert snap["charged_ops"] == snap["governor_ops"] == 8
        assert (snap["completed"], snap["degraded"], snap["errors"]) == (
            1, 1, 1,
        )
        assert snap["inflight"] == 0


class TestPredictionService:
    def test_warm_matches_direct_model(self, points, workload):
        service = PredictionService(workers=2, memory=MEMORY)
        service.register_tenant("t", points)
        with service:
            response = service.request("t", workload, timeout=30.0)
        direct = service.tenant("t").model.predict(workload)
        assert response.status == "ok"
        assert response.io_ops == 0
        assert np.array_equal(response.result.per_query, direct.per_query)

    def test_full_method_matches_unloaded_facade(self, points, workload):
        service = PredictionService(workers=2, memory=MEMORY)
        service.register_tenant("t", points)
        tenant = service.tenant("t")
        with service:
            response = service.request(
                "t", workload, method="resampled", seed=4, timeout=60.0
            )
        direct = tenant.predictor.predict(
            points, workload, method="resampled", seed=4
        )
        assert response.status == "ok"
        assert np.array_equal(response.result.per_query, direct.per_query)
        assert response.io_ops == direct.io_cost.ops

    def test_unknown_tenant_and_method(self, points, workload):
        service = PredictionService(workers=1)
        service.register_tenant("t", points)
        with service:
            with pytest.raises(InputValidationError):
                service.submit("nobody", workload)
            with pytest.raises(InputValidationError):
                service.submit("t", workload, method="telepathy")

    def test_submit_requires_running_service(self, points, workload):
        service = PredictionService(workers=1)
        service.register_tenant("t", points)
        with pytest.raises(InputValidationError):
            service.submit("t", workload)

    def test_quota_gate_refuses_typed(self, points, workload):
        gate = threading.Event()
        service = PredictionService(
            workers=1, max_queue=8,
            default_quota=TenantQuota(max_inflight=1),
            pre_request_hook=lambda item: gate.wait(10.0),
        )
        service.register_tenant("t", points)
        with service:
            first = service.submit("t", workload)
            with pytest.raises(TenantQuotaExceededError):
                service.submit("t", workload)
            gate.set()
            assert first.result(timeout=30.0).status == "ok"

    def test_quota_is_per_tenant(self, points, workload):
        gate = threading.Event()
        service = PredictionService(
            workers=1, max_queue=8,
            default_quota=TenantQuota(max_inflight=1),
            pre_request_hook=lambda item: gate.wait(10.0),
        )
        service.register_tenant("a", points)
        service.register_tenant("b", points)
        with service:
            pending = [service.submit("a", workload)]
            with pytest.raises(TenantQuotaExceededError):
                service.submit("a", workload)
            # tenant b is untouched by a's exhausted quota
            pending.append(service.submit("b", workload))
            gate.set()
            for p in pending:
                assert p.result(timeout=30.0).status == "ok"

    def test_full_queue_sheds_load(self, points, workload):
        gate = threading.Event()
        service = PredictionService(
            workers=1, max_queue=1,
            default_quota=TenantQuota(max_inflight=16),
            pre_request_hook=lambda item: gate.wait(10.0),
        )
        service.register_tenant("t", points)
        with service:
            admitted = [service.submit("t", workload)]
            # worker holds one request; one more fits the queue; the
            # queue is bounded so everything past it sheds -- possibly
            # after one more slips in while the worker dequeues
            shed = 0
            for _ in range(8):
                try:
                    admitted.append(service.submit("t", workload))
                except ServiceOverloadedError:
                    shed += 1
            assert shed > 0
            assert service.shed_overload == shed
            gate.set()
            for p in admitted:
                assert p.result(timeout=30.0).status == "ok"

    def test_deadline_expired_in_queue_no_sleep(self, points, workload):
        # the injected clock jumps 100 "seconds" per reading, so the
        # request's queue wait alone blows its deadline -- with zero
        # real sleeping anywhere
        ticks = {"now": 0.0}

        def clock() -> float:
            ticks["now"] += 100.0
            return ticks["now"]

        service = PredictionService(workers=1, clock=clock)
        service.register_tenant("t", points)
        with service:
            response = service.request(
                "t", workload, deadline_s=1.0, timeout=30.0
            )
        assert response.status == "error"
        assert response.error_type == "DeadlineExceededError"
        assert response.cause == "deadline"

    def test_worker_death_answers_then_respawns(self, points, workload):
        victims = {1}

        def hook(item) -> None:
            if item.pending.request_id in victims:
                raise WorkerDeath("chaos")

        service = PredictionService(workers=1, pre_request_hook=hook)
        service.register_tenant("t", points)
        with service:
            killed = service.request("t", workload, timeout=30.0)
            assert killed.status == "error"
            assert killed.error_type == "WorkerDeath"
            assert killed.cause == "worker"
            # the replacement worker serves the next request normally
            healthy = service.request("t", workload, timeout=30.0)
            assert healthy.status == "ok"
        assert service.workers_respawned >= 1

    def test_alive_gives_the_metrics_verdict(self, points, workload):
        """``alive()`` is ``running and workers_alive > 0`` of a
        :meth:`metrics` snapshot, through the whole lifecycle."""

        def verdict(service) -> bool:
            snapshot = service.metrics()
            return snapshot["running"] and snapshot["workers_alive"] > 0

        def hook(item) -> None:
            if item.pending.request_id == 1:
                raise WorkerDeath("chaos")

        service = PredictionService(workers=1, pre_request_hook=hook)
        service.register_tenant("t", points)
        assert service.alive() is verdict(service) is False  # not started
        service.start()
        assert service.alive() is verdict(service) is True
        killed = service.request("t", workload, timeout=30.0)
        assert killed.error_type == "WorkerDeath"
        # the dying worker hands over to its replacement first
        assert service.alive() is verdict(service) is True
        # a worker that died with no replacement yet leaves none alive
        corpse = threading.Thread(target=lambda: None)
        corpse.start()
        corpse.join()
        live, service._threads[:] = list(service._threads), [corpse]
        assert service.alive() is verdict(service) is False
        service._threads[:] = live
        service.stop()
        assert service.alive() is verdict(service) is False

    def test_stop_resolves_queued_requests(self, points, workload):
        gate = threading.Event()
        picked = threading.Event()

        def hook(item) -> None:
            picked.set()
            gate.wait(10.0)

        service = PredictionService(
            workers=1, max_queue=8,
            default_quota=TenantQuota(max_inflight=8),
            pre_request_hook=hook,
        )
        service.register_tenant("t", points)
        service.start()
        pending = [service.submit("t", workload) for _ in range(4)]
        # stop() must find the worker holding one request, or it sheds
        # all four and nothing is served
        assert picked.wait(10.0)
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        service.stop()  # drains the queue, then joins the worker
        releaser.join()
        statuses = [p.result(timeout=10.0) for p in pending]
        served = [r for r in statuses if r.status == "ok"]
        shed = [r for r in statuses if r.status == "error"]
        assert len(served) >= 1
        assert all(r.error_type == "ServiceOverloadedError" for r in shed)
        assert len(served) + len(shed) == 4  # nothing hangs, ever

    def test_warm_start_from_artifact_dir(self, points, workload, tmp_path):
        first = PredictionService(memory=MEMORY, artifact_dir=tmp_path)
        first.register_tenant("t", points)
        with first:
            reference = first.request("t", workload, timeout=30.0)
        # a second service instance loads the saved artifact instead of
        # refitting, and serves bit-identical answers
        second = PredictionService(memory=MEMORY, artifact_dir=tmp_path)
        second.register_tenant("t", points)
        assert [e[1] for e in second.store.events] == ["hit"]
        with second:
            warm = second.request("t", workload, timeout=30.0)
        assert np.array_equal(
            reference.result.per_query, warm.result.per_query
        )

    def test_register_validates_points(self):
        service = PredictionService()
        with pytest.raises(InputValidationError):
            service.register_tenant("t", np.array([[np.nan, 1.0]]))

    def test_metrics_shape(self, points, workload):
        service = PredictionService(workers=2)
        service.register_tenant("t", points)
        with service:
            service.request("t", workload, timeout=30.0)
            metrics = service.metrics()
        assert metrics["requests_resolved"] == 1
        assert metrics["tenants"]["t"]["completed"] == 1
        assert metrics["workers_alive"] == 2

    def test_metrics_uptime_and_liveness(self, points, workload):
        service = PredictionService(workers=3)
        service.register_tenant("t", points)
        assert service.metrics()["uptime_s"] == 0.0  # not yet started
        with service:
            service.request("t", workload, timeout=30.0)
            first = service.metrics()
            second = service.metrics()
        assert first["uptime_s"] > 0.0
        assert second["uptime_s"] >= first["uptime_s"]  # monotonic
        assert len(first["worker_liveness"]) == 3
        assert all(first["worker_liveness"].values())
        # uptime freezes at stop and the liveness map empties with the
        # joined workers
        stopped = service.metrics()
        assert stopped["uptime_s"] >= second["uptime_s"]
        final = service.metrics()
        assert final["uptime_s"] == stopped["uptime_s"]
        assert final["workers_alive"] == 0

    def test_stop_is_idempotent(self, points, workload):
        service = PredictionService(workers=2)
        service.register_tenant("t", points)
        service.start()
        service.request("t", workload, timeout=30.0)
        service.stop()
        service.stop()  # second call is a no-op, not an error
        assert service.metrics()["running"] is False

    def test_stop_never_started_is_noop(self, points):
        service = PredictionService(workers=2)
        service.register_tenant("t", points)
        service.stop()  # signal handlers may reach a pre-start service
        assert service.metrics()["running"] is False


class TestBatchedPrediction:
    """The fused warm path: ``predict_many`` and the
    request coalescer are pure speed knobs -- every answer, detail dict,
    and charged op is bit-identical to the one-request-at-a-time path."""

    def _workloads(self, points, n):
        return [
            density_biased_knn_workload(
                points, 6 + i, 4, np.random.default_rng(20 + i)
            )
            for i in range(n)
        ]

    def test_predict_many_matches_per_request(self, points, model):
        workloads = self._workloads(points, 3)
        fused = model.predict_many(workloads)
        for workload, result in zip(workloads, fused):
            solo = model.predict(workload)
            np.testing.assert_array_equal(result.per_query, solo.per_query)
            assert result.detail == solo.detail
            assert result.io_cost.ops == solo.io_cost.ops

    def test_predict_many_rejects_mixed_workload_types(self, points, model):
        from repro.workload.queries import RangeWorkload

        knn = self._workloads(points, 1)[0]
        ranged = RangeWorkload(lower=points[:4] - 0.1, upper=points[:4] + 0.1)
        with pytest.raises(InputValidationError):
            model.predict_many([knn, ranged])

    def test_coalesce_knob_validated(self):
        with pytest.raises(InputValidationError):
            PredictionService(coalesce=True, coalesce_window_ms=-1.0)
        with pytest.raises(InputValidationError):
            PredictionService(coalesce=True, coalesce_max_batch=0)

    def test_coalesced_responses_byte_identical(self, points):
        workloads = self._workloads(points, 2)
        per_tenant = 6
        responses = {}
        for coalesce in (False, True):
            service = PredictionService(
                workers=1, max_queue=64, memory=MEMORY,
                default_quota=TenantQuota(max_inflight=64),
                coalesce=coalesce, coalesce_window_ms=250.0,
            )
            for i in range(2):
                service.register_tenant(f"t{i}", points, fit_seed=5)
            with service:
                pending = [
                    (name, service.submit(name, workloads[i]))
                    for _ in range(per_tenant)
                    for i, name in enumerate(("t0", "t1"))
                ]
                responses[coalesce] = [
                    (name, p.result(timeout=60.0)) for name, p in pending
                ]
            if coalesce:
                batching = service.metrics()["batching"]
                assert batching["batches_dispatched"] > 0
                assert (batching["batched_requests"]
                        > batching["batches_dispatched"])
            for i in range(2):
                ledger = service.tenant(f"t{i}").ledger.snapshot()
                assert ledger["completed"] == per_tenant
                assert ledger["charged_ops"] == 0  # warm serves charge none
        for (name_a, a), (name_b, b) in zip(responses[False],
                                            responses[True]):
            assert name_a == name_b
            assert a.status == b.status == "ok"
            assert a.io_ops == b.io_ops
            assert a.result.detail == b.result.detail
            np.testing.assert_array_equal(
                a.result.per_query, b.result.per_query
            )

    def test_full_methods_never_fuse(self, points, workload):
        service = PredictionService(
            workers=1, max_queue=64, memory=MEMORY,
            default_quota=TenantQuota(max_inflight=64),
            coalesce=True, coalesce_window_ms=250.0,
        )
        service.register_tenant("t", points)
        with service:
            pending = [
                service.submit("t", workload, method="resampled", seed=4)
                for _ in range(3)
            ]
            answers = [p.result(timeout=120.0) for p in pending]
        direct = service.tenant("t").predictor.predict(
            points, workload, method="resampled", seed=4
        )
        for response in answers:
            assert response.status == "ok"
            np.testing.assert_array_equal(
                response.result.per_query, direct.per_query
            )
        # governed full requests took the solo path: no warm batches
        assert service.metrics()["batching"]["batches_dispatched"] == 0
