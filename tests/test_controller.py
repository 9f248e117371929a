"""Deterministic-tick suite for the autonomous topology controller.

Every policy decision -- dwell windows, cool-downs, the no-flap rule,
priority ordering, refusals, busy skips -- is driven through
:meth:`TopologyController.tick` against a scripted fake topology with
an injected counting clock: zero wall-clock sleeps, zero real
surgeries.  A final set of tests runs the loop against a real
over-partitioned cluster to prove the fake didn't lie about the
interfaces.
"""

from __future__ import annotations

import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import PredictionCluster, shard_tenant
from repro.cluster.controller import TopologyController
from repro.errors import BudgetExceededError, InputValidationError
from repro.workload.queries import density_biased_knn_workload


# ---------------------------------------------------------------------------
# Scripted fakes: the controller only sees detector outputs and thunks
# ---------------------------------------------------------------------------


class FakeDrift:
    def __init__(self):
        self.props: list = []

    def proposals(self):
        return list(self.props)

    def live_center(self, shard):
        return f"center-{shard}"


class FakeTopology:
    """Scriptable detectors over a mutable shard set."""

    def __init__(self, active=(0, 1, 2)):
        self.active = set(active)
        self.events: list[dict] = []
        self.drift = FakeDrift()
        self.splits: list[dict] = []
        self.merges: list[dict] = []
        self.calls: list[tuple] = []
        self.fail_next: BaseException | None = None
        self._next_id = 100

    def split_candidates(self):
        return [c for c in self.splits if c["shard"] in self.active]

    def merge_candidates(self):
        return [c for c in self.merges
                if set(c["pair"]) <= self.active]

    def _drift_workload(self, shard):
        return f"workload-{shard}"

    def _surgery(self, op, parents, n_children):
        if self.fail_next is not None:
            error, self.fail_next = self.fail_next, None
            raise error
        children = tuple(
            self._next_id + i for i in range(n_children)
        )
        self._next_id += n_children
        self.active -= set(parents)
        self.active |= set(children)
        self.events.append({
            "op": op, "shards": list(parents),
            "children": list(children),
        })
        return children

    def re_tune_shard(self, shard, *, workload=None, center=None):
        self.calls.append(("re-tune", shard, workload, center))
        return self._surgery("re-tune", (shard,), 1)[0]

    def split_shard(self, shard):
        self.calls.append(("split", shard))
        return self._surgery("split", (shard,), 2)

    def merge_shards(self, a, b):
        self.calls.append(("merge", a, b))
        return self._surgery("merge", (a, b), 1)[0]


class FakeCluster:
    def __init__(self, active=(0, 1, 2)):
        self.topology = FakeTopology(active)
        self.router = SimpleNamespace(in_flight=lambda: 0)

    def active_shards(self):
        return sorted(self.topology.active)


def make_controller(cluster=None, **kwargs):
    cluster = cluster or FakeCluster()
    ticks = [0.0]

    def clock():
        ticks[0] += 1.0
        return ticks[0]

    kwargs.setdefault("clock", clock)
    return cluster, TopologyController(cluster, **kwargs)


def drift_proposal(shard, drift=0.9):
    return SimpleNamespace(shard=shard, drift=drift)


# ---------------------------------------------------------------------------
# Construction and lifecycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    {"interval_s": 0.0}, {"interval_s": -1.0},
    {"dwell_epochs": 0}, {"cooldown_epochs": -1},
])
def test_constructor_rejects_bad_hysteresis(bad):
    with pytest.raises(InputValidationError):
        TopologyController(FakeCluster(), **bad)


def test_start_stop_lifecycle():
    cluster, controller = make_controller(interval_s=0.005)
    assert not controller.running
    controller.start()
    controller.start()  # idempotent
    assert controller.running
    controller.stop()
    controller.stop()  # idempotent
    assert not controller.running
    # a stopped controller can be restarted
    controller.start()
    assert controller.running
    controller.stop()


def test_idle_tick_records_epoch_and_gauge():
    cluster, controller = make_controller()
    record = controller.tick()
    assert record["action"] == "idle"
    assert record["tick"] == controller.epoch == 1
    assert record["in_flight"] == 0
    assert controller.counters["ticks"] == 1
    assert controller.events == [record]


# ---------------------------------------------------------------------------
# Dwell window
# ---------------------------------------------------------------------------


def test_merge_waits_out_dwell_window():
    cluster, controller = make_controller(dwell_epochs=3)
    cluster.topology.merges = [{"pair": (0, 1), "ratio": 1.0}]
    assert controller.tick()["action"] == "idle"
    assert controller.tick()["action"] == "idle"
    assert controller.counters["dwell_waits"] == 2
    record = controller.tick()
    assert record["action"] == "merge"
    assert record["pair"] == [0, 1]
    assert cluster.topology.calls == [("merge", 0, 1)]
    assert cluster.active_shards() == [2, 100]


def test_dwell_resets_when_candidate_disappears():
    cluster, controller = make_controller(dwell_epochs=2)
    pair = {"pair": (0, 1), "ratio": 1.0}
    cluster.topology.merges = [pair]
    assert controller.tick()["action"] == "idle"  # dwell 1
    cluster.topology.merges = []
    assert controller.tick()["action"] == "idle"  # gone: clock resets
    cluster.topology.merges = [pair]
    assert controller.tick()["action"] == "idle"  # dwell 1 again
    assert controller.tick()["action"] == "merge"  # dwell 2: fires


# ---------------------------------------------------------------------------
# Priority and cool-down
# ---------------------------------------------------------------------------


def test_priority_retune_beats_split_beats_merge():
    cluster, controller = make_controller(
        dwell_epochs=1, cooldown_epochs=0
    )
    topology = cluster.topology
    topology.drift.props = [drift_proposal(2)]
    topology.splits = [{"shard": 1, "ratio": 9.0}]
    topology.merges = [{"pair": (0, 1), "ratio": 1.0}]
    record = controller.tick()
    assert record["action"] == "re-tune"
    assert record["shard"] == 2
    # the re-tune passed the synthesized workload and live center
    assert topology.calls[-1] == (
        "re-tune", 2, "workload-2", "center-2"
    )
    topology.drift.props = []
    assert controller.tick()["action"] == "split"
    topology.splits = []
    # shard 2 became 100 (re-tune) and shard 1 became 101+102 (split);
    # re-point the merge pair at survivors before it can fire
    topology.merges = [{"pair": (0, 100), "ratio": 1.0}]
    assert controller.tick()["action"] == "merge"


def test_cooldown_vetoes_surgery_on_newborn_shard():
    cluster, controller = make_controller(
        dwell_epochs=1, cooldown_epochs=2
    )
    topology = cluster.topology
    topology.splits = [{"shard": 0, "ratio": 9.0}]
    record = controller.tick()  # epoch 1: split -> children 100, 101
    assert record["action"] == "split"
    children = record["successors"]
    topology.splits = [{"shard": children[0], "ratio": 9.0}]
    # cool-down runs until epoch 3 (birth 1 + cooldown 2)
    assert controller.tick()["action"] == "idle"  # epoch 2: cooling
    assert controller.counters["cooldown_vetoes"] == 1
    assert controller.tick()["action"] == "split"  # epoch 3: released
    assert controller.flaps == 0


def test_absorbs_manual_surgeries_from_event_log():
    cluster, controller = make_controller(cooldown_epochs=3)
    # a human performed a split behind the controller's back
    cluster.topology.split_shard(1)
    controller.tick()
    report = controller.report()
    assert set(report["born"]) == {100, 101}
    assert report["born"][100]["op"] == "split"
    assert report["cooling"] == {100: 4, 101: 4}


# ---------------------------------------------------------------------------
# The no-flap rule
# ---------------------------------------------------------------------------


def test_no_flap_merge_child_may_not_split_within_dwell():
    cluster, controller = make_controller(
        dwell_epochs=2, cooldown_epochs=0
    )
    topology = cluster.topology
    topology.merges = [{"pair": (0, 1), "ratio": 1.0}]
    controller.tick()                                 # dwell 1
    record = controller.tick()                        # merge -> 100
    assert record["action"] == "merge"
    merged = record["successors"][0]
    topology.merges = []
    # the merged child immediately looks expensive: a split candidate
    topology.splits = [{"shard": merged, "ratio": 9.0}]
    assert controller.tick()["action"] == "idle"      # flap veto
    assert controller.counters["flap_vetoes"] == 1
    assert controller.tick()["action"] == "split"     # window passed
    # the veto *worked*, so no actual flap was ever recorded
    assert controller.flaps == 0


def test_no_flap_split_child_may_not_merge_within_dwell():
    cluster, controller = make_controller(
        dwell_epochs=3, cooldown_epochs=0
    )
    topology = cluster.topology
    topology.splits = [{"shard": 0, "ratio": 9.0}]
    record = controller.tick()                        # split -> 100, 101
    children = record["successors"]
    topology.splits = []
    topology.merges = [{"pair": tuple(children), "ratio": 1.0}]
    # dwell alone holds it for ticks 2-3; tick 4 is ripe but the pair
    # was born of a split at epoch 1, so 4 - 1 = 3 is the first epoch
    # the no-flap window allows -- the two gates hand over exactly.
    assert controller.tick()["action"] == "idle"      # dwell 1
    assert controller.tick()["action"] == "idle"      # dwell 2
    assert controller.tick()["action"] == "merge"     # dwell 3, window up
    assert controller.flaps == 0


# ---------------------------------------------------------------------------
# Refusals and serialization
# ---------------------------------------------------------------------------


def test_budget_refusal_leaves_topology_untouched():
    cluster, controller = make_controller(dwell_epochs=1)
    topology = cluster.topology
    topology.merges = [{"pair": (0, 1), "ratio": 1.0}]
    topology.fail_next = BudgetExceededError(
        "io_ops", spent=10.0, limit=5.0, phase="merge"
    )
    record = controller.tick()
    assert record["action"] == "refused:merge"
    assert record["error"] == "BudgetExceededError"
    assert controller.counters["refused_merge"] == 1
    assert cluster.active_shards() == [0, 1, 2]  # untouched
    # admission recovers next tick: the same decision fires cleanly
    assert controller.tick()["action"] == "merge"
    assert cluster.active_shards() == [2, 100]


def test_concurrent_tick_skips_instead_of_queueing():
    cluster, controller = make_controller()
    assert controller._lock.acquire(blocking=False)
    try:
        record = controller.tick()
    finally:
        controller._lock.release()
    assert record["action"] == "skip:surgery-in-flight"
    assert controller.counters["busy_skips"] == 1
    assert controller.epoch == 0  # a skipped tick is not an epoch
    assert controller.tick()["action"] == "idle"  # lock released: runs


def test_background_loop_survives_tick_errors():
    cluster, controller = make_controller(interval_s=0.001)

    fired = threading.Event()

    def exploding(*args, **kwargs):
        fired.set()
        raise RuntimeError("detector blew up")

    cluster.topology.merge_candidates = exploding
    controller.start()
    assert fired.wait(timeout=5.0)
    assert controller.running  # the loop outlived the error
    controller.stop()
    assert controller.counters["tick_errors"] >= 1
    assert any(e["action"] == "error" for e in controller.events)


def test_report_shape():
    cluster, controller = make_controller(dwell_epochs=2)
    cluster.topology.merges = [{"pair": (0, 1), "ratio": 1.0}]
    controller.tick()
    report = controller.report()
    assert report["epoch"] == 1
    assert report["flaps"] == 0
    assert report["dwell"] == {"0+1": 1}
    assert report["running"] is False
    assert report["counters"]["ticks"] == 1


# ---------------------------------------------------------------------------
# Against a real cluster
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blob_data():
    rng = np.random.default_rng(7)
    data = np.vstack([
        rng.normal(0.0, 1.0, size=(200, 4)),
        rng.normal(6.0, 0.5, size=(200, 4)),
    ])
    tuning = density_biased_knn_workload(data, 16, 4, rng)
    return data, tuning


def make_cluster(blob_data, tmp_path, **kwargs):
    data, tuning = blob_data
    kwargs.setdefault("n_shards", 3)
    kwargs.setdefault("merge_when", 2.5)
    return PredictionCluster(
        data, tuning, artifact_root=tmp_path,
        n_replicas=3, replication=2, memory=200,
        fit_seed=7, seed=7, **kwargs,
    )


def test_real_cluster_controller_merges_over_partition(
    blob_data, tmp_path
):
    cluster = make_cluster(blob_data, tmp_path)
    try:
        ticks = [0.0]

        def clock():
            ticks[0] += 0.5
            return ticks[0]

        controller = cluster.start_controller(
            autostart=False, dwell_epochs=2, clock=clock,
        )
        records = [controller.tick() for _ in range(5)]
        actions = [r["action"] for r in records]
        assert actions.count("merge") == 1
        assert controller.flaps == 0
        # the merged shard serves, and metrics expose the loop
        merged = cluster.active_shards()[-1]
        workload = density_biased_knn_workload(
            cluster.shard_points[merged], 4, 4,
            np.random.default_rng(1),
        )
        assert cluster.request(merged, workload).status == "ok"
        assert cluster.metrics()["controller"]["epoch"] == 5
        # the merged model is fitted once and every other owner adopts
        # its bytes; no replica rebuilds anything
        live = [replica for replica in cluster.replicas.values()
                if not replica.down and replica.service is not None]
        assert [r.service.store.rebuilds() for r in live] == [0] * len(live)
        merged_events = Counter(
            outcome for replica in live
            for key, outcome, _ in replica.service.store.events
            if key == shard_tenant(merged)
        )
        owners = cluster.router.table.owners_of(merged)
        assert merged_events["miss"] == 1
        assert merged_events["adopted"] == len(owners) - 1 > 0
        assert cluster.router.unavailable == 0
        assert cluster.router.stale_rejections == 0
    finally:
        cluster.stop()


def test_real_cluster_refuses_second_controller(blob_data, tmp_path):
    cluster = make_cluster(blob_data, tmp_path)
    try:
        cluster.start_controller(interval_s=60.0)
        with pytest.raises(InputValidationError):
            cluster.start_controller()
        cluster.stop_controller()
        # after stopping, attaching again is fine
        cluster.start_controller(autostart=False)
    finally:
        cluster.stop()
