"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``
from the root of a checkout."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cluster_routed  # noqa: E402
import common  # noqa: E402
import predict_oneshot  # noqa: E402
import run  # noqa: E402
import serve_open  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalogue_matches_benchmark_json():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == common.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "cluster_routed", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _result(per_query, **detail):
    from repro.disk import IOCost

    return SimpleNamespace(
        per_query=np.asarray(per_query), detail=detail, io_cost=IOCost(1, 2),
        relative_error=lambda measured: (np.mean(per_query) - measured)
        / measured,
    )


def test_oneshot_check_rejects_a_perturbed_answer():
    state = {"measured_mean": 10.0}
    answers = {}
    assert predict_oneshot._check(state, 7, _result([10, 10]), answers) \
        is None
    kind, _ = predict_oneshot._check(state, 7, _result([10, 11]), answers)
    assert kind == "wrong"
    kind, _ = predict_oneshot._check(
        state, 8, _result([10, 10], degradation={"method_used": "cutoff"}),
        answers)
    assert kind == "degraded"


def _response(per_query, **fields):
    base = dict(status="ok", latency_s=0.004, queue_wait_s=0.001,
                method_used="warm", io_ops=0, error=None,
                result=SimpleNamespace(per_query=np.asarray(per_query),
                                       detail={}))
    base.update(fields)
    return SimpleNamespace(**base)


def test_serve_check_rejects_a_perturbed_answer():
    state = {"expected": {"warm": [[np.array([3, 4])]], "full": [[]]}}
    good = (0.0, 0.0, _response([3, 4]), 0, 0, False)
    bad = (0.0, 0.0, _response([3, 5]), 0, 0, False)
    phase = {"records": [good, bad], "refused": 0, "shed": 0,
             "backlog": {"end": 0}}
    result = serve_open._classify(state, phase)
    assert [kind for kind, _ in result["failures"]] == ["wrong"]
    assert len(result["warm"]) == 1


def test_cluster_check_rejects_a_perturbed_answer():
    leg = SimpleNamespace(replica="replica-0", wait=lambda timeout: SimpleNamespace(
        latency_s=0.002, queue_wait_s=0.0005))
    shard = SimpleNamespace(status="ok", served_by="replica-0", legs=[leg])

    def prediction(per_query):
        return SimpleNamespace(per_query=np.asarray(per_query),
                               responses=[shard])

    state = {"expected": [np.array([1, 2, 3])]}
    loop = {"records": [(0, 0.003, prediction([1, 2, 3])),
                        (0, 0.003, prediction([1, 2, 4]))], "elapsed": 1.0,
            "windows": None}
    result = cluster_routed._classify(state, loop)
    assert [kind for kind, _ in result["failures"]] == ["wrong"]
    assert len(result["latencies"]) == 1


def test_windows_scale_each_window_by_its_calibrations():
    windows = common.Windows()
    ref = common.REF_CALIBRATION_S
    # (process CPU s, operations, calibration s): a window on a host
    # twice as slow costs twice the CPU and calibrates twice as long
    windows.rows = [(0.010, 5, ref), (0.040, 10, 2 * ref), (0.090, 10, ref)]
    assert windows.ref_cpu_ms_per_op() == pytest.approx(2.0)
    assert windows.report()["windows"] == 3


def test_windows_calibrate_between_open_and_close():
    windows = common.Windows()
    windows.open(0)
    windows.close(4)
    ((cpu, ops, calibration),) = windows.rows
    assert ops == 4 and calibration > 0 and cpu >= 0
