"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload predict_oneshot --seed 1 \
        --seconds 12 --trace 0

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of a traced run next to an untraced
one.  ``--workload all`` runs every workload both ways, each in its own
process.  Run it from the root of a checkout; the package is imported
from ``src/`` there.  See README.md in this directory.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (timed from before the imports)
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("predict_oneshot", "serve_open", "cluster_routed")
#: failure kinds that mean an answer was wrong or a check did not hold
WRONG = ("wrong", "check")
#: One BLAS thread per calling thread, set before numpy loads.  Idle
#: BLAS worker threads spin-wait after every call, and that spin counts
#: as process CPU time in amounts that depend on the timing between
#: calls; the service and the cluster already run several threads.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    import_start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)
    import_end = time.perf_counter()

    import common

    workload = importlib.import_module(args.workload)
    setups, phases, calibrations = [], [], []
    state, windows = None, None
    for _ in range(common.SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        built = workload.setup(args.seed, args.seconds)
        setups.append(time.perf_counter() - start)
        state = built["state"]
        phases.append(built["phases"])
        windows = windows or common.Windows()
        for _ in range(2):
            start = time.perf_counter()
            windows.calibrate()
            calibrations.append(time.perf_counter() - start)
    # set-up wall time on the reference host: scaled by the calibration's
    # wall time, as ref_cpu_ms_per_op is by its CPU time
    unscaled_s = import_end - PROCESS_START + common.median(setups)
    setup_s = (unscaled_s * common.REF_CALIBRATION_S
               / common.median(calibrations))
    try:
        workload.prepare(state)
        ticks = common.cpu_ticks()
        result = workload.run(state, args.seconds, bool(args.trace))
        stolen, total = (b - a for a, b in zip(ticks, common.cpu_ticks()))
    finally:
        workload.close(state)
    result["report"]["cpu_steal_pct"] = 100.0 * stolen / total if total else 0.0
    result["report"]["setup_unscaled_s"] = unscaled_s
    result["report"]["setup_calibration_ms"] = 1e3 * common.median(calibrations)

    failures = result["failures"]
    correct = not any(kind in WRONG for kind, _ in failures)
    if args.trace:
        layers = {"setup.import_ms": 1e3 * (import_end - import_start)}
        for name in {key for p in phases for key in p}:
            layers[name] = 1e3 * common.median([p.get(name, 0.0)
                                                for p in phases])
        layers.update(result["layers"])
        values = common.per_layer(layers)
        units = common.PER_LAYER
    else:
        values = {"setup_s": setup_s, **result["end_to_end"]}
        units = common.END_TO_END
    _report(args, values, units, result, failures, setups, common)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _report(args, values, units, result, failures, setups, common) -> None:
    """Human-readable lines, then one ``record:`` line with everything."""
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} ({mode})")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.4f} {unit}")
    for name, value in result["report"].items():
        if isinstance(value, (int, float)):
            print(f"  {name:<34} {value:>14.4f}")
    for kind, detail in failures[:5]:
        print(f"  FAILED ({kind}) {detail}")
    print("record: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.host_block(),
        "setup_repeats_s": setups,
        "pool": result.get("pool"),
        "metrics": values,
        "report": result["report"],
        "failures": failures[:20],
    }, default=float))


def _run_all(args) -> int:
    """Every workload untraced then traced, each in a child process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                return child.returncode
            last = json.loads(child.stdout.strip().splitlines()[-1])
            correct = correct and last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            for metric, value in last["metrics"].items():
                merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
