"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the workflows the paper motivates:

``predict``        estimate leaf accesses for a workload without
                   building the index (mini / cutoff / resampled)
``measure``        build the on-disk index on the simulated disk and
                   run the workload for real (the ground truth)
``compare``        the Table 4 shoot-out: uniform vs. fractal vs.
                   resampled vs. measured
``tune-pagesize``  the Section 6.1 application: sweep page sizes
``costs``          evaluate the analytical Eqs. 1-5 for a dataset shape
``scrub``          sweep the dataset file for at-rest corruption,
                   repairing from replicas/parity where provisioned
``serve``          run a bounded multi-tenant serving session against
                   the threaded prediction service (warm artifacts,
                   quotas, backpressure) and print the per-tenant books
``cluster``        build a sharded, replicated prediction cluster
                   (similarity partition, per-shard page-size tuning,
                   failure-aware routing) and print its shard table
                   and one prediction, or run the seeded chaos storm
                   with ``--chaos``

Data comes from a named synthetic analogue (``--dataset TEXTURE60
--scale 0.1``) or any ``.npy`` file holding an ``(n, d)`` float matrix
(``--input features.npy``).
"""

from __future__ import annotations

import argparse
import signal
import sys
import textwrap
from typing import Sequence

import numpy as np

from .apps.pagesize import sweep_page_sizes
from .cluster import (
    ClusterChaosScenario,
    PredictionCluster,
    assert_cluster_invariant,
    run_cluster_chaos,
)
from .baselines.fractal import FractalCostModel, FractalEstimationError
from .baselines.uniform_model import UniformCostModel
from .core.costmodel import AnalyticalCostModel
from .core.predictor import IndexCostPredictor
from .data import datasets
from .errors import (
    EXIT_CODES,
    ReproError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
    exit_code_for,
)
from .experiments.tables import format_signed_percent, format_table
from .runtime.budget import Budget
from .service import PredictionService, TenantQuota
from .workload.queries import density_biased_knn_workload

__all__ = ["main"]

# Exit codes live with the error hierarchy (``errors.EXIT_CODES``) so
# a new error class cannot ship without deciding its code; the CLI
# renders the table into the --help epilog and resolves raised errors
# through ``errors.exit_code_for``.  Codes 0/2/130 are process-level
# outcomes with no exception class, so they are appended here.
_STATIC_EXIT_CODES: tuple[tuple[int, str], ...] = (
    (0, "success"),
    (2, "argument error (argparse)"),
    (130, "interrupted: SIGINT/SIGTERM during a serving session; "
          "queued requests were drained with typed shutdown responses "
          "before exit"),
)


def _render_exit_code_help() -> str:
    entries = {code: desc for _, code, desc in EXIT_CODES}
    entries.update(dict(_STATIC_EXIT_CODES))
    lines = ["exit codes:"]
    for code in sorted(entries):
        wrapped = textwrap.wrap(entries[code], width=64)
        lines.append(f"  {code:<3} {wrapped[0]}")
        lines.extend(f"      {cont}" for cont in wrapped[1:])
    return "\n".join(lines) + "\n"


_EXIT_CODE_HELP = _render_exit_code_help()


def _version() -> str:
    """The installed distribution's version, or the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # noqa: BLE001 - not installed: fall back to source
        from . import __version__

        return __version__


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset", default="TEXTURE60",
        help=f"synthetic analogue name ({', '.join(sorted(datasets.DATASETS))})",
    )
    source.add_argument("--input", help="path to an (n, d) .npy file")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="analogue scale in (0, 1] (default 0.05)")
    parser.add_argument("--seed", type=int, default=0)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queries", type=int, default=100,
                        help="number of density-biased queries")
    parser.add_argument("--k", type=int, default=21, help="k for k-NN")
    parser.add_argument("--memory", type=int, default=2_000,
                        help="memory budget M in points")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        dest="fault_rate",
                        help="transient read fault rate in [0, 1] injected "
                             "on the simulated disk (default 0: no faults)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        dest="fault_seed",
                        help="seed of the deterministic fault injector")
    parser.add_argument("--corruption-rate", type=float, default=0.0,
                        dest="corruption_rate",
                        help="silent in-transit bit-flip rate in [0, 1] "
                             "(default 0; pair with --verify-checksums)")
    parser.add_argument("--verify-checksums", action="store_true",
                        dest="verify_checksums",
                        help="verify per-page CRC32 checksums on every "
                             "charged read (catches silent corruption as "
                             "a retryable error)")
    parser.add_argument("--crash-at", type=int, default=None,
                        dest="crash_at",
                        help="simulate a crash before the N-th charged "
                             "disk operation (1-based; the process exits "
                             "with code 10)")
    parser.add_argument("--at-rest-rate", type=float, default=0.0,
                        dest="at_rest_rate",
                        help="at-rest bit-rot rate in [0, 1]: pages decay "
                             "persistently on the platter (default 0; "
                             "pair with --replication-factor/--parity "
                             "so repair-on-read can heal them)")
    parser.add_argument("--replication-factor", type=int, default=1,
                        dest="replication_factor",
                        help="copies kept of every page, primary included "
                             "(default 1: no replicas); extra copies feed "
                             "repair-on-read and are billed separately")
    parser.add_argument("--parity", action="store_true",
                        help="keep XOR parity stripes as a single-failure "
                             "fallback (cheaper than a full replica)")
    parser.add_argument("--scrub", action="store_true",
                        help="sweep the file for rot after a successful "
                             "prediction and print the scrub report")


def _load_points(args: argparse.Namespace) -> np.ndarray:
    if args.input:
        points = np.load(args.input)
        if points.ndim != 2:
            raise SystemExit(f"{args.input}: expected an (n, d) array, "
                             f"got shape {points.shape}")
        return np.asarray(points, dtype=np.float64)
    return datasets.load(args.dataset, scale=args.scale, seed=args.seed)


def _context(args: argparse.Namespace):
    points = _load_points(args)
    predictor = IndexCostPredictor(
        dim=points.shape[1], memory=args.memory,
        fault_rate=getattr(args, "fault_rate", 0.0),
        fault_seed=getattr(args, "fault_seed", 0),
        silent_corruption_rate=getattr(args, "corruption_rate", 0.0),
        at_rest_corruption_rate=getattr(args, "at_rest_rate", 0.0),
        replication_factor=getattr(args, "replication_factor", 1),
        parity=getattr(args, "parity", False),
        scrub=getattr(args, "scrub", False),
        verify_checksums=getattr(args, "verify_checksums", False),
        crash_at=getattr(args, "crash_at", None),
    )
    workload = predictor.make_workload(points, args.queries, args.k,
                                       seed=args.seed)
    return points, predictor, workload


def _cmd_predict(args: argparse.Namespace) -> int:
    points, predictor, workload = _context(args)
    budget = None
    if args.max_io_ops is not None or args.deadline_s is not None:
        budget = Budget(max_io_ops=args.max_io_ops,
                        max_seconds=args.deadline_s)
    result = predictor.predict(
        points, workload, method=args.method, h_upper=args.h_upper,
        sampling_fraction=args.fraction, seed=args.seed,
        budget=budget, hedge=args.hedge,
        degrade=not args.strict_budget,
    )
    print(f"dataset: {points.shape[0]:,} x {points.shape[1]}-d, "
          f"C_data={predictor.c_data}, C_dir={predictor.c_dir}")
    print(f"method: {args.method}  detail: {result.detail}")
    print(f"predicted leaf accesses per query: {result.mean_accesses:.2f}")
    print(f"prediction I/O: {result.io_cost.seeks:,} seeks, "
          f"{result.io_cost.transfers:,} transfers "
          f"({result.io_cost.seconds():.3f} s)")
    degradation = result.detail.get("degradation")
    if degradation:
        print(f"resilience: method used {degradation['method_used']!r} "
              f"(requested {degradation['method_requested']!r}), "
              f"{degradation['faults_seen']} faults seen, "
              f"{degradation['retries']} retries charged")
    spend = result.detail.get("budget")
    if spend:
        print(f"budget: {spend['spent_io_ops']} charged ops"
              + (f" of {spend['max_io_ops']}"
                 if spend['max_io_ops'] is not None else "")
              + f", {spend['elapsed_s']:.3f} s elapsed"
              + (f" of {spend['max_seconds']:g}"
                 if spend['max_seconds'] is not None else "")
              + f"; within budget: {spend['within_budget']}")
    hedge = result.detail.get("hedge")
    if hedge:
        print(f"hedge: {hedge['winner']} path answered in "
              f"{hedge['elapsed_s']:.3f} s (primary completed: "
              f"{hedge['primary_completed']}, hedge completed: "
              f"{hedge['hedge_completed']})")
    redundancy = result.detail.get("redundancy")
    if redundancy:
        print(f"redundancy: {redundancy['replication_factor']}-way"
              + (" + parity" if redundancy["parity"] else "")
              + f", {redundancy['repairs']} page"
              + ("s" if redundancy["repairs"] != 1 else "")
              + f" repaired on read; upkeep "
              + f"{redundancy['redundancy_seeks']:,} seeks, "
              + f"{redundancy['redundancy_transfers']:,} transfers")
    scrub = result.detail.get("scrub")
    if scrub:
        print(_format_scrub(scrub))
    return 0


def _format_scrub(report: dict) -> str:
    line = (f"scrub: {report['pages_scanned']}/{report['pages_total']} "
            f"pages scanned, {report['repaired']} repaired, "
            f"{report['copies_repaired']} redundant cop"
            f"{'y' if report['copies_repaired'] == 1 else 'ies'} rewritten")
    if report["unrecoverable"]:
        line += (f"; UNRECOVERABLE pages: "
                 f"{', '.join(map(str, report['unrecoverable']))}")
    if not report["completed"]:
        line += " (stopped early: budget exhausted)"
    return line


def _cmd_measure(args: argparse.Namespace) -> int:
    points, predictor, workload = _context(args)
    index = predictor.build_ondisk(points)
    measurement = predictor.measure(points, workload, index=index)
    total = index.build_cost + measurement.io_cost
    print(f"dataset: {points.shape[0]:,} x {points.shape[1]}-d; tree height "
          f"{index.tree.height}, {index.tree.n_leaves:,} leaves")
    print(f"measured leaf accesses per query: {measurement.mean_accesses:.2f}")
    print(f"build I/O: {index.build_cost.seconds():.3f} s; query I/O: "
          f"{measurement.io_cost.seconds():.3f} s; total {total.seconds():.3f} s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    points, predictor, workload = _context(args)
    topology = predictor.topology(points.shape[0])
    measurement = predictor.measure(points, workload)
    measured = measurement.mean_accesses

    rows = []
    uniform = UniformCostModel(
        points.shape[0], points.shape[1], topology.c_eff_data
    ).predict_knn_accesses(workload.k)
    rows.append(["uniform", f"{uniform:.1f}",
                 format_signed_percent((uniform - measured) / measured)])
    try:
        fractal = FractalCostModel.from_points(
            points, topology.c_eff_data, np.random.default_rng(args.seed)
        ).predict_knn_accesses(workload.k)
        rows.append(["fractal", f"{fractal:.1f}",
                     format_signed_percent((fractal - measured) / measured)])
    except FractalEstimationError as error:
        rows.append(["fractal", "n/a", str(error)])
    resampled = predictor.predict(points, workload, method="resampled",
                                  seed=args.seed)
    rows.append(["resampled", f"{resampled.mean_accesses:.1f}",
                 format_signed_percent(resampled.relative_error(measured))])
    rows.append(["measured", f"{measured:.1f}", "0%"])
    print(format_table(["model", "pages", "rel. error"], rows))
    return 0


def _cmd_tune_pagesize(args: argparse.Namespace) -> int:
    points, _, workload = _context(args)
    sweep = sweep_page_sizes(
        points, workload, memory=args.memory, measure=args.verify,
        seed=args.seed,
    )
    rows = []
    for p in sweep.points:
        row = [f"{p.page_bytes // 1024} KB", f"{p.predicted_accesses:.1f}",
               f"{p.predicted_seconds * 1000:.1f} ms"]
        if args.verify:
            row.extend([f"{p.measured_accesses:.1f}",
                        f"{p.measured_seconds * 1000:.1f} ms"])
        rows.append(row)
    headers = ["page", "pred accesses", "pred cost"]
    if args.verify:
        headers.extend(["meas accesses", "meas cost"])
    print(format_table(headers, rows))
    optimum = sweep.predicted_optimum
    if optimum is not None:
        print(f"predicted optimum: {optimum.page_bytes // 1024} KB")
    if args.verify and sweep.measured_optimum is not None:
        print(f"measured optimum:  "
              f"{sweep.measured_optimum.page_bytes // 1024} KB")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    points = _load_points(args)
    predictor = IndexCostPredictor(
        dim=points.shape[1], memory=args.memory,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        silent_corruption_rate=args.corruption_rate,
        at_rest_corruption_rate=args.at_rest_rate,
        replication_factor=args.replication_factor,
        parity=args.parity,
        scrub=True,
        crash_at=args.crash_at,
    )
    file = predictor.new_file(points)
    report = file.scrub()
    print(f"dataset: {points.shape[0]:,} x {points.shape[1]}-d on "
          f"{file.n_pages:,} pages")
    print(_format_scrub(report.as_dict()))
    print(f"scrub I/O: {report.io_cost.seeks:,} seeks, "
          f"{report.io_cost.transfers:,} transfers; redundancy upkeep: "
          f"{report.redundancy_cost.seeks:,} seeks, "
          f"{report.redundancy_cost.transfers:,} transfers")
    if report.unrecoverable and args.strict:
        print(f"repro: {len(report.unrecoverable)} page"
              f"{'s' if len(report.unrecoverable) != 1 else ''} "
              f"unrecoverable under --strict", file=sys.stderr)
        return 13
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    quota = TenantQuota(
        max_inflight=args.max_inflight,
        max_io_ops=args.max_io_ops,
        deadline_s=args.deadline_s,
        max_retries=args.retries,
    )
    service = PredictionService(
        workers=args.workers, max_queue=args.max_queue,
        memory=args.memory, default_quota=quota,
        artifact_dir=args.artifact_dir,
        coalesce=args.coalesce,
        coalesce_window_ms=args.coalesce_window_ms,
    )
    rng = np.random.default_rng(args.seed)
    workloads = {}
    served = refused = shed = drained = 0
    interrupted = False

    def _interrupt(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    previous_term = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, _interrupt)
    futures = []
    try:
        points = _load_points(args)
        for i in range(args.tenants):
            name = f"tenant-{i}"
            # each tenant serves its own resample of the dataset, so
            # the session exercises distinct artifacts and geometry
            subset = points[rng.choice(points.shape[0],
                                       size=min(points.shape[0], 2_000),
                                       replace=False)]
            service.register_tenant(
                name, subset,
                fault_rate=getattr(args, "fault_rate", 0.0),
                fault_seed=getattr(args, "fault_seed", 0),
            )
            workloads[name] = service.tenant(name).predictor.make_workload(
                subset, args.queries, args.k, seed=args.seed + i
            )
        with service:
            for round_i in range(args.requests):
                for name, workload in workloads.items():
                    try:
                        futures.append(service.submit(
                            name, workload, method=args.method,
                            seed=round_i,
                        ))
                    except TenantQuotaExceededError:
                        refused += 1
                    except ServiceOverloadedError:
                        shed += 1
            for future in futures:
                future.result(timeout=120.0)
                served += 1
    except KeyboardInterrupt:
        # Graceful drain instead of a raw traceback: stop() settles
        # every queued request with a typed shutdown response, so every
        # admitted future still resolves and the books still balance.
        interrupted = True
        service.stop()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
    if interrupted:
        served = 0
        for future in futures:
            response = future.result(timeout=120.0)
            if response.status == "error" and response.cause == "shutdown":
                drained += 1
            else:
                served += 1
    rows = []
    for name in sorted(workloads):
        snap = service.tenant(name).ledger.snapshot()
        rows.append([
            name, str(snap["submitted"]), str(snap["completed"]),
            str(snap["degraded"]), str(snap["errors"]),
            str(snap["refused_quota"]), str(snap["charged_ops"]),
            snap["breaker_state"],
        ])
    print(format_table(
        ["tenant", "admitted", "ok", "degraded", "errors", "refused",
         "charged ops", "breaker"],
        rows,
        title=f"serving session: {args.tenants} tenants x {args.requests} "
              f"requests ({args.method}), {args.workers} workers, "
              f"queue {args.max_queue}",
    ))
    metrics = service.metrics()
    print(f"resolved {served} responses; admission refused {refused}, "
          f"shed {shed}; workers respawned "
          f"{metrics['workers_respawned']}, artifact rebuilds "
          f"{metrics['artifact_rebuilds']}")
    if interrupted:
        print(f"interrupted: graceful stop drained {drained} queued "
              f"request{'s' if drained != 1 else ''} with typed shutdown "
              f"responses", file=sys.stderr)
        return 130
    return 0


#: flags only the cluster demo reads, with the values it uses: the
#: ``--chaos`` storm builds its own data and topology.  The parser
#: defaults them to None so that a given flag is visible.
_CLUSTER_DEMO_DEFAULTS = {
    "dataset": "TEXTURE60", "input": None, "scale": 0.05, "queries": 24,
    "k": 5, "memory": 500, "shards": 2, "replicas": 3, "replication": 2,
    "artifact_dir": None,
}

#: flags only the ``--chaos`` storm reads
_CLUSTER_CHAOS_ONLY = ("controller", "double_kill", "scale_events")


def _check_cluster_flags(args: argparse.Namespace) -> None:
    """Refuse a flag the chosen mode would ignore (exit 2), then fill in
    the demo's defaults."""
    def flag(dest: str) -> str:
        return "--" + dest.replace("_", "-")

    if args.chaos:
        for dest in _CLUSTER_DEMO_DEFAULTS:
            if getattr(args, dest) is not None:
                args.parser.error(f"{flag(dest)} cannot be combined with "
                                  f"--chaos: the storm builds its own data "
                                  f"and topology")
        return
    for dest in _CLUSTER_CHAOS_ONLY:
        if getattr(args, dest):
            args.parser.error(f"{flag(dest)} requires --chaos")
    for dest, value in _CLUSTER_DEMO_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json
    import tempfile

    _check_cluster_flags(args)
    if args.chaos:
        if args.controller:
            # the scenario tests/test_cluster_chaos.py runs
            scenario = ClusterChaosScenario(
                seed=args.seed, double_kill=args.double_kill,
                scale_events=args.scale_events,
                n_shards=3, controller=True, controller_dwell=2,
                merge_when=2.5,
            )
        else:
            scenario = ClusterChaosScenario(
                seed=args.seed, double_kill=args.double_kill,
                scale_events=args.scale_events,
            )
        with tempfile.TemporaryDirectory() as root:
            outcome = run_cluster_chaos(scenario, artifact_root=root)
        print(json.dumps(outcome.summary(), indent=2, sort_keys=True))
        try:
            assert_cluster_invariant(outcome)
        except AssertionError as failure:
            print(f"repro: cluster invariant violated: {failure}",
                  file=sys.stderr)
            return 1
        print("cluster invariant holds")
        return 0

    points = _load_points(args)
    rng = np.random.default_rng(args.seed)
    tuning = density_biased_knn_workload(
        points, max(16, 4 * args.shards), args.k, rng
    )
    with tempfile.TemporaryDirectory() as fallback:
        root = args.artifact_dir or fallback
        with PredictionCluster(
            points, tuning, artifact_root=root,
            n_shards=args.shards, n_replicas=args.replicas,
            replication=min(args.replication, args.replicas),
            memory=args.memory, seed=args.seed,
        ) as cluster:
            table = cluster.router.table.as_dict()
            rows = []
            for shard in range(cluster.n_shards):
                config = cluster.shard_configs[shard]
                rows.append([
                    str(shard),
                    f"{cluster.shard_points[shard].shape[0]:,}",
                    f"{config.page_bytes // 1024} KB",
                    ", ".join(table["owners"][shard]),
                ])
            print(format_table(
                ["shard", "points", "tuned page", "owners (cheapest first)"],
                rows,
                title=f"cluster: {args.shards} shards on "
                      f"{args.replicas} replicas, routing table "
                      f"v{table['version']}",
            ))
            workload = cluster.make_workload(args.queries, args.k,
                                             seed=args.seed)
            healthy = cluster.predict(workload)
            print(f"healthy: {healthy.per_query.size} queries, mean "
                  f"predicted accesses {healthy.mean_accesses:.2f}")
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    model = AnalyticalCostModel(n_queries=args.queries)
    ondisk = model.ondisk(args.n, args.dim, args.memory)
    resampled = model.resampled(args.n, args.dim, args.memory)
    cutoff = model.cutoff(args.n, args.dim, args.memory)
    rows = [
        ["on-disk build (Eq. 1)", f"{ondisk.seeks:,}",
         f"{ondisk.transfers:,}", f"{model.seconds(ondisk):,.1f} s"],
        ["resampled (Eq. 5)", f"{resampled.seeks:,}",
         f"{resampled.transfers:,}", f"{model.seconds(resampled):,.1f} s"],
        ["cutoff (Eq. 3)", f"{cutoff.seeks:,}",
         f"{cutoff.transfers:,}", f"{model.seconds(cutoff):,.1f} s"],
    ]
    print(format_table(["approach", "seeks", "transfers", "cost"], rows,
                       title=f"analytical I/O for N={args.n:,}, d={args.dim}, "
                             f"M={args.memory:,}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sampling-based index cost prediction "
                    "(Lang & Singh, SIGMOD 2001)",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    commands = parser.add_subparsers(dest="command", required=True)

    predict = commands.add_parser("predict", help="predict leaf accesses")
    _add_data_arguments(predict)
    _add_workload_arguments(predict)
    predict.add_argument("--method", default="resampled",
                         choices=("mini", "cutoff", "resampled"))
    predict.add_argument("--h-upper", type=int, default=None, dest="h_upper")
    predict.add_argument("--fraction", type=float, default=None,
                         help="sampling fraction for --method mini")
    predict.add_argument("--max-io-ops", type=int, default=None,
                         dest="max_io_ops",
                         help="charged I/O op budget (seeks + transfers) "
                              "across all fallback attempts; exhaustion "
                              "degrades to cheaper methods")
    predict.add_argument("--deadline-s", type=float, default=None,
                         dest="deadline_s",
                         help="wall-clock deadline in seconds (monotonic "
                              "clock); exceeded deadlines degrade to "
                              "cheaper methods")
    predict.add_argument("--hedge", action="store_true",
                         help="race the prediction against a cheap "
                              "concurrent estimate and serve whichever "
                              "lands inside --deadline-s (requires it)")
    predict.add_argument("--strict-budget", action="store_true",
                         dest="strict_budget",
                         help="exit with code 11/12 on budget/deadline "
                              "exhaustion instead of degrading (disables "
                              "fault degradation too)")
    predict.set_defaults(run=_cmd_predict)

    measure = commands.add_parser("measure", help="measured ground truth")
    _add_data_arguments(measure)
    _add_workload_arguments(measure)
    measure.set_defaults(run=_cmd_measure)

    compare = commands.add_parser("compare", help="baseline shoot-out")
    _add_data_arguments(compare)
    _add_workload_arguments(compare)
    compare.set_defaults(run=_cmd_compare)

    tune = commands.add_parser("tune-pagesize", help="optimal page size")
    _add_data_arguments(tune)
    _add_workload_arguments(tune)
    tune.add_argument("--verify", action="store_true",
                      help="also measure with fully built indexes")
    tune.set_defaults(run=_cmd_tune_pagesize)

    scrub = commands.add_parser(
        "scrub", help="sweep the dataset file for at-rest corruption"
    )
    _add_data_arguments(scrub)
    _add_workload_arguments(scrub)
    scrub.add_argument("--strict", action="store_true",
                       help="exit with code 13 if any page is "
                            "unrecoverable (no clean copy survives)")
    scrub.set_defaults(run=_cmd_scrub)

    serve = commands.add_parser(
        "serve", help="bounded multi-tenant serving session"
    )
    _add_data_arguments(serve)
    _add_workload_arguments(serve)
    serve.add_argument("--tenants", type=int, default=4,
                       help="tenants to register (default 4)")
    serve.add_argument("--requests", type=int, default=8,
                       help="requests submitted per tenant (default 8)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads (default 4)")
    serve.add_argument("--max-queue", type=int, default=32,
                       dest="max_queue",
                       help="bounded request queue size (default 32)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       dest="max_inflight",
                       help="per-tenant in-flight request cap (default 8)")
    serve.add_argument("--max-io-ops", type=int, default=None,
                       dest="max_io_ops",
                       help="per-tenant lifetime charged-op allowance "
                            "(default unmetered)")
    serve.add_argument("--deadline-s", type=float, default=None,
                       dest="deadline_s",
                       help="per-request deadline in seconds")
    serve.add_argument("--retries", type=int, default=0,
                       help="request-level retries on retryable faults")
    serve.add_argument("--method", default="warm",
                       choices=("warm", "mini", "cutoff", "resampled"),
                       help="prediction method requests ask for "
                            "(default warm: the amortized fast path)")
    serve.add_argument("--coalesce", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="coalesce compatible queued warm requests into "
                            "fused kernel batches (default on for serving; "
                            "responses are bit-identical either way)")
    serve.add_argument("--coalesce-window-ms", type=float, default=2.0,
                       dest="coalesce_window_ms",
                       help="how long a worker lingers on the queue to grow "
                            "a batch once it holds a request (default 2.0)")
    serve.add_argument("--artifact-dir", default=None, dest="artifact_dir",
                       help="directory for checksummed warm-start "
                            "artifacts (persist/reuse across sessions)")
    serve.set_defaults(run=_cmd_serve)

    cluster = commands.add_parser(
        "cluster",
        help="sharded replicated serving: build the cluster and print "
             "its shard table, or run the seeded chaos storm (--chaos)",
    )
    _add_data_arguments(cluster)
    cluster.add_argument("--queries", type=int,
                         help="demo workload size (default 24)")
    cluster.add_argument("--k", type=int, help="k for k-NN (default 5)")
    cluster.add_argument("--memory", type=int,
                         help="per-replica memory budget M in points "
                              "(default 500)")
    cluster.add_argument("--shards", type=int,
                         help="similarity shards (default 2)")
    cluster.add_argument("--replicas", type=int,
                         help="replica processes (default 3)")
    cluster.add_argument("--replication", type=int,
                         help="owners per shard (default 2): each extra "
                              "owner is a bit-identical failover target")
    cluster.add_argument("--artifact-dir", dest="artifact_dir",
                         help="root directory for per-replica warm-start "
                              "artifacts (default: a temporary directory)")
    cluster.add_argument("--chaos", action="store_true",
                         help="run the seeded replica storm (kills, "
                              "restarts, corruption, slow and faulty "
                              "replicas, stale routing) and check the "
                              "cluster invariant; non-zero exit on "
                              "violation")
    cluster.add_argument("--double-kill", action="store_true",
                         dest="double_kill",
                         help="with --chaos: also kill shard 0's last "
                              "owner for a window, forcing the "
                              "explicitly-degraded closed-form path")
    cluster.add_argument("--scale-events", action="store_true",
                         dest="scale_events",
                         help="with --chaos: drive the topology axis "
                              "too (mid-storm scale-out with a corrupt "
                              "donor, kill during handoff, shard split, "
                              "stale-epoch probes, graceful scale-in)")
    cluster.add_argument("--controller", action="store_true",
                         help="with --chaos: run the controller storm "
                              "instead (3 shards, decaying load, kill "
                              "and corruption mid-merge, topology must "
                              "shrink with zero errors)")
    cluster.set_defaults(run=_cmd_cluster, parser=cluster,
                         **dict.fromkeys(_CLUSTER_DEMO_DEFAULTS))

    costs = commands.add_parser("costs", help="analytical Eqs. 1-5")
    costs.add_argument("--n", type=int, default=1_000_000)
    costs.add_argument("--dim", type=int, default=60)
    costs.add_argument("--memory", type=int, default=10_000)
    costs.add_argument("--queries", type=int, default=500)
    costs.set_defaults(run=_cmd_costs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as error:
        # One-line diagnosis, never a raw traceback; the exit code
        # encodes the failure class for scripting.
        print(f"repro: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
