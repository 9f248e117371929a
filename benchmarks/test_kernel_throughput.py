"""Counting-kernel throughput: reference loop vs. tiled numpy backend.

The refactor's performance claim, measured: for each (queries, leaves)
grid cell the same sphere-counting problem runs through every available
kernel, counts are asserted bit-identical, and the speedup of
``numpy_batched`` over ``reference`` is recorded.  The 5k x 20k cell --
a paper-scale workload against a paper-scale leaf set -- must come out
at least 5x faster; results land in ``BENCH_kernels.json`` at the repo
root so the claim is pinned in version control.

The fused multi-radius entry point is measured alongside: one
``count_grid`` dispatch over ``GRID_ROWS`` radius rows against the same
geometry vs. the per-row ``count_knn`` loop it replaces.  The fused
dispatch walks the query/leaf pairs once instead of once per row, so it
must beat the loop clearly on the batched backend.

Two small-dispatch cells record what serving and routing pay per call:
a served request's shape (24 queries against ~220 leaves of a 64-d
tree) and a cluster leg's (16 queries against 16 leaves of a 48-d
tree), each with exact 21-NN radii.  Their counts must equal
``reference``; their seconds per dispatch are recorded, not gated.

One large cell has the shape of the Table 3 prediction's count (500
queries against 2,560 leaves of a 60-d tree, exact 21-NN radii).  It
is timed at the default tile budget and at the old 64 MiB one, so the
cache-sized tiles' effect stays on record; its counts must equal
``reference`` and nothing is gated.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.data import generators
from repro.experiments import format_table
from repro.kernels import (
    DEFAULT_MEMORY_CAP_BYTES,
    LeafGeometry,
    NumpyBatchedKernel,
    available_kernels,
    get_kernel,
)
from repro.rtree.tree import RTree
from repro.workload.queries import exact_knn_radii

DIM = 16
GRID = ((100, 1_000), (1_000, 5_000), (5_000, 20_000))
GRID_ROWS = 8
#: (name, queries, points, dim, c_data) -- points / c_data leaves
SMALL_DISPATCHES = (
    ("serve", 24, 4_400, 64, 20),
    ("cluster_leg", 16, 320, 48, 20),
)
#: (queries, points, dim, c_data) of the Table 3 prediction's dispatch
PREDICT_DISPATCH = (500, 81_920, 60, 32)
#: tile budgets the predict-shaped cell is timed at: the default and
#: the 64 MiB memory ceiling it replaced
PREDICT_BUDGETS = (("default", None), ("64 MiB", 64 << 20))
RESULT_PATH = Path(__file__).parents[1] / "BENCH_kernels.json"


def _workbench(n_queries: int, n_leaves: int, seed: int = 0):
    """A clustered leaf set and k-NN-like spheres probing it.

    Clustered boxes with small local radii keep per-query selectivity
    realistic (most leaves pruned), which is exactly the regime the
    batched kernel's per-dimension compaction is built for.
    """
    gen = np.random.default_rng(seed)
    centers = generators.gaussian_mixture(
        n_leaves, DIM, gen, n_clusters=8, cluster_std=0.05
    )
    half = gen.random((n_leaves, DIM)) * 0.02
    geometry = LeafGeometry.from_corners(centers - half, centers + half)
    queries = centers[gen.choice(n_leaves, n_queries)] + (
        gen.standard_normal((n_queries, DIM)) * 0.01
    )
    radii = gen.random(n_queries) * 0.08
    return geometry, queries, radii


def _tree_dispatch(n_queries: int, n_points: int, dim: int, c_data: int):
    """A bulk-loaded tree's leaves and 21-NN spheres around its points."""
    gen = np.random.default_rng(0)
    points = generators.gaussian_mixture(
        n_points, dim, gen, n_clusters=8, cluster_std=0.05
    )
    geometry = RTree.bulk_load(points, c_data, 16).leaf_geometry
    queries = points[gen.choice(n_points, n_queries, replace=False)]
    return geometry, queries, exact_knn_radii(points, queries, 21)


def _seconds_per_dispatch(kernel, geometry, queries, radii) -> float:
    """Best of 5 timed loops, each of enough dispatches to last ~50 ms."""
    start = time.perf_counter()
    kernel.count_knn(geometry, queries, radii)
    loops = max(1, int(0.05 / max(time.perf_counter() - start, 1e-6)))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            kernel.count_knn(geometry, queries, radii)
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _time_kernel(kernel, geometry, queries, radii, repeats: int = 3):
    kernel.count_knn(geometry, queries, radii)  # warm-up / JIT
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        counts = kernel.count_knn(geometry, queries, radii)
        best = min(best, time.perf_counter() - start)
    return counts, best


def _time_fused_grid(kernel, geometry, queries, grid, repeats: int = 3):
    kernel.count_grid(geometry, queries, grid)  # warm-up / JIT
    best_fused = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fused = kernel.count_grid(geometry, queries, grid)
        best_fused = min(best_fused, time.perf_counter() - start)
    best_loop = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        looped = np.stack([
            kernel.count_knn(geometry, queries, row) for row in grid
        ])
        best_loop = min(best_loop, time.perf_counter() - start)
    np.testing.assert_array_equal(fused, looped, kernel.name)
    return best_fused, best_loop


def test_kernel_throughput(report):
    cells = []
    rows = []
    for n_queries, n_leaves in GRID:
        geometry, queries, radii = _workbench(n_queries, n_leaves)
        timings: dict[str, float] = {}
        baseline = None
        for name in available_kernels():
            counts, seconds = _time_kernel(
                get_kernel(name), geometry, queries, radii
            )
            if baseline is None:
                baseline_counts = counts
            else:
                np.testing.assert_array_equal(counts, baseline_counts, name)
            baseline = baseline_counts
            timings[name] = seconds
        pairs = n_queries * n_leaves
        speedup = timings["reference"] / timings["numpy_batched"]
        cells.append({
            "n_queries": n_queries,
            "n_leaves": n_leaves,
            "dim": DIM,
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "pairs_per_second": {
                k: round(pairs / v) for k, v in timings.items()
            },
            "speedup_vs_reference": {
                k: round(timings["reference"] / v, 2) for k, v in timings.items()
            },
        })
        rows.append([
            f"{n_queries:,} x {n_leaves:,}",
            *(f"{timings[k] * 1e3:,.1f}" for k in sorted(timings)),
            f"{speedup:.1f}x",
        ])

    report(format_table(
        ["cell (q x leaves)",
         *(f"{name} (ms)" for name in sorted(available_kernels())),
         "batched speedup"],
        rows,
        title=f"Counting-kernel throughput (d={DIM}, best of 3)",
    ))
    # The fused multi-radius dispatch on the mid-size cell: one
    # count_grid over GRID_ROWS scaled radius rows vs the per-row loop.
    n_queries, n_leaves = GRID[1]
    geometry, queries, radii = _workbench(n_queries, n_leaves)
    gen = np.random.default_rng(1)
    radius_grid = radii[None, :] * (
        0.25 + 1.5 * gen.random((GRID_ROWS, 1))
    )
    grid_rows = []
    grid_cells = {}
    for name in available_kernels():
        fused_s, loop_s = _time_fused_grid(
            get_kernel(name), geometry, queries, radius_grid
        )
        grid_cells[name] = {
            "fused_seconds": round(fused_s, 6),
            "per_row_loop_seconds": round(loop_s, 6),
            "grid_speedup": round(loop_s / fused_s, 2),
        }
        grid_rows.append([
            name, f"{fused_s * 1e3:,.1f}", f"{loop_s * 1e3:,.1f}",
            f"{loop_s / fused_s:.1f}x",
        ])
    report(format_table(
        ["kernel", "fused (ms)", "per-row loop (ms)", "grid speedup"],
        grid_rows,
        title=f"Fused count_grid, {GRID_ROWS} radius rows on "
              f"{n_queries:,} x {n_leaves:,} (best of 3)",
    ))

    small_cells = []
    small_rows = []
    for label, n_queries_s, n_points, dim, c_data in SMALL_DISPATCHES:
        geometry_s, queries_s, radii_s = _tree_dispatch(
            n_queries_s, n_points, dim, c_data
        )
        expected = get_kernel("reference").count_knn(
            geometry_s, queries_s, radii_s
        )
        seconds = {}
        for name in available_kernels():
            kernel = get_kernel(name)
            np.testing.assert_array_equal(
                kernel.count_knn(geometry_s, queries_s, radii_s), expected,
                err_msg=f"{name} on the {label} cell",
            )
            seconds[name] = _seconds_per_dispatch(
                kernel, geometry_s, queries_s, radii_s
            )
        small_cells.append({
            "cell": label,
            "n_queries": n_queries_s,
            "n_leaves": geometry_s.k,
            "dim": dim,
            "mean_count": round(float(expected.mean()), 2),
            "seconds_per_dispatch": {
                k: round(v, 7) for k, v in seconds.items()
            },
        })
        small_rows.append([
            f"{label}: {n_queries_s} x {geometry_s.k} x {dim}-d",
            *(f"{seconds[k] * 1e6:,.0f}" for k in sorted(seconds)),
        ])
    report(format_table(
        ["cell (q x leaves x d)",
         *(f"{name} (us/dispatch)" for name in sorted(available_kernels()))],
        small_rows,
        title="Small dispatches, 21-NN radii (best of 5 loops)",
    ))

    geometry_p, queries_p, radii_p = _tree_dispatch(*PREDICT_DISPATCH)
    n_queries_p, dim_p = queries_p.shape
    expected = get_kernel("reference").count_knn(geometry_p, queries_p, radii_p)
    budget_seconds = {}
    for label, cap in PREDICT_BUDGETS:
        kernel = NumpyBatchedKernel(memory_cap_bytes=cap)
        np.testing.assert_array_equal(
            kernel.count_knn(geometry_p, queries_p, radii_p), expected,
            err_msg=f"numpy_batched at the {label} budget on the predict cell",
        )
        budget_seconds[label] = _seconds_per_dispatch(
            kernel, geometry_p, queries_p, radii_p
        )
    report(format_table(
        ["tile budget", "numpy_batched (ms/dispatch)"],
        [[label, f"{seconds * 1e3:,.1f}"]
         for label, seconds in budget_seconds.items()],
        title=f"Predict-shaped dispatch: {n_queries_p} x {geometry_p.k} x "
              f"{dim_p}-d, 21-NN radii (best of 5 loops)",
    ))

    RESULT_PATH.write_text(json.dumps({
        "dim": DIM,
        "kernels": list(available_kernels()),
        "cells": cells,
        "count_grid": {
            "n_queries": n_queries,
            "n_leaves": n_leaves,
            "grid_rows": GRID_ROWS,
            "kernels": grid_cells,
        },
        "small_dispatches": small_cells,
        "predict_dispatch": {
            "n_queries": n_queries_p,
            "n_leaves": geometry_p.k,
            "dim": dim_p,
            "mean_count": round(float(expected.mean()), 2),
            "default_budget_bytes": DEFAULT_MEMORY_CAP_BYTES,
            "seconds_per_dispatch": {
                k: round(v, 6) for k, v in budget_seconds.items()
            },
        },
    }, indent=2) + "\n")

    headline = cells[-1]["speedup_vs_reference"]["numpy_batched"]
    assert headline >= 5.0, (
        f"numpy_batched only {headline:.1f}x faster than reference "
        f"on the {GRID[-1]} cell"
    )
    grid_headline = grid_cells["numpy_batched"]["grid_speedup"]
    assert grid_headline >= 2.0, (
        f"fused count_grid only {grid_headline:.1f}x faster than the "
        f"per-row count_knn loop on numpy_batched"
    )

