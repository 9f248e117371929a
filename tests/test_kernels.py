"""The counting-kernel contract: every backend is bit-identical.

The kernels package promises that ``reference`` (the per-query oracle)
and ``numpy_batched`` (the tiled default) return *exactly* equal
``int64`` counts for the same geometry and workload -- not merely
close.  These tests enforce that promise three ways: by property
(random geometries and workloads at up to 70 dimensions, so the batched
kernel's doubling dimension blocks are crossed at every edge, including
empty and degenerate cases), by layer (each predictor run under each
kernel), and by interface (registry resolution, the typed unknown-kernel
and malformed-cap errors, and the CLI exit codes they map to).  The
batched kernel's pairs are also held bitwise to the per-dimension
stream it replaced (``tests/kernel_oracle.py``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.dynamic import DynamicMiniIndexModel
from repro.core.kdb_model import KDBMiniIndexModel
from repro.core.predictor import IndexCostPredictor
from repro.errors import InputValidationError, UnknownKernelError
from repro.kernels import (
    DEFAULT_KERNEL,
    DEFAULT_MEMORY_CAP_BYTES,
    KERNEL_ENV_VAR,
    MEMORY_CAP_ENV_VAR,
    BatchPlan,
    LeafGeometry,
    NumpyBatchedKernel,
    as_radii_grid,
    available_kernels,
    default_kernel_name,
    get_kernel,
)
from repro.kernels.reference import ReferenceKernel
from repro.workload.queries import KNNWorkload, RangeWorkload

from .kernel_oracle import count_range_by_stream, knn_pairs_by_stream

FAST = ["--dataset", "TEXTURE48", "--scale", "0.05", "--queries", "10",
        "--memory", "500"]

# The batched kernel's dimension blocks start at 1, 2, 4, ..., 64; these
# dimensionalities end a walk on each side of every block edge.
BLOCK_EDGES = (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65)

#: dimensionality up to 70 -- the benchmark datasets are 48-360-d --
#: with the block edges drawn as often as the rest
DIMS = st.one_of(st.integers(1, 70), st.sampled_from(BLOCK_EDGES))

#: memory caps from one-row tiles with width-1 blocks (a few bytes) up
#: to whole-block widths over every pair (32 MiB), log-uniform
CAPS = st.integers(0, 25).flatmap(
    lambda e: st.integers(1 << e, (2 << e) - 1)
)


def _random_case(seed: int, k: int, d: int, n_queries: int):
    """A random leaf geometry plus spheres and ranges probing it.

    Each sphere's radius is the mindist to a random leaf, so counts
    spread over 1..k and pairs leave the pair walk at every dimension,
    the last included; each range box's half-widths scale with one
    per-query draw, so overlaps also end at every dimension.
    """
    gen = np.random.default_rng(seed)
    lower = gen.random((k, d)) * 2.0 - 0.5
    extent = gen.random((k, d)) * 0.4
    # Sprinkle degenerate (zero-extent) sides and whole-point leaves.
    extent[gen.random((k, d)) < 0.15] = 0.0
    upper = lower + extent
    geometry = LeafGeometry.from_corners(lower, upper)
    queries = gen.random((n_queries, d)) * 2.0 - 0.5
    gap = np.maximum(lower[None] - queries[:, None], 0.0)
    gap += np.maximum(queries[:, None] - upper[None], 0.0)
    dist_sq = np.cumsum(gap * gap, axis=-1)[..., -1]
    picked = gen.integers(0, k, n_queries)
    radii = np.sqrt(dist_sq[np.arange(n_queries), picked])
    radii[gen.random(n_queries) < 0.2] = 0.0  # radius-0 point probes
    centre = gen.random((n_queries, d)) * 2.0 - 0.5
    half = gen.random((n_queries, 1)) * 2.2 * (
        0.8 + 0.2 * gen.random((n_queries, d))
    )
    half[gen.random((n_queries, d)) < 0.2 / d] = 0.0
    return geometry, queries, radii, centre - half, centre + half


class TestKernelEquivalence:
    """Property: every registered backend equals the reference oracle."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 120),
        DIMS,
        st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_knn_counts_bit_identical(self, seed, k, d, n_queries):
        geometry, queries, radii, _, _ = _random_case(seed, k, d, n_queries)
        expected = get_kernel("reference").count_knn(geometry, queries, radii)
        for name in available_kernels():
            counts = get_kernel(name).count_knn(geometry, queries, radii)
            assert counts.dtype == np.int64, name
            np.testing.assert_array_equal(counts, expected, err_msg=name)

    @given(
        st.integers(0, 10_000),
        st.integers(1, 120),
        DIMS,
        st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_counts_bit_identical(self, seed, k, d, n_queries):
        geometry, _, _, q_lower, q_upper = _random_case(seed, k, d, n_queries)
        expected = get_kernel("reference").count_range(
            geometry, q_lower, q_upper
        )
        for name in available_kernels():
            counts = get_kernel(name).count_range(geometry, q_lower, q_upper)
            np.testing.assert_array_equal(counts, expected, err_msg=name)

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_empty_geometry_counts_zero(self, seed, d, n_queries):
        gen = np.random.default_rng(seed)
        geometry = LeafGeometry.empty(d)
        queries = gen.random((n_queries, d))
        radii = gen.random(n_queries)
        for name in available_kernels():
            counts = get_kernel(name).count_knn(geometry, queries, radii)
            assert counts.shape == (n_queries,)
            assert not counts.any(), name

    @given(st.integers(0, 10_000), st.integers(1, 80), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_zero_queries(self, seed, k, d):
        geometry, _, _, _, _ = _random_case(seed, k, d, 1)
        for name in available_kernels():
            counts = get_kernel(name).count_knn(
                geometry, np.empty((0, d)), np.empty(0)
            )
            assert counts.shape == (0,)

    def test_point_on_boundary_counts(self):
        """The sphere test is inclusive: dist == radius intersects, and
        every backend agrees on the exact boundary."""
        geometry = LeafGeometry.from_corners(
            np.array([[1.0, 0.0]]), np.array([[2.0, 1.0]])
        )
        queries = np.array([[0.0, 0.5]])
        radii = np.array([1.0])  # sphere exactly touches the left face
        for name in available_kernels():
            assert get_kernel(name).count_knn(geometry, queries, radii) == [1]
            assert get_kernel(name).count_knn(
                geometry, queries, radii - 1e-9
            ) == [0]

    @given(
        st.integers(0, 10_000),
        st.integers(1, 200),
        DIMS,
        st.integers(1, 50),
        CAPS,
    )
    @settings(max_examples=30, deadline=None)
    def test_tiling_invariant_under_memory_cap(
        self, seed, k, d, n_queries, cap
    ):
        """Shrinking the cap to pathological sizes -- one-row tiles,
        width-1 dimension blocks -- never changes the counts: tiling and
        block widths are pure execution-shape choices."""
        geometry, queries, radii, q_lower, q_upper = _random_case(
            seed, k, d, n_queries
        )
        default = NumpyBatchedKernel()
        tiny = NumpyBatchedKernel(memory_cap_bytes=cap)
        np.testing.assert_array_equal(
            tiny.count_knn(geometry, queries, radii),
            default.count_knn(geometry, queries, radii),
        )
        np.testing.assert_array_equal(
            tiny.count_range(geometry, q_lower, q_upper),
            default.count_range(geometry, q_lower, q_upper),
        )


class TestBlockWalk:
    """The batched kernel's doubling dimension blocks against the
    per-dimension stream they replaced (``tests/kernel_oracle.py``)."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 200),
        DIMS,
        st.integers(1, 50),
        CAPS,
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_stream_oracle(self, seed, k, d, n_queries, cap, g):
        geometry, queries, radii, q_lower, q_upper = _random_case(
            seed, k, d, n_queries
        )
        kernel = NumpyBatchedKernel(memory_cap_bytes=cap)
        reference = get_kernel("reference")
        bound_sq = radii * radii
        pairs = kernel.knn_pairs(geometry, queries, bound_sq)
        for got, want in zip(pairs, knn_pairs_by_stream(
            geometry, queries, bound_sq
        )):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert got.tobytes() == want.tobytes()
        rows, cols, _ = pairs
        assert (np.diff(rows * k + cols) > 0).all(), "not sorted by (row, col)"
        scale = np.random.default_rng(seed).random((g, 1)) * 2.0
        grid = radii[None, :] * scale
        fused = kernel.count_grid(geometry, queries, grid)
        for r in range(g):
            np.testing.assert_array_equal(
                fused[r], reference.count_knn(geometry, queries, grid[r])
            )
        counts = kernel.count_range(geometry, q_lower, q_upper)
        np.testing.assert_array_equal(
            counts, reference.count_range(geometry, q_lower, q_upper)
        )
        np.testing.assert_array_equal(
            counts, count_range_by_stream(geometry, q_lower, q_upper)
        )

    def test_block_temporaries_stay_under_cap(self):
        """Every pair survives to the last dimension, so the cap -- room
        for 8-wide blocks over all pairs -- and not the doubling
        schedule bounds the later blocks."""
        gen = np.random.default_rng(0)
        k, d, n_queries = 256, 70, 16
        lower = gen.random((k, d))
        geometry = LeafGeometry.from_corners(lower, lower + 0.1)
        queries = gen.random((n_queries, d))
        radii = np.full(n_queries, float(d))
        cap = 8 * 6 * 8 * n_queries * k
        kernel = NumpyBatchedKernel(memory_cap_bytes=cap)
        geometry.lower_t, geometry.upper_t  # cached before the trace
        tracemalloc.start()
        try:
            counts = kernel.count_knn(geometry, queries, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (counts == k).all()
        assert peak <= cap, f"peak {peak:,} bytes over the {cap:,} cap"


class TestFusedGrid:
    """The fused multi-radius contract: ``count_grid`` row ``r`` equals
    ``count_knn`` at ``radii_grid[r]``, bit for bit, on every backend."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 120),
        DIMS,
        st.integers(1, 30),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_bit_identical_to_per_request_loop(
        self, seed, k, d, n_queries, g
    ):
        geometry, queries, radii, _, _ = _random_case(seed, k, d, n_queries)
        gen = np.random.default_rng(seed + 1)
        # Rows scale the base radii through zero, shrunken, and inflated
        # regimes so pruning envelopes and boundary hits all occur.
        grid = radii[None, :] * gen.random((g, 1)) * 2.0
        grid[gen.random((g, n_queries)) < 0.15] = 0.0
        for name in available_kernels():
            kernel = get_kernel(name)
            fused = kernel.count_grid(geometry, queries, grid)
            assert fused.shape == (g, n_queries), name
            assert fused.dtype == np.int64, name
            for r in range(g):
                np.testing.assert_array_equal(
                    fused[r], kernel.count_knn(geometry, queries, grid[r]),
                    err_msg=f"{name} row {r}",
                )

    @given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_one_dim_grid_broadcasts_per_row_radius(self, seed, k, d):
        """A (g,) grid means one shared radius per row."""
        geometry, queries, _, _, _ = _random_case(seed, k, d, 7)
        scalars = np.array([0.0, 0.2, 0.9])
        for name in available_kernels():
            kernel = get_kernel(name)
            fused = kernel.count_grid(geometry, queries, scalars)
            for r, radius in enumerate(scalars):
                np.testing.assert_array_equal(
                    fused[r],
                    kernel.count_knn(
                        geometry, queries, np.full(7, radius)
                    ),
                    err_msg=name,
                )

    def test_empty_geometry_and_degenerate_shapes(self):
        for name in available_kernels():
            kernel = get_kernel(name)
            empty = kernel.count_grid(
                LeafGeometry.empty(3), np.random.default_rng(0).random((4, 3)),
                np.zeros((2, 4)),
            )
            assert empty.shape == (2, 4) and not empty.any()
            no_queries = kernel.count_grid(
                LeafGeometry.from_corners(np.zeros((2, 3)), np.ones((2, 3))),
                np.empty((0, 3)), np.empty((5, 0)),
            )
            assert no_queries.shape == (5, 0)
            no_rows = kernel.count_grid(
                LeafGeometry.from_corners(np.zeros((2, 3)), np.ones((2, 3))),
                np.zeros((4, 3)), np.empty((0, 4)),
            )
            assert no_rows.shape == (0, 4)

    def test_boundary_rows_inclusive(self):
        """dist == radius intersects in every grid row, exactly as in
        the single-radius path."""
        geometry = LeafGeometry.from_corners(
            np.array([[1.0, 0.0]]), np.array([[2.0, 1.0]])
        )
        queries = np.array([[0.0, 0.5]])
        grid = np.array([[1.0], [1.0 - 1e-9]])
        for name in available_kernels():
            fused = get_kernel(name).count_grid(geometry, queries, grid)
            np.testing.assert_array_equal(fused, [[1], [0]], err_msg=name)


class TestBatchPlanAndGrid:
    def test_as_radii_grid_normalizes_and_validates(self):
        centers = np.zeros((4, 2))
        grid = as_radii_grid(centers, [0.1, 0.2])
        assert grid.shape == (2, 4) and grid.dtype == np.float64
        np.testing.assert_array_equal(grid[0], np.full(4, 0.1))
        two_d = as_radii_grid(centers, np.arange(8.0).reshape(2, 4))
        assert two_d.flags["C_CONTIGUOUS"]
        with pytest.raises(ValueError):
            as_radii_grid(centers, np.zeros((2, 3)))  # wrong q
        with pytest.raises(ValueError):
            as_radii_grid(centers, np.zeros((1, 2, 4)))  # 3-d

    def test_for_members_split_round_trip(self):
        plan = BatchPlan.for_members(
            ["a", "b", "c"], [3, 0, 2], kernel="numpy_batched", n_leaves=7
        )
        assert plan.n_members == 3 and plan.n_queries == 5
        fused = np.arange(5)
        parts = plan.split(fused)
        np.testing.assert_array_equal(parts[0], [0, 1, 2])
        assert parts[1].shape == (0,)
        np.testing.assert_array_equal(parts[2], [3, 4])
        parts[0][0] = 99  # split copies: mutating a part is private
        assert fused[0] == 0

    def test_attribute_is_exact_and_proportional(self):
        plan = BatchPlan.for_members(
            ["a", "b", "c"], [1, 2, 3], kernel="reference", n_leaves=10
        )
        shares = plan.attribute(100)
        assert sum(shares) == 100
        assert shares == [17, 33, 50]
        # Zero-query members never get charged unless they are alone.
        lop = BatchPlan.for_members(["x", "y"], [0, 4],
                                    kernel="reference", n_leaves=1)
        assert lop.attribute(9) == [0, 9]

    def test_non_contiguous_segments_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan(kernel="reference", members=("a", "b"),
                      segments=((0, 2), (3, 4)), n_leaves=1)


class TestRegistry:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert DEFAULT_KERNEL == "numpy_batched"
        assert default_kernel_name() == "numpy_batched"
        assert get_kernel().name == "numpy_batched"

    def test_preferred_kernel_ladder(self, monkeypatch):
        """``REPRO_KERNEL`` beats numpy_batched; an empty value counts
        as unset, and no other backend is ever promoted over it."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert default_kernel_name() == "numpy_batched"
        assert get_kernel() is get_kernel("numpy_batched")
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert default_kernel_name() == "reference"
        assert get_kernel() is get_kernel("reference")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert default_kernel_name() == "reference"
        assert get_kernel().name == "reference"
        # A name addresses one kernel whatever the environment selects.
        assert get_kernel("numpy_batched").name == "numpy_batched"

    def test_available_kernels_sorted(self):
        names = available_kernels()
        assert names == ("numpy_batched", "reference")
        assert list(names) == sorted(names)

    def test_instances_cached(self):
        assert get_kernel("reference") is get_kernel("reference")
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert isinstance(get_kernel("numpy_batched"), NumpyBatchedKernel)

    def test_unknown_kernel_typed_error(self):
        with pytest.raises(UnknownKernelError) as excinfo:
            get_kernel("simd_avx1024")
        err = excinfo.value
        assert err.kernel == "simd_avx1024"
        assert "reference" in err.available
        assert "simd_avx1024" in str(err)
        assert "reference" in str(err)
        assert isinstance(err, ValueError)
        with pytest.raises(UnknownKernelError):
            get_kernel("numba")

    def test_unknown_env_kernel_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "warp_drive")
        with pytest.raises(UnknownKernelError):
            get_kernel()


class TestMemoryCap:
    """``REPRO_KERNEL_CAP_BYTES`` is validated as eagerly as
    ``REPRO_KERNEL``, with the typed input error."""

    @pytest.mark.parametrize("value", ["64MiB", "0", "-4096", "1.5"])
    def test_malformed_env_cap_fails_at_construction(self, monkeypatch, value):
        monkeypatch.setenv(MEMORY_CAP_ENV_VAR, value)
        with pytest.raises(InputValidationError) as excinfo:
            IndexCostPredictor(dim=16, memory=300, c_data=32, c_dir=16)
        assert MEMORY_CAP_ENV_VAR in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        with pytest.raises(InputValidationError):
            NumpyBatchedKernel()

    def test_env_cap_sets_the_cap(self, monkeypatch):
        monkeypatch.setenv(MEMORY_CAP_ENV_VAR, "65536")
        assert NumpyBatchedKernel().memory_cap_bytes == 65536
        monkeypatch.delenv(MEMORY_CAP_ENV_VAR)
        default = NumpyBatchedKernel().memory_cap_bytes
        assert default == DEFAULT_MEMORY_CAP_BYTES

    def test_explicit_cap_must_be_positive(self):
        with pytest.raises(InputValidationError):
            NumpyBatchedKernel(memory_cap_bytes=0)


class TestPredictorsKernelInvariant:
    """Every predictor's per-query counts survive a kernel swap, made
    the one way there is: ``REPRO_KERNEL``."""

    @pytest.fixture(scope="class")
    def points(self, clustered_points):
        return clustered_points[:1500]

    @pytest.fixture(scope="class")
    def workload(self, points):
        predictor = IndexCostPredictor(dim=16, memory=300, c_data=32,
                                       c_dir=16)
        return predictor.make_workload(points, 15, 11, seed=2)

    @pytest.mark.parametrize("method", ["mini", "cutoff", "resampled"])
    def test_facade_methods(self, method, points, workload, monkeypatch):
        results = {}
        for name in ("reference", "numpy_batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            predictor = IndexCostPredictor(
                dim=16, memory=300, c_data=32, c_dir=16
            )
            result = predictor.predict(points, workload, method=method,
                                       seed=5)
            assert result.detail["kernel"] == name
            results[name] = result.per_query
        np.testing.assert_array_equal(
            results["reference"], results["numpy_batched"]
        )

    def test_kdb_model(self, points, workload, monkeypatch):
        counts = []
        for name in ("reference", "numpy_batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            result = KDBMiniIndexModel(c_data=32).predict(
                points, workload, 0.25, np.random.default_rng(3)
            )
            assert result.detail["kernel"] == name
            counts.append(result.per_query)
        np.testing.assert_array_equal(counts[0], counts[1])

    def test_dynamic_model(self, points, workload, monkeypatch):
        counts = []
        for name in ("reference", "numpy_batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            result = DynamicMiniIndexModel(32, 16).predict(
                points, workload, 0.25, np.random.default_rng(3)
            )
            assert result.detail["kernel"] == name
            counts.append(result.per_query)
        np.testing.assert_array_equal(counts[0], counts[1])

    def test_range_workload_through_facade(self, points, monkeypatch):
        gen = np.random.default_rng(9)
        centers = points[gen.choice(points.shape[0], 12)]
        workload = RangeWorkload(lower=centers - 0.05, upper=centers + 0.05)
        counts = []
        for name in ("reference", "numpy_batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            counts.append(
                IndexCostPredictor(dim=16, memory=300, c_data=32, c_dir=16)
                .predict(points, workload, method="resampled", seed=5)
                .per_query
            )
        np.testing.assert_array_equal(counts[0], counts[1])

    def test_faulted_run_kernel_invariant(self, points, workload, monkeypatch):
        """Seed-driven fault injection is kernel-independent: a flaky
        disk produces the same (repaired) prediction under any backend."""
        counts = []
        for name in ("reference", "numpy_batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            predictor = IndexCostPredictor(
                dim=16, memory=300, c_data=32, c_dir=16,
                fault_rate=0.05, fault_seed=11,
            )
            counts.append(
                predictor.predict(points, workload, method="resampled",
                                  seed=5).per_query
            )
        np.testing.assert_array_equal(counts[0], counts[1])

    def test_bad_kernel_fails_at_construction(self, monkeypatch):
        """A bad selection fails before any work wherever a facade is
        built, the service's tenant registration included."""
        from repro.service import PredictionService

        monkeypatch.setenv(KERNEL_ENV_VAR, "gpu_tensor")
        service = PredictionService(workers=1)
        with pytest.raises(UnknownKernelError):
            service.register_tenant("t", np.zeros((8, 4)), warm=False)
        assert not service.tenants()

    def test_env_kernel_checked_at_construction(self, monkeypatch):
        """The env-var default is validated as eagerly as the field."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "definitely_not_a_kernel")
        with pytest.raises(UnknownKernelError):
            IndexCostPredictor(dim=16, memory=300, c_data=32, c_dir=16)


class TestCLIKernelFlag:
    """The CLI selects kernels only through ``REPRO_KERNEL``."""

    def test_explicit_kernel_runs(self, capsys, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert main(["predict", *FAST]) == 0
        assert "'kernel': 'reference'" in capsys.readouterr().out

    def test_kernels_agree_end_to_end(self, capsys, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert main(["predict", *FAST]) == 0
        ref = capsys.readouterr().out
        monkeypatch.delenv(KERNEL_ENV_VAR)
        assert main(["predict", *FAST]) == 0
        default = capsys.readouterr().out
        assert "'kernel': 'numpy_batched'" in default
        accesses = [ln for ln in ref.splitlines() if "accesses" in ln]
        assert accesses
        assert accesses == [
            ln for ln in default.splitlines() if "accesses" in ln
        ]

    def test_unknown_kernel_exits_14(self, capsys, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "quantum")
        assert main(["predict", *FAST]) == 14
        err = capsys.readouterr().err
        assert "UnknownKernelError" in err and "quantum" in err
        assert "numpy_batched, reference" in err

    @pytest.mark.parametrize("command", ["predict", "cluster"])
    def test_kernel_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--kernel", "reference"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_unknown_env_kernel_exits_14(self, monkeypatch):
        """Every command that counts checks the selection up front."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "quantum")
        for command in ("measure", "compare", "tune-pagesize", "scrub"):
            assert main([command, *FAST]) == 14, command

    def test_malformed_env_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setenv(MEMORY_CAP_ENV_VAR, "64MiB")
        assert main(["predict", *FAST]) == 3
        err = capsys.readouterr().err
        assert "InputValidationError" in err and "'64MiB'" in err


class TestLeafGeometry:
    def test_from_leaves_skips_unset_mbrs(self, tiny_points):
        from repro.rtree.tree import RTree

        tree = RTree.bulk_load(tiny_points, 8, 4)
        geometry = tree.leaf_geometry
        assert geometry.k == tree.n_leaves
        assert geometry.dim == 2
        np.testing.assert_array_equal(
            np.asarray([leaf.n_points for leaf in tree.leaves]),
            geometry.n_points,
        )

    def test_scaled_preserves_counts_metadata(self):
        geometry = LeafGeometry.from_corners(
            np.zeros((3, 2)), np.ones((3, 2)),
            n_points=np.array([4, 5, 6]),
        )
        scaled = geometry.scaled(2.0)
        np.testing.assert_array_equal(scaled.n_points, geometry.n_points)
        np.testing.assert_allclose(scaled.lower, -0.5)
        np.testing.assert_allclose(scaled.upper, 1.5)

    def test_kdb_leaves_cached_and_invalidated(self, tiny_points):
        from repro.rtree.kdb import KDBTree

        tree = KDBTree.bulk_load(tiny_points, c_data=8)
        assert tree.leaves is tree.leaves  # cached, not rebuilt per access
        before = tree.leaf_geometry
        assert tree.leaf_geometry is before
        tree.invalidate_caches()
        after = tree.leaf_geometry
        assert after is not before
        np.testing.assert_array_equal(after.lower, before.lower)
        np.testing.assert_array_equal(after.upper, before.upper)

    def test_rtree_leaves_cached_and_invalidated(self, tiny_points):
        from repro.rtree.tree import RTree

        tree = RTree.bulk_load(tiny_points, 8, 4)
        assert tree.leaves is tree.leaves
        before = tree.leaf_geometry
        assert tree.leaf_geometry is before
        tree.invalidate_caches()
        assert tree.leaf_geometry is not before
