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
from repro.data import generators
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
from repro.kernels.geometry import live_fanouts, ordered_sum_sq
from repro.kernels.reference import ReferenceKernel
from repro.rtree.tree import RTree
from repro.workload.queries import KNNWorkload, RangeWorkload, exact_knn_radii

from .kernel_oracle import (
    ancestor_sq_by_stream,
    count_range_by_stream,
    knn_pairs_by_stream,
)

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


class _BlockLog(NumpyBatchedKernel):
    """The batched kernel, logging each dimension block it takes as
    ``(start, stop)`` and the pairs the block starts with."""

    def __init__(self, memory_cap_bytes=None):
        super().__init__(memory_cap_bytes)
        self.blocks, self.n_pairs = [], []

    def _block_stop(self, start, width, n_dims, n_pairs):
        stop = super()._block_stop(start, width, n_dims, n_pairs)
        self.blocks.append((start, stop))
        self.n_pairs.append(n_pairs)
        return stop


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
        *pairs, ancestor_sq = kernel.knn_pairs(geometry, queries, bound_sq)
        assert ancestor_sq == ()  # a one-level geometry has no ancestors
        for got, want in zip(pairs, knn_pairs_by_stream(
            geometry, queries, bound_sq
        ), strict=True):
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
        """Every pair survives to the last dimension.  With room for
        8-wide blocks over 16 x 256 pairs, the cap -- not the doubling
        schedule -- bounds the later blocks; with room for exactly the
        69 dimensions after the dense pass over 4 x 32 pairs, the rest
        go in one block right at the cap."""
        gen = np.random.default_rng(0)
        d = 70
        for k, n_queries, width, widths in (
            (256, 16, 8, [1, 2, 4] + [8] * 7 + [6]),
            (32, 4, d - 1, [d - 1]),
        ):
            lower = gen.random((k, d))
            geometry = LeafGeometry.from_corners(lower, lower + 0.1)
            queries = gen.random((n_queries, d))
            radii = np.full(n_queries, float(d))
            cap = width * 6 * 8 * n_queries * k
            kernel = _BlockLog(memory_cap_bytes=cap)
            geometry.lower_t, geometry.upper_t  # cached before the trace
            tracemalloc.start()
            try:
                counts = kernel.count_knn(geometry, queries, radii)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (counts == k).all()
            assert peak <= cap, f"peak {peak:,} bytes over the {cap:,} cap"
            assert [stop - start for start, stop in kernel.blocks] == widths

    def test_cluster_leg_takes_one_block(self):
        """A cluster leg's shape -- 16 queries against 16 leaves of a
        48-d tree, exact 21-NN radii -- folds its 47 dimensions after
        the dense pass in one block; under a cap one byte short of them
        it doubles from width 1 again."""
        gen = np.random.default_rng(0)
        points = generators.gaussian_mixture(320, 48, gen, n_clusters=8,
                                             cluster_std=0.05)
        geometry = RTree.bulk_load(points, 20, 16).leaf_geometry
        assert geometry.k == 16
        queries = points[gen.choice(320, 16, replace=False)]
        radii = exact_knn_radii(points, queries, 21)
        expected = get_kernel("reference").count_knn(geometry, queries, radii)
        kernel = _BlockLog(memory_cap_bytes=DEFAULT_MEMORY_CAP_BYTES)
        np.testing.assert_array_equal(
            kernel.count_knn(geometry, queries, radii), expected)
        assert kernel.blocks == [(1, 48)]
        n_pairs, = kernel.n_pairs
        tight = _BlockLog(memory_cap_bytes=47 * 6 * 8 * n_pairs - 1)
        np.testing.assert_array_equal(
            tight.count_knn(geometry, queries, radii), expected)
        assert tight.blocks[0] == (1, 2)


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

    def test_directory_carried_by_scaled(self):
        lower = np.arange(8.0).reshape(4, 2)
        geometry = LeafGeometry(
            lower, lower + 1.0, fanouts=(np.array([3, 1]), np.array([2])))
        grown = geometry.scaled(3.0)
        assert [f.tolist() for f in grown.fanouts] == [[3, 1], [2]]
        # the parents are unions of the grown rows, not of the old ones
        parents = grown.levels[1]
        np.testing.assert_array_equal(parents.lower_t.T,
                                      [grown.lower[:3].min(axis=0),
                                       grown.lower[3]])
        np.testing.assert_array_equal(parents.upper_t.T,
                                      [grown.upper[:3].max(axis=0),
                                       grown.upper[3]])

    @pytest.mark.parametrize("fanouts", [
        (np.array([2, 1]),),            # sums to 3, not 4
        (np.array([4, 0]),),            # a parent with no child
        (np.array([2, 2]), np.array([3])),  # level 2 sums to 3, not 2
    ])
    def test_malformed_directory_rejected(self, fanouts):
        with pytest.raises(ValueError):
            LeafGeometry(np.zeros((4, 2)), np.ones((4, 2)), fanouts=fanouts)


def _random_directory(gen: np.random.Generator, n_rows: int, n_levels: int):
    """Random bottom-up fanouts over ``n_rows``, 1-4 children each."""
    fanouts = []
    for _ in range(n_levels):
        if n_rows == 1:
            break
        sizes = gen.integers(1, 5, n_rows)
        sizes = sizes[:np.searchsorted(np.cumsum(sizes), n_rows) + 1]
        sizes[-1] = n_rows - sizes[:-1].sum()
        fanouts.append(sizes)
        n_rows = sizes.shape[0]
    return tuple(fanouts)


class TestDirectoryCounting:
    """Counting top-down through a directory is exact: the counts, the
    fused grid and the pairs equal the one-level pass and the
    ``reference`` oracle bit for bit, and each pair's ancestor distances
    equal a direct measurement of the ancestor's box."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 150),
        DIMS,
        st.integers(1, 30),
        st.integers(0, 4),
        st.sampled_from([1.0, 0.5, 1.7]),
        CAPS,
    )
    @settings(max_examples=60, deadline=None)
    def test_directory_pass_equals_flat(
        self, seed, k, d, n_queries, n_levels, growth, cap
    ):
        gen = np.random.default_rng(seed)
        geometry, queries, radii, _, _ = _random_case(seed, k, d, n_queries)
        # children of one parent are neighbours in dimension 0, so the
        # directory prunes; rows with no points are dropped as a
        # bulk-loaded layout drops its empty leaves
        order = np.argsort(geometry.lower[:, 0], kind="stable")
        lower, upper = geometry.lower[order], geometry.upper[order]
        fanouts = _random_directory(gen, k, n_levels)
        keep = gen.random(k) < 0.8
        keep[gen.integers(0, k)] = True
        directory = LeafGeometry(
            lower[keep], upper[keep],
            fanouts=live_fanouts(fanouts, keep)).scaled(growth)
        flat = LeafGeometry(directory.lower, directory.upper)
        # some queries sit exactly on a leaf's faces
        on_face = gen.random(n_queries) < 0.3
        rows = gen.integers(0, directory.k, n_queries)
        face = np.where(gen.random((n_queries, d)) < 0.5,
                        directory.lower[rows], directory.upper[rows])
        queries = np.where(on_face[:, None], face, queries)

        kernel = NumpyBatchedKernel(memory_cap_bytes=cap)
        expected = get_kernel("reference").count_knn(flat, queries, radii)
        for name in available_kernels():
            np.testing.assert_array_equal(
                get_kernel(name).count_knn(directory, queries, radii),
                expected, err_msg=name)
        np.testing.assert_array_equal(
            kernel.count_knn(directory, queries, radii), expected)
        grid = radii[None, :] * np.array([[0.0], [0.5], [1.0], [1.3]])
        np.testing.assert_array_equal(
            kernel.count_grid(directory, queries, grid),
            kernel.count_grid(flat, queries, grid))

        bound_sq = radii * radii
        got = kernel.knn_pairs(directory, queries, bound_sq)
        want = knn_pairs_by_stream(flat, queries, bound_sq)
        for mine, theirs in zip(got[:3], want):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        rows, cols, _, ancestor_sq = got
        assert len(ancestor_sq) == len(directory.fanouts)
        ancestor = cols
        for fanout, level, level_sq in zip(
                directory.fanouts, directory.levels[-2::-1],
                ancestor_sq[::-1]):
            ancestor = np.repeat(np.arange(fanout.shape[0]), fanout)[ancestor]
            box_lower = level.lower_t.T[ancestor]
            box_upper = level.upper_t.T[ancestor]
            point = queries[rows]
            gap = (np.maximum(box_lower - point, 0.0)
                   + np.maximum(point - box_upper, 0.0))
            assert ordered_sum_sq(gap).tobytes() == level_sq.tobytes()

    def test_resampled_directory_drops_unbuilt_upper_leaves(
        self, clustered_points, monkeypatch
    ):
        """An upper leaf whose spill area stayed empty builds no lower
        tree, so the prediction's directory leaves it out; counting
        through that directory equals counting its pages flat."""
        from repro.core.resampled import ResampledModel
        from repro.disk.device import SimulatedDisk
        from repro.disk.pagefile import PointFile
        from repro.workload.queries import density_biased_knn_workload

        kernel = type(get_kernel())
        real = kernel.count_knn
        seen = []

        def spy(self, geometry, queries, radii):
            seen.append(geometry)
            return real(self, geometry, queries, radii)

        monkeypatch.setattr(kernel, "count_knn", spy)
        workload = density_biased_knn_workload(
            clustered_points, 30, 21, np.random.default_rng(3))
        # 20 sample points over 8 upper leaves: three spill areas stay
        # empty
        result = ResampledModel(8, 4, memory=20, h_upper=3).predict(
            PointFile.from_points(SimulatedDisk(), clustered_points),
            workload, np.random.default_rng(0))
        geometry, = seen
        # fanouts[i] counts the children of level i + 2; the upper
        # leaves are h_upper - 1 levels below the root
        upper_leaves = geometry.fanouts[len(geometry.fanouts) - 3]
        assert upper_leaves.shape[0] < result.detail["k_upper_leaves"]
        flat = LeafGeometry(geometry.lower, geometry.upper)
        np.testing.assert_array_equal(
            result.per_query,
            get_kernel("reference").count_knn(flat, workload.queries,
                                              workload.radii))

    @pytest.mark.parametrize("n_queries", [64, 1024])
    def test_memory_stays_bounded_when_every_pair_survives(self, n_queries):
        """Expansions go in chunks of one dense pass's pairs, so the
        peak is a few caps whatever the workload: here 64 x 4,096 and
        1,024 x 4,096 pairs reach the leaves under a 256 KiB cap."""
        gen = np.random.default_rng(0)
        k, d, cap = 4096, 20, 1 << 18
        lower = gen.random((k, d))
        geometry = LeafGeometry(
            lower, lower + 0.1,
            fanouts=(np.full(k // 8, 8), np.full(k // 64, 8)))
        queries = gen.random((n_queries, d))
        radii = np.full(n_queries, float(d))
        kernel = NumpyBatchedKernel(memory_cap_bytes=cap)
        geometry.levels  # cached before the trace
        tracemalloc.start()
        try:
            counts = kernel.count_knn(geometry, queries, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (counts == k).all()
        assert peak <= 5 * cap, f"peak {peak:,} bytes, cap {cap:,}"


class TestOneBlockFold:
    """Folding the rest of a walk in one block keeps every output
    byte-equal to the per-dimension stream (``tests/kernel_oracle.py``),
    on tiny geometries like a cluster leg's and at caps on both sides of
    the one-block fit."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 32),
        st.one_of(st.integers(1, 360),
                  st.sampled_from(BLOCK_EDGES + (48, 60, 128, 129, 360))),
        st.integers(1, 16),
        st.integers(0, 3),
        st.one_of(st.sampled_from([-1, 0, 1]).map(lambda o: ("fit", o)),
                  CAPS.map(lambda c: ("cap", c))),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiny_geometries_match_stream_oracle(
        self, seed, k, d, n_queries, n_levels, cap
    ):
        gen = np.random.default_rng(seed)
        geometry, queries, radii, q_lower, q_upper = _random_case(
            seed, k, d, n_queries)
        order = np.argsort(geometry.lower[:, 0], kind="stable")
        flat = LeafGeometry(geometry.lower[order], geometry.upper[order])
        directory = LeafGeometry(flat.lower, flat.upper,
                                 fanouts=_random_directory(gen, k, n_levels))
        bound_sq = radii * radii
        kind, value = cap
        if kind == "fit":
            # the cap that the default walk's first block to reach
            # dimension d, over the pairs it starts with, just fits
            probe = _BlockLog()
            probe.knn_pairs(directory, queries, bound_sq)
            spans = [(d - start) * n for (start, stop), n
                     in zip(probe.blocks, probe.n_pairs) if stop == d]
            value = max(1, 6 * 8 * spans[0] + value) if spans else 1 << 21
        kernel = NumpyBatchedKernel(memory_cap_bytes=value)

        rows, cols, dist_sq, ancestor_sq = kernel.knn_pairs(
            directory, queries, bound_sq)
        for got, want in zip((rows, cols, dist_sq), knn_pairs_by_stream(
                flat, queries, bound_sq), strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        want_sq = ancestor_sq_by_stream(directory, queries, rows, cols)
        assert len(ancestor_sq) == len(directory.fanouts)
        for got, want in zip(ancestor_sq, want_sq, strict=True):
            assert got.tobytes() == want.tobytes()
        counts = kernel.count_range(flat, q_lower, q_upper)
        assert counts.tobytes() == count_range_by_stream(
            flat, q_lower, q_upper).tobytes()
