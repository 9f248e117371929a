"""Tests for upper-tree construction and h_upper resolution."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IndexCostPredictor
from repro.core.phases import build_upper_tree, resolve_h_upper
from repro.core.topology import Topology
from repro.errors import InputValidationError


@pytest.fixture(scope="module")
def topo(clustered_points):
    return Topology(clustered_points.shape[0], 32, 16)


class TestBuildUpperTree:
    def test_leaf_count_matches_topology(self, clustered_points, topo, rng):
        sample = clustered_points[rng.choice(len(clustered_points), 400,
                                             replace=False)]
        upper = build_upper_tree(sample, topo, h_upper=2)
        assert upper.k == topo.n_upper_leaves(2)
        assert upper.leaf_level == topo.upper_leaf_level(2)

    def test_virtual_counts_conserved(self, clustered_points, topo, rng):
        sample = clustered_points[rng.choice(len(clustered_points), 400,
                                             replace=False)]
        upper = build_upper_tree(sample, topo, h_upper=2)
        assert upper.layout.virtual_n.sum() == topo.n_points
        assert upper.geometry.virtual_n.sum() == topo.n_points

    def test_sample_points_partitioned(self, clustered_points, topo, rng):
        sample = clustered_points[rng.choice(len(clustered_points), 400,
                                             replace=False)]
        upper = build_upper_tree(sample, topo, h_upper=2)
        edges = upper.layout.bounds[0]
        assert np.diff(edges).sum() == 400
        assert upper.geometry.n_points.sum() == 400
        assert np.array_equal(np.sort(upper.layout.order), np.arange(400))

    def test_growth_factor_above_one_when_sampled(self, clustered_points, topo, rng):
        sample = clustered_points[rng.choice(len(clustered_points), 400,
                                             replace=False)]
        upper = build_upper_tree(sample, topo, h_upper=2)
        assert upper.sigma_upper == pytest.approx(400 / topo.n_points)
        assert upper.growth_factor > 1.0

    def test_full_sample_no_growth(self, clustered_points, topo):
        upper = build_upper_tree(clustered_points, topo, h_upper=2)
        assert upper.sigma_upper == 1.0
        assert upper.growth_factor == 1.0

    def test_grown_corners_stack(self, clustered_points, topo, rng):
        sample = clustered_points[rng.choice(len(clustered_points), 400,
                                             replace=False)]
        upper = build_upper_tree(sample, topo, h_upper=2)
        non_empty = int(upper.layout.full.sum())
        assert upper.geometry.lower.shape == (non_empty,
                                              clustered_points.shape[1])
        assert upper.geometry.upper.shape == upper.geometry.lower.shape
        assert np.all(upper.geometry.n_points > 0)

    def test_growth_enlarges_boxes(self, clustered_points, topo, rng):
        ids = rng.choice(len(clustered_points), 400, replace=False)
        sample = clustered_points[ids]
        upper = build_upper_tree(sample, topo, h_upper=2)
        layout, grown = upper.layout, upper.geometry
        edges = layout.bounds[0]
        rows = np.flatnonzero(layout.full)
        assert rows.shape[0] == grown.k
        for row, j in enumerate(rows):
            raw = sample[layout.order[edges[j]:edges[j + 1]]]
            assert np.all(grown.lower[row] <= raw.min(axis=0))
            assert np.all(raw.max(axis=0) <= grown.upper[row])
            if raw.shape[0] < 2:
                continue
            raw_extent = raw.max(axis=0) - raw.min(axis=0)
            grown_extent = grown.upper[row] - grown.lower[row]
            assert np.all(grown_extent >= raw_extent - 1e-12)

    def test_tiny_sample_degrades_gracefully(self, clustered_points, topo):
        # sigma below 1/C: compensation undefined, factor falls back to 1.
        sample = clustered_points[:3]
        upper = build_upper_tree(sample, topo, h_upper=2)
        assert upper.growth_factor == 1.0

    def test_invalid_h_upper(self, clustered_points, topo):
        with pytest.raises(ValueError):
            build_upper_tree(clustered_points, topo, h_upper=0)
        with pytest.raises(ValueError):
            build_upper_tree(clustered_points, topo, h_upper=topo.height + 1)


class TestResolveHUpper:
    def test_explicit_value_validated(self, topo):
        assert resolve_h_upper(topo, 2, memory=500) == 2
        with pytest.raises(ValueError):
            resolve_h_upper(topo, 1, memory=500)
        with pytest.raises(ValueError):
            resolve_h_upper(topo, topo.height, memory=500)

    def test_default_uses_heuristic(self, topo):
        assert resolve_h_upper(topo, None, 500) == topo.best_h_upper(500)

    def test_short_tree_collapses_to_single_phase(self):
        short = Topology(100, 32, 16)  # height 2
        assert resolve_h_upper(short, None, 50) == short.height

    def test_memory_covers_dataset(self, topo):
        assert resolve_h_upper(topo, None, topo.n_points * 2) == topo.height

    def test_height_two_tree_has_no_phased_h_upper(self, uniform_points):
        # the 6-d page capacities make 5,000 points a height-2 tree
        predictor = IndexCostPredictor(dim=6)
        short = predictor.topology(uniform_points.shape[0])
        assert short.height == 2
        with pytest.raises(InputValidationError, match="height-2"):
            resolve_h_upper(short, 2, memory=500)
        workload = predictor.make_workload(uniform_points, 5, 3)
        for method in ("cutoff", "resampled"):
            with pytest.raises(InputValidationError, match="height-2"):
                predictor.predict(uniform_points, workload, method=method,
                                  h_upper=2)

    def test_infeasible_memory_falls_back(self):
        tall = Topology(50_000, 8, 4)
        # Absurdly small memory: no h satisfies the bounds; fall back to 2.
        assert resolve_h_upper(tall, None, 4) == 2
