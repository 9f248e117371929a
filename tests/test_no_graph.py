"""Predictions, fits, on-disk builds and measurements never build a
node graph: they read the bulk loads' page layouts directly.

``PageLayout.graph`` is a view for the searches and ``validate``; these
tests make it raise and run every path that must not need it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import IndexCostPredictor
from repro.core.cutoff import CutoffModel
from repro.core.resampled import ResampledModel
from repro.disk.device import SimulatedDisk
from repro.disk.pagefile import PointFile
from repro.ondisk.measure import measure_knn
from repro.rtree.bulkload import PageLayout
from repro.service.artifacts import fit_model
from repro.workload.queries import density_biased_knn_workload


@pytest.fixture
def no_graph(monkeypatch):
    def graph(self):
        raise AssertionError("PageLayout.graph called")

    monkeypatch.setattr(PageLayout, "graph", graph)


@pytest.fixture(scope="module")
def workload(clustered_points):
    return density_biased_knn_workload(
        clustered_points, 20, 21, np.random.default_rng(5)
    )


def test_graph_view_raises_under_the_fixture(clustered_points, no_graph):
    from repro.rtree.tree import RTree

    tree = RTree.bulk_load(clustered_points, 32, 16)
    with pytest.raises(AssertionError, match="graph called"):
        tree.knn(clustered_points[0], 3)


@pytest.mark.parametrize("h_upper", [None, 2])
def test_predictions(clustered_points, workload, no_graph, h_upper):
    predictor = IndexCostPredictor(dim=16, memory=500, c_data=32, c_dir=16)
    predictor.predict(clustered_points, workload, method="mini",
                      sampling_fraction=0.2)
    for method in ("cutoff", "resampled"):
        result = predictor.predict(clustered_points, workload, method=method,
                                   h_upper=h_upper, degrade=False)
        assert "degradation" not in result.detail


def test_single_phase_and_sampled_lower_trees(clustered_points, workload,
                                              no_graph):
    file = PointFile.from_points(SimulatedDisk(), clustered_points)
    # memory covering the data: the upper tree reaches the data pages
    whole = ResampledModel(32, 16, memory=10_000).predict(
        file, workload, np.random.default_rng(0))
    assert whole.detail["sigma_lower"] == 1.0
    # sampled lower trees grow their pages too
    sampled = ResampledModel(32, 16, memory=40, h_upper=2).predict(
        file, workload, np.random.default_rng(0), checkpoint={})
    assert sampled.detail["sigma_lower"] < 1.0
    CutoffModel(32, 16, memory=40, h_upper=2).predict(
        file, workload, np.random.default_rng(0))


def test_fit_model(clustered_points, no_graph):
    model = fit_model(clustered_points, c_data=32, c_dir=16, memory=800)
    assert model.geometry.k > 0


@pytest.mark.parametrize("memory", [64, 500, 5000])
def test_build_and_measure(clustered_points, workload, no_graph, memory):
    predictor = IndexCostPredictor(dim=16, memory=memory, c_data=32,
                                   c_dir=16)
    index = predictor.build_ondisk(clustered_points)
    assert index.tree.height == 3 and index.tree.n_leaves > 0
    measured = measure_knn(index, workload)
    assert measured.per_query.sum() > 0
    predictor.measure(clustered_points, workload, index=index)
