"""The resampled predictor reaches its layers through the module
attributes the benchmark traces.

``perfbench/predict_oneshot.py`` times each layer of a prediction by
replacing a function of ``repro.core.resampled`` with a timed wrapper
(``tracer.wrap(resampled, "build_subtree", "rtree.lower")`` and so on).
A rename there fails loudly, but code that keeps the name and stops
calling it would silently zero that layer.  These tests wrap the same
attributes with counters and hold the calls to what a prediction does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import resampled
from repro.core.resampled import ResampledModel
from repro.disk.device import SimulatedDisk
from repro.disk.pagefile import PointFile
from repro.workload.queries import density_biased_knn_workload

#: the attributes of ``repro.core.resampled`` the benchmark wraps
TRACED = ("read_query_points", "scan_and_sample", "build_upper_tree",
          "build_subtree", "grow_geometry")


@pytest.fixture
def traced(monkeypatch):
    """Counting wrappers on the traced attributes; returns the calls."""
    calls: dict[str, list] = {name: [] for name in TRACED}

    def wrap(name):
        real = getattr(resampled, name)

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return counted

    for name in TRACED:
        monkeypatch.setattr(resampled, name, wrap(name))
    return calls


@pytest.fixture
def spill(monkeypatch):
    """What the spill step returned: the areas and the leaf-to-area map."""
    seen: list = []
    real = ResampledModel._resample_into_areas

    def recorded(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(ResampledModel, "_resample_into_areas", recorded)
    return seen


def test_every_traced_layer_is_called_by_name(clustered_points, traced, spill):
    workload = density_biased_knn_workload(
        clustered_points, 30, 21, np.random.default_rng(3))
    # h_upper 2 on 4,000 points: 8 lower trees, each sampled
    # (sigma_lower 0.08), so the compensation step runs too
    model = ResampledModel(32, 16, memory=40, h_upper=2)
    result = model.predict(PointFile.from_points(SimulatedDisk(),
                                                 clustered_points),
                           workload, np.random.default_rng(0))
    assert result.detail["sigma_lower"] < 1.0
    for name in ("read_query_points", "scan_and_sample", "build_upper_tree",
                 "grow_geometry"):
        assert len(traced[name]) == 1, name

    (areas, _, _, area_of_leaf, _, _), = spill
    non_empty = [i for i in area_of_leaf
                 if i is not None and areas[i].n_points > 0]
    assert len(non_empty) > 1
    lower_trees = traced["build_subtree"]
    assert len(lower_trees) == len(non_empty)
    # every predicted leaf page comes from one of those calls
    pages = sum(int(layout.full.sum()) for _, layout in lower_trees)
    assert pages == result.detail["n_predicted_leaves"]
