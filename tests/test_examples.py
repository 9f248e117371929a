"""Smoke tests for the example scripts.

Each example must import cleanly and expose a ``main`` entry point; the
cheap examples (quickstart at a reduced scale, page-size tuning, and
the two cluster walkthroughs) are executed end to end so a broken
public API surfaces here, not in a user's terminal.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_NAMES = [
    "quickstart",
    "tune_page_size",
    "compare_models",
    "restricted_memory_prediction",
    "choose_index_dimensions",
    "predict_dynamic_index",
    "index_anatomy",
    "resilient_prediction",
    "budgeted_prediction",
    "self_healing",
    "multi_tenant_service",
    "sharded_cluster",
    "elastic_cluster",
]


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_importable_with_main(self, name):
        module = _load(name)
        assert callable(module.main)
        assert module.__doc__  # every example documents itself

    def test_quickstart_runs(self, capsys, monkeypatch):
        # Shrink the dataset so the end-to-end run stays fast.
        from repro.data import datasets

        module = _load("quickstart")
        original = datasets.texture60
        monkeypatch.setattr(
            datasets, "texture60",
            lambda scale=0.05, seed=7: original(scale=0.01, seed=seed),
        )
        module.main()
        out = capsys.readouterr().out
        assert "resampled prediction error" in out

    def test_tune_page_size_runs(self, capsys, monkeypatch):
        module = _load("tune_page_size")
        monkeypatch.setattr(sys, "argv", ["tune_page_size.py",
                                          "--scale", "0.01"])
        module.main()
        assert "predicted optimal page size" in capsys.readouterr().out

    def test_sharded_cluster_runs(self, capsys):
        _load("sharded_cluster").main()
        out = capsys.readouterr().out
        verdicts = re.findall(r"bit-identical[^:]*: (\w+)", out)
        assert len(verdicts) == 2 and set(verdicts) == {"True"}

    def test_elastic_cluster_runs(self, capsys):
        # scale-out, drift re-tune, split and scale-in, all public API
        _load("elastic_cluster").main()
        out = capsys.readouterr().out
        assert "refits 0" in out
        verdicts = re.findall(r"bit-identical[^:]*: (\w+)", out)
        assert verdicts and set(verdicts) == {"True"}
        rows = re.findall(r"router (\d+) (\S+) ledgers (\d+)", out)
        assert rows
        for router, mark, ledgers in rows:
            assert mark == "==" and router == ledgers
