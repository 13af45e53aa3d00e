"""Every exported name resolves, so no deleted name lingers in an export list,
and every function the benchmark's tracer times still exists."""

import importlib
import os
import runpy

import pytest

from conftest import PERFBENCH

MODULES = ["skewlab"] + [
    f"skewlab.{name}"
    for name in ("excursion", "grid_paths", "localtime", "signed_measure", "signflip", "skewbm")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_benchmark_span_targets_resolve():
    # a span is "<module>.<attribute path>" below skewlab; a deleted target
    # would leave its per-layer metric reading 0 in every traced run
    spans = runpy.run_path(os.path.join(PERFBENCH, "spans.py"))
    missing = []
    for target in sorted(set(spans["SPANS"].values()) | set(spans["HOOKS"])):
        module, *path = target.split(".")
        obj = importlib.import_module(f"skewlab.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []
