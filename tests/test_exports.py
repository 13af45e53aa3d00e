"""Every exported name resolves, so no deleted name lingers in an export list;
every exported name has a caller outside the tests; and every function the
benchmark's tracer times still exists."""

import ast
import glob
import importlib
import os
import runpy

import pytest

from conftest import PERFBENCH

MODULES = ["skewlab"] + [
    f"skewlab.{name}"
    for name in ("excursion", "grid_paths", "localtime", "signed_measure", "signflip", "skewbm")
]
SRC = os.path.join(os.path.dirname(PERFBENCH), "src", "skewlab")


def span_targets():
    """``<module>.<attribute path>`` below skewlab of each traced span and hook."""
    spans = runpy.run_path(os.path.join(PERFBENCH, "spans.py"))
    return sorted(set(spans["SPANS"].values()) | set(spans["HOOKS"]))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_export_is_read_outside_the_tests():
    # a name read only by tests is a wrapper no caller needs; a read is a
    # Name or Attribute node in the library or the benchmark, or a traced span
    read = {target.rsplit(".", 1)[-1] for target in span_targets()}
    for path in glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{module_name}.{name}"
        for module_name in MODULES
        for name in importlib.import_module(module_name).__all__
        if name not in read
    ]
    assert unread == []


def test_benchmark_span_targets_resolve():
    # a deleted target would leave its per-layer metric reading 0 in every
    # traced run
    missing = []
    for target in span_targets():
        module, *path = target.split(".")
        obj = importlib.import_module(f"skewlab.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []
