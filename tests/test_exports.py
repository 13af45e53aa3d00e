"""Every exported name resolves, so no deleted name lingers in an export list;
every exported name has a caller outside the tests; every option of an
exported function is set by a caller outside the tests; and every function
the benchmark's tracer times still exists."""

import ast
import glob
import importlib
import inspect
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


def outside_trees():
    """Parsed modules of the library and the benchmark."""
    for path in glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as f:
            yield ast.parse(f.read())


def test_every_export_is_read_outside_the_tests():
    # a name read only by tests is a wrapper no caller needs; a read is a
    # Name or Attribute node in the library or the benchmark, or a traced span
    read = {target.rsplit(".", 1)[-1] for target in span_targets()}
    for tree in outside_trees():
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


def test_every_option_is_set_outside_the_tests():
    # an option that no caller in the library or the benchmark sets has one
    # value in use, so it is a constant; a call sets a parameter by keyword,
    # by position, or through a * or ** argument
    calls = {}
    for tree in outside_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(call, index, name):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return len(call.args) > index or any(kw.arg in (name, None) for kw in call.keywords)

    unset, bags = [], []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            bags += [f"{name}(**{p.name})" for p in params if p.kind is p.VAR_KEYWORD]
            unset += [
                f"{name}({p.name})"
                for index, p in enumerate(params)
                if p.default is not p.empty
                and not any(is_set(call, index, p.name) for call in calls.get(name, []))
            ]
    assert (sorted(set(unset)), sorted(set(bags))) == ([], [])


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
