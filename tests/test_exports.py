"""Every exported name resolves, so no deleted name lingers in an export list."""

import importlib

import pytest

MODULES = ["skewlab"] + [
    f"skewlab.{name}"
    for name in ("excursion", "grid_paths", "localtime", "signed_measure", "signflip", "skewbm")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
