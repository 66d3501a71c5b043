"""Package surface: every exported name resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["mimap", "mimap.reference"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
