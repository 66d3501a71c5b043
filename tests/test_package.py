"""Package surface: every exported name resolves, every package-data
glob ships a file, and the test oracles stand apart from the package."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["mimap", "mimap.reference"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_oracles_import_no_mimap_module():
    # the oracles are written from the defining math, so they share no
    # code with the package they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported
    assert [name for name in imported
            if name.startswith(".") or name.split(".")[0] == "mimap"] == []


def test_every_package_data_glob_matches_a_file():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    globs = package_data["mimap"]
    assert globs
    assert [g for g in globs if not any((root / "src" / "mimap").glob(g))] == []
