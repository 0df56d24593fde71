"""The public names: every ``__all__`` entry of a layer module and every
re-export of the package resolves.  Tools that walk ``__all__`` with
``getattr`` (the benchmark's tracer among them) fail at set-up on a name
whose definition is gone."""

import ast
import importlib
from pathlib import Path

import pytest

import curvsol

LAYERS = ("speeds", "cones", "rotgeom", "profiles", "picard", "verifier", "io", "svgfig", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_is_an_attribute(layer):
    mod = importlib.import_module(f"curvsol.{layer}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"curvsol.{layer}.__all__ names what the module lacks: {missing}"


def test_every_package_re_export_imports():
    tree = ast.parse(Path(curvsol.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"curvsol.{node.module}")
        for alias in node.names:
            assert getattr(curvsol, alias.asname or alias.name) is getattr(mod, alias.name)
