"""The package layers import strictly downwards.

Every module under src/gf2perfect is parsed, and each relative import
(at any nesting depth, including imports inside functions) must name
an earlier layer.  The package __init__ re-exports everything and is
exempt.
"""

import ast
from pathlib import Path

import pytest

import gf2perfect

LAYERS = ("gf2poly", "factorize", "sigma", "catalog", "search", "cli")
PACKAGE = Path(gf2perfect.__file__).parent


def _imported_modules(tree):
    """Package modules named by the relative imports anywhere in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    found = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert found == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_to_earlier_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    rank = LAYERS.index(module)
    for target in _imported_modules(tree):
        assert LAYERS.index(target) < rank, f"{module} imports {target}"
