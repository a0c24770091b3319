"""The package layers import strictly downwards, and cheaply.

Every module under src/gf2perfect is parsed, and each relative import
(at any nesting depth, including imports inside functions) must name
an earlier layer.  The package __init__ re-exports everything and is
exempt.

Fresh interpreters check what a cold start loads: importing the
package or the cli and building the catalog leaves search unloaded
until one of its names is read, and never loads dataclasses; a text
run of the cli loads no json; importing search builds none of the
sieve's slot tables, and importing gf2poly no term strings.  Every
public name, the search ones included, resolves as an attribute,
through a star import and in dir().

Each eager layer declares the names the package exports from it in
its own __all__, and only names it defines itself; those lists and
search's names make up the package's __all__, each name once.

The benchmark's span recorder names the functions it traces in
bench/spans.py; each must exist, and the sieve must call the sum of
slot terms it traces.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gf2perfect

LAYERS = ("gf2poly", "factorize", "sigma", "catalog", "search", "cli")
EAGER = LAYERS[:4]
PACKAGE = Path(gf2perfect.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def _fresh(code, result):
    """The value of the expression result, through JSON, after code runs
    in a fresh interpreter started without site, so that nothing but the
    package loads.  json is imported once result is taken."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        f"{code}\n"
        f"_result = {result}\n"
        "import json\n"
        "print(json.dumps(_result))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _modules_loaded_by(code):
    """Modules that code adds to sys.modules in a fresh interpreter."""
    return set(_fresh(f"before = set(sys.modules)\n{code}",
                      "sorted(set(sys.modules) - before)"))


def test_package_cold_start_skips_search_cli_and_dataclasses():
    loaded = _modules_loaded_by("import gf2perfect\ngf2perfect.catalog_constants()")
    assert "gf2perfect.catalog" in loaded
    assert not loaded & {"gf2perfect.search", "gf2perfect.cli", "dataclasses"}


def test_cli_cold_start_skips_search():
    loaded = _modules_loaded_by(
        "import gf2perfect.cli\n"
        "gf2perfect.catalog_constants()\n"
        "gf2perfect.cli.main(['sigma', 'M1'])"
    )
    assert "gf2perfect.cli" in loaded
    assert "gf2perfect.search" not in loaded
    # --json output alone loads json.encoder, for its string escaper.
    assert not {"json", "json.encoder"} & loaded


def test_imports_build_no_term_list():
    # Poly.text fills its term list on the first rendering.
    assert _fresh("import gf2perfect.gf2poly as gf2poly", "gf2poly._TERMS") == ["1", "x"]


def test_imports_build_no_slot_table():
    # The slot terms, and the sieve's tables read from them, are built on
    # the first run_search, not when the package or search is imported.
    sizes = _fresh(
        "import gf2perfect.search as search\n"
        "sigma = sys.modules['gf2perfect.sigma']",
        "[f.cache_info().currsize for f in (sigma.slot_term,"
        " search._stage1_terms, search._free_slot_witness)]",
    )
    assert sizes == [0, 0, 0]


def test_reading_a_search_name_loads_search():
    loaded = _modules_loaded_by("import gf2perfect\ngf2perfect.run_search")
    assert "gf2perfect.search" in loaded


def test_every_public_name_resolves():
    for name in gf2perfect.__all__:
        getattr(gf2perfect, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        gf2perfect.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gf2perfect import *", namespace)
    assert set(gf2perfect.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(gf2perfect.__all__) <= set(dir(gf2perfect))


def test_lazy_names_are_the_search_objects():
    from gf2perfect import search

    lazy = set(gf2perfect.__all__) - set(vars(gf2perfect))
    assert lazy == {
        "ConjectureScan",
        "IdentityReport",
        "ReciprocalReport",
        "SigmaTable",
        "StageResult",
        "conjecture_scan",
        "explore_reciprocal",
        "run_search",
        "sigma_factor_tables",
        "verify_split_identities",
    }
    for name in lazy:
        assert getattr(gf2perfect, name) is getattr(search, name)


PUBLIC_NAMES = [
    "CatalogEntry",
    "CatalogError",
    "Classification",
    "ConjectureScan",
    "FactorMap",
    "IdentityReport",
    "ONE",
    "Poly",
    "PolyParseError",
    "ReciprocalReport",
    "Representation",
    "SigmaTable",
    "StageResult",
    "X",
    "X1",
    "assemble",
    "bar",
    "by_name",
    "catalog_constants",
    "chain_length",
    "classify",
    "conjecture_scan",
    "derivative",
    "explore_reciprocal",
    "factor_full",
    "factor_over_family",
    "family_degree_sum",
    "gcd",
    "is_admissible",
    "is_even",
    "is_indecomposable_perfect",
    "is_irreducible",
    "is_odd",
    "is_perfect",
    "mersenne",
    "mersenne_family",
    "name_of",
    "prime_family",
    "representation",
    "run_search",
    "sigma",
    "sigma_exponents",
    "sigma_factor_tables",
    "sigma_of_factor_map",
    "sigma_prime_power",
    "star",
    "trivial_perfect",
    "two_mersenne",
    "two_mersenne_family",
    "verify_split_identities",
]


def test_public_names_are_pinned():
    assert gf2perfect.__all__ == PUBLIC_NAMES


def _top_level_definitions(tree):
    """Names bound at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("module", EAGER)
def test_layer_exports_only_what_it_defines(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    exported = importlib.import_module(f"gf2perfect.{module}").__all__
    assert set(exported) <= set(_top_level_definitions(tree)) - {"__all__"}


def test_package_names_are_the_layer_lists_and_search_names():
    lazy = sorted(set(gf2perfect.__all__) - set(vars(gf2perfect)))
    listed = [
        name
        for module in EAGER
        for name in importlib.import_module(f"gf2perfect.{module}").__all__
    ] + lazy
    assert len(listed) == len(set(listed))
    assert sorted(listed) == gf2perfect.__all__


def test_package_sigma_is_the_function():
    assert gf2perfect.sigma is importlib.import_module("gf2perfect.sigma").sigma


def _traced_names():
    """bench/spans.py's TRACED, read from its source, not imported."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert "sigma.sigma_exponents" in names
    for dotted in names:
        module, attr = dotted.rsplit(".", 1)
        layer = importlib.import_module(f"gf2perfect.{module}")
        assert callable(getattr(layer, attr)), dotted


def test_the_sieve_calls_the_traced_sum_of_slot_terms(monkeypatch):
    # The recorder wraps each binding of the function, so the sieve's
    # calls count whichever module it reads the name from.
    from gf2perfect import search

    sigma_layer = importlib.import_module("gf2perfect.sigma")
    original, calls = sigma_layer.sigma_exponents, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (sigma_layer, search):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    search.run_search("final")
    assert calls
