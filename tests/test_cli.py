"""Exit codes and output of every CLI verb, driven through main()."""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gf2perfect import catalog, cli, search
from gf2perfect.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- pointwise verbs -----------------------------------------------------------


def test_sigma_text(capsys):
    rc, out, err = run(capsys, "sigma", "M1")
    assert rc == 0
    assert out == "x^2+x\n"
    assert err == ""


def test_sigma_fixed_point_json(capsys):
    rc, out, _ = run(capsys, "sigma", "T5", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["fixed_point"] is True
    assert blob["sigma"] == blob["input"]


def test_sigma_accepts_hex_and_text_forms(capsys):
    rc1, out1, _ = run(capsys, "sigma", "0x13")
    rc2, out2, _ = run(capsys, "sigma", "x^4+x+1")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_factor_text(capsys):
    rc, out, _ = run(capsys, "factor", "T1")
    assert rc == 0
    assert out == "(x)^2 * (x+1) * (x^2+x+1)\n"


def test_factor_json(capsys):
    rc, out, _ = run(capsys, "factor", "x^4+x^2", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert {f["prime"]: f["exp"] for f in blob["factors"]} == {
        "x": 2,
        "x+1": 2,
    }


def test_repr_text(capsys):
    rc, out, _ = run(capsys, "repr", "S1")
    assert rc == 0
    assert out == "[[1,1],[1,1]] length=2\n"


def test_repr_json_long_chain(capsys):
    rc, out, _ = run(capsys, "repr", "S7", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["length"] == 4
    assert blob["pairs"] == [[1, 1], [1, 1], [1, 1], [1, 1]]


def test_classify_text(capsys):
    rc, out, _ = run(capsys, "classify", "S3")
    assert rc == 0
    assert out == "2-step over x^2+x+1: a=1 b=3 c=4\n"


# -- catalog and tables -----------------------------------------------------------


def test_verify_catalog(capsys):
    rc, out, err = run(capsys, "verify-catalog")
    assert rc == 0
    assert out == "28 primes irreducible, 11 perfect, degree-sum 184\n"
    assert err == ""


def test_verify_catalog_json(capsys):
    rc, out, _ = run(capsys, "verify-catalog", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert len(blob["entries"]) == 39


def test_tables_single_set(capsys):
    rc, out, _ = run(capsys, "tables", "mersenne")
    assert rc == 0
    assert "base M1" in out
    assert "h=7:" in out
    assert "base x " not in out


def test_tables_default_includes_all_sets(capsys):
    rc, out, _ = run(capsys, "tables")
    assert rc == 0
    assert "base x " in out
    assert "base M1" in out
    assert "base S1" in out


def test_tables_rejects_unknown_set(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "cubic"])
    assert exc.value.code == 2


# -- the sieve --------------------------------------------------------------------


def test_search_stage1(capsys):
    rc, out, err = run(capsys, "search", "--stage", "1")
    assert rc == 0
    assert out == "stage=1 count=10944\n"
    assert err == ""


def test_search_final_reports_divergence(capsys):
    rc, out, err = run(capsys, "search")
    assert rc == 1
    lines = out.strip().splitlines()
    assert "stage=2 count=3314" in lines
    assert "stage=final count=6" in lines
    assert sum(1 for ln in lines if "[T" in ln) == 6
    assert "reference 4484" in err
    assert "variant strict: 2159" in err


def test_search_json_final_names(capsys):
    _, out, _ = run(capsys, "search", "--json")
    blob = json.loads(out)
    assert blob["names"] == ["T2", "T11", "T4", "T7", "T5", "T8"]


def test_search_strict_rule(capsys):
    rc, out, _ = run(capsys, "search", "--stage", "2", "--rule", "strict")
    assert rc == 1
    assert "stage=2 count=2159" in out


def test_rule_choices_match_the_rule_table():
    verbs = next(a for a in cli._build_parser()._actions if a.dest == "verb")
    actions = {a.dest: a for a in verbs.choices["search"]._actions}
    assert actions["rule"].choices == list(search.STAGE2_RULES)
    assert actions["stage"].choices == list(search._STAGES)


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_unknown_rule_exits_2(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--rule", "bogus", *mode])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# -- surveys ------------------------------------------------------------------------


def test_reciprocal_footer(capsys):
    rc, out, _ = run(capsys, "reciprocal")
    assert rc == 0
    assert "entries: 80" in out
    assert "self-reciprocal: S3, S4" in out


def test_identities(capsys):
    rc, out, err = run(capsys, "identities")
    assert rc == 0
    assert out.count("[ok]") == 5
    assert err == ""


def test_conjecture_single_base(capsys):
    rc, out, err = run(capsys, "conjecture", "M1", "--hmax", "4")
    assert rc == 0
    assert "witness S8" in out
    assert err == ""


def test_admissible_family(capsys):
    rc, out, _ = run(capsys, "admissible", "M1", "M2", "M3", "M4", "M5")
    assert rc == 0
    assert "admissible: true" in out


def test_admissible_failure(capsys):
    rc, out, _ = run(capsys, "admissible", "S11")
    assert rc == 1
    assert out.count("[fail]") == 3


# -- malformed invocations ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "y+1"],
        ["sigma", "0"],
        ["factor", "0"],
        ["repr", "x^2"],
        ["classify", "1"],
        ["frobnicate"],
        [],
        ["search", "--stage", "9"],
        ["admissible", "x^2+x"],
        ["factor", "x^10000000000"],
        ["search", "--jobs", "2"],
        ["reciprocal", "--max-abc", str(search.MAX_RECIPROCAL_ABC + 1)],
        ["identities", "--max-exp", str(search.MAX_IDENTITY_EXP + 1)],
        ["conjecture", "M1", "--hmax", str(search.MAX_SCAN_H + 1)],
        ["admissible", "M1", "--budget", str(catalog.MAX_H_BUDGET + 1)],
        ["factor", f"x^{cli.MAX_INPUT_DEGREE + 1}+x+1"],
        ["sigma", hex(1 << (cli.MAX_INPUT_DEGREE + 1) | 1)],
        ["repr", f"x^{cli.MAX_INPUT_DEGREE + 1}+x+1"],
        ["classify", f"x^{cli.MAX_INPUT_DEGREE + 1}+x+1"],
        ["conjecture", "x^127+x+1", "--hmax", str(search.MAX_SCAN_DEGREE // 254 + 1)],
    ],
)
def test_malformed_invocations_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_admissible_family_cap_exits_2_before_any_work(capsys, monkeypatch):
    # Over MAX_FAMILY_DEGREE the verb exits 2 and names the cap before
    # any irreducibility test or factorization over the family.
    def no_work(*_args):
        raise AssertionError("work started")

    monkeypatch.setattr(catalog, "factor_over_family", no_work)
    monkeypatch.setattr(catalog, "is_irreducible", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["admissible", "x^2281+x^715+1"])
    assert exc.value.code == 2
    message = f"family degree 2281 exceeds {catalog.MAX_FAMILY_DEGREE}"
    assert message in capsys.readouterr().err


def test_input_degree_cap_is_inclusive():
    p = cli._parse_poly(f"x^{cli.MAX_INPUT_DEGREE}+1")
    assert p.degree == cli.MAX_INPUT_DEGREE
    with pytest.raises(ValueError, match="exceeds"):
        cli._parse_poly(f"x^{cli.MAX_INPUT_DEGREE + 1}+1")


# -- exit code 1 and the diagnostics on stderr, in both modes ---------------------


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_search_divergence_exits_1_with_stderr(capsys, mode):
    rc, out, err = run(capsys, "search", *mode)
    assert rc == 1
    assert out
    assert "reference 4484" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_identity_mismatch_exits_1_with_stderr(capsys, monkeypatch, mode):
    family = search.IdentityFamily("fake", ((1, 2, 3),), ((4, 5, 6),))
    report = search.IdentityReport(4, (family,))
    monkeypatch.setattr(search, "verify_split_identities", lambda max_exp: report)
    rc, _, err = run(capsys, "identities", *mode)
    assert rc == 1
    assert "unexpected: [(1, 2, 3)]" in err
    assert "missing: [(4, 5, 6)]" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_catalog_failure_exits_1(capsys, monkeypatch, mode):
    def broken():
        raise catalog.CatalogError("M1 = x^2+x+1 is not irreducible")

    monkeypatch.setattr(cli, "catalog_constants", broken)
    rc, out, err = run(capsys, "verify-catalog", *mode)
    assert rc == 1
    assert out == ""
    assert err == "catalog self-check failed: M1 = x^2+x+1 is not irreducible\n"


# -- the JSON indenter ---------------------------------------------------------------

_text = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "</"]
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(1 << 100), 1 << 100) | _text,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_text, inner, max_size=4)
    ),
    max_leaves=24,
)


@given(_json_values)
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, {1, 2}, {1: "a"}, [0, {"k": [2.5]}], {"k": {3: None}}, ({True: 1},)]
)
def test_dumps_refuses_other_values_and_keys(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_json_mode_calls_no_json_dumps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    rc, out, _ = run(capsys, "repr", "S7", "--json")
    assert rc == 0
    assert json.loads(out)["pairs"] == [[1, 1]] * 4


# -- every cheap invocation, byte for byte ----------------------------------------


# tools/golden_cli.py holds the pinned invocations and their runner;
# tests/golden_cli.txt is its committed output.
_TOOL = Path(__file__).parents[1] / "tools" / "golden_cli.py"
_spec = importlib.util.spec_from_file_location("golden_cli", _TOOL)
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)
RECORD = Path(__file__).with_name("golden_cli.txt")


def golden_rows(lines):
    """{arguments: (exit code, stdout digest, stderr digest)} of record
    lines, in order."""
    rows = {}
    for line in lines:
        rc, out, err, *argv = line.split()
        rows[" ".join(argv)] = (rc, out, err)
    return rows


def moved_invocations(lines):
    """The invocations whose row in lines differs from tests/golden_cli.txt,
    or that only one of the two holds."""
    recorded = RECORD.read_text().splitlines()
    expected, actual = golden_rows(recorded), golden_rows(lines)
    # No invocation is listed twice.
    assert len(expected) == len(recorded) and len(actual) == len(lines)
    return [
        argv or "(no arguments)"
        for argv in {**expected, **actual}
        if expected.get(argv) != actual.get(argv)
    ]


def test_cli_outputs_are_pinned():
    """Exit code and stdout/stderr digests of every invocation in
    tools/golden_cli.py, in text and --json mode, match the record:
    every verb, failing inputs, help and the missing verb included."""
    moved = moved_invocations(golden_cli.record())
    assert not moved, (
        f"CLI output moved for: {'; '.join(moved)}.  If on purpose, rewrite the "
        "record: PYTHONPATH=src python3 tools/golden_cli.py > tests/golden_cli.txt"
    )


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_matches_a_fresh_one():
    """Every pinned invocation, each through a parser built for that
    call alone, prints what the record holds; the test above runs them
    all through one shared parser, after the exit-2 cases too."""
    assert moved_invocations(golden_cli.record(cli._build_parser.cache_clear)) == []
