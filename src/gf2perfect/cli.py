"""Command line front end.

Verbs mirror the library surface: pointwise operations (sigma, factor,
repr, classify), catalog verification, the divisor-sum factor tables,
the staged sieve, and the exploratory sweeps.  The five verbs built on
the search layer (tables, search, reciprocal, identities, conjecture)
import it when they run, so the others never load it.

Each verb is a function args -> Result: renderers of the --json
payload and of the plain text, whether its check passed, and
diagnostic lines.  main alone prints the rendering asked for to
stdout, writes the diagnostics to stderr in both modes, and picks the
exit status: 0 on success, 1 when a verification came out negative (a
count off its reference, a scan row without a witness, an inadmissible
family, a mismatched identity) or a CatalogError says the catalog
self-check failed, and 2, through argparse, for a malformed invocation
or any ValueError a verb raises.  --json text comes from _dumps, the
one JSON writer: byte for byte what json.dumps(payload, indent=2)
writes, built by joins per container, since with indent set
json.dumps runs its pure-Python encoder (CPython 3.11).

Each verb is one row of _VERBS: name, handler, help text and
arguments.  The parser is one loop over that table, built on the first
main call and reused by every later one in the process.  _VERBS binds
the _cmd_* handlers at import, not at parser build, so a test that
patches behaviour targets the names the handlers call.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

from .catalog import (
    CatalogError,
    by_name,
    catalog_constants,
    catalog_json,
    classify,
    family_degree_sum,
    is_admissible,
    mersenne_family,
    representation,
)
from .factorize import factor_full
from .gf2poly import Poly, PolyParseError
from .sigma import sigma

_POLY_HELP = (
    "polynomial given as canonical text (x^4+x+1), hex bits (0x13), "
    "or a catalog name (M4, S1, T11)"
)


# Largest degree of a polynomial argument: factoring a random dense
# input of this degree takes 0.6-1.4 s (0.2-0.3 s at degree 2000;
# 2-vCPU Xeon, CPython 3.11), and the time grows faster than the
# square of the degree.
MAX_INPUT_DEGREE = 4096


class Result(NamedTuple):
    """What a verb hands to main; only the renderer asked for runs."""

    to_json: Callable[[], object]
    text: Callable[[], str]
    ok: bool = True
    notes: tuple = ()


def _parse_poly(text: str) -> Poly:
    try:
        return by_name(text).poly
    except KeyError:
        pass
    try:
        p = Poly.parse(text)
    except PolyParseError as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc}") from None
    if p.degree > MAX_INPUT_DEGREE:
        raise ValueError(f"polynomial degree {p.degree} exceeds {MAX_INPUT_DEGREE}")
    return p


def _cmd_sigma(args):
    p = _parse_poly(args.poly)
    s = sigma(p)
    payload = {"input": p.text(), "sigma": s.text(), "fixed_point": s == p}
    return Result(lambda: payload, s.text)


def _cmd_factor(args):
    fm = factor_full(_parse_poly(args.poly))
    return Result(fm.to_json, fm.text)


def _cmd_repr(args):
    p = _parse_poly(args.poly)
    rep = representation(p)
    payload = {
        "poly": p.text(),
        "pairs": [list(pair) for pair in rep.pairs],
        "length": rep.length,
    }
    return Result(lambda: payload, rep.text)


def _cmd_classify(args):
    p = _parse_poly(args.poly)
    cls = classify(p)
    payload = {"poly": p.text(), "k": cls.k}
    if cls.mersenne_params:
        payload["a"], payload["b"] = cls.mersenne_params
    if cls.two_mersenne_params:
        a, b, base, c = cls.two_mersenne_params
        payload.update(a=a, b=b, base=base.text(), c=c)
    return Result(lambda: payload, cls.text)


def _cmd_verify_catalog(args):
    entries = catalog_constants()
    primes = sum(1 for e in entries if e.kind != "perfect")
    perfect = len(entries) - primes
    summary = (
        f"{primes} primes irreducible, {perfect} perfect, "
        f"degree-sum {family_degree_sum()}"
    )
    return Result(
        lambda: {"summary": summary, "entries": catalog_json()}, lambda: summary
    )


def _cmd_tables(args):
    from .search import sigma_factor_tables

    sets = args.base_set or ["linear", "mersenne", "two-mersenne"]
    tables = [t for key in sets for t in sigma_factor_tables(key)]
    return Result(
        lambda: [t.to_json() for t in tables],
        lambda: "\n\n".join(t.text() for t in tables),
    )


def _cmd_search(args):
    from .search import run_search

    res = run_search(args.stage, stage2_rule=args.rule)
    return Result(res.to_json, res.text, res.matches_reference(), res.notes())


def _cmd_reciprocal(args):
    from .search import explore_reciprocal

    rep = explore_reciprocal(args.max_abc)
    return Result(rep.to_json, rep.text)


def _cmd_identities(args):
    from .search import verify_split_identities

    rep = verify_split_identities(args.max_exp)
    return Result(rep.to_json, rep.text, rep.ok, rep.notes())


def _cmd_conjecture(args):
    from .search import conjecture_scan

    bases = [_parse_poly(b) for b in args.base] or mersenne_family()
    scans = [conjecture_scan(base, args.hmax) for base in bases]
    return Result(
        lambda: [s.to_json() for s in scans],
        lambda: "\n".join(s.text() for s in scans),
        not any(s.counterexample_rows for s in scans),
        tuple(line for s in scans for line in s.notes()),
    )


def _cmd_admissible(args):
    family = [_parse_poly(t) for t in args.poly]
    ok, report = is_admissible(family, h_budget=args.budget)
    return Result(report.to_json, report.text, ok)


# One row per verb: name, handler, help, then each argument as (name or
# flag, add_argument keywords); every verb also takes --json.  --stage and
# --rule spell out their choices, so that building the parser imports no search.
_POLY_ARG = ("poly", dict(help=_POLY_HELP))
_VERBS = (
    ("sigma", _cmd_sigma, "divisor sum of a polynomial", _POLY_ARG),
    ("factor", _cmd_factor, "full irreducible factorization", _POLY_ARG),
    ("repr", _cmd_repr, "valuation chain of an odd polynomial", _POLY_ARG),
    ("classify", _cmd_classify, "chain length and shape parameters", _POLY_ARG),
    ("verify-catalog", _cmd_verify_catalog,
     "rebuild the fixed catalog and run its self-checks"),
    ("tables", _cmd_tables, "divisor-sum factor tables over the fixed prime family",
     ("base_set", dict(nargs="*", metavar="base_set",
                       help="linear, mersenne or two-mersenne (default: all three)"))),
    ("search", _cmd_search, "run the staged sieve for fixed points",
     ("--stage", dict(choices=["1", "2", "3", "final"], default="final",
                      help="stop after this stage (default final)")),
     ("--rule", dict(choices=["uniform", "strict"], default="uniform",
                     help="stage-2 slot rule (default uniform)"))),
    ("reciprocal", _cmd_reciprocal, "classify reciprocals of shaped primes",
     ("--max-abc", dict(type=int, default=6, help="exponent bound (default 6)"))),
    ("identities", _cmd_identities, "verify the split identity families",
     ("--max-exp", dict(type=int, default=32,
                        help="exponent sweep bound (default 32)"))),
    ("conjecture", _cmd_conjecture, "hunt long-chain factors in divisor sums",
     ("base", dict(nargs="*",
                   help="odd irreducible bases (default: the whole one-step family)")),
     ("--hmax", dict(type=int, default=20, help="largest h (default 20)"))),
    ("admissible", _cmd_admissible, "closure test for a family of odd primes",
     ("poly", dict(nargs="+", help=_POLY_HELP)),
     ("--budget", dict(type=int, default=None,
                       help="override the degree-based scan budget"))),
)


def _dumps(obj) -> str:
    """What json.dumps(obj, indent=2) writes, for the values verbs
    return: str, int, bool, None, and lists, tuples and str-keyed dicts
    of them, matched by exact type.  Any other value, or a key that is
    not a str, raises TypeError."""
    from json.encoder import encode_basestring_ascii as string

    # indent is the newline and the spaces that open a line at v's depth.
    def array(v, indent):
        inner = indent + "  "
        parts = [render[type(item)](item, inner) for item in v]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if v else "[]"

    def mapping(v, indent):
        inner = indent + "  "
        parts = [string(k) + ": " + render[type(item)](item, inner) for k, item in v.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if v else "{}"

    render = {
        str: lambda v, _: string(v), int: lambda v, _: repr(v),
        bool: lambda v, _: "true" if v else "false", type(None): lambda v, _: "null",
        list: array, tuple: array, dict: mapping,
    }
    try:
        return render[type(obj)](obj, "\n")
    except KeyError as exc:
        name = exc.args[0].__name__
        raise TypeError(f"Object of type {name} is not JSON serializable") from None


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2perfect",
        description=(
            "Exact arithmetic, factoring and divisor-sum searches for "
            "binary polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, handler, help_text, *arguments in _VERBS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=handler)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        res = args.func(args)
        out = _dumps(res.to_json()) if args.json else res.text()
    except CatalogError as exc:
        print(f"catalog self-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    print(out)
    for line in res.notes:
        print(line, file=sys.stderr)
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main())
