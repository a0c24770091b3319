"""Command line front end.

Verbs mirror the library surface: pointwise operations (sigma, factor,
repr, classify), catalog verification, the divisor-sum factor tables,
the staged sieve, and the exploratory sweeps.  Results go to stdout,
diagnostics to stderr.  Exit status 0 means success, 1 means a
verification came out negative (a count off its reference, a scan row
without a witness, an inadmissible family, a catalog self-check
failure), and 2 means the invocation itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    CatalogError,
    by_name,
    catalog_constants,
    catalog_json,
    classify,
    family_degree_sum,
    is_admissible,
    mersenne_family,
    name_of,
    representation,
)
from .factorize import factor_full
from .gf2poly import Poly, PolyParseError
from .search import (
    STAGE2_RULES,
    conjecture_scan,
    explore_reciprocal,
    run_search,
    sigma_factor_tables,
    verify_split_identities,
)
from .sigma import sigma

_POLY_HELP = (
    "polynomial given as canonical text (x^4+x+1), hex bits (0x13), "
    "or a catalog name (M4, S1, T11)"
)


# Largest degree of a polynomial argument: factoring a random dense
# input of this degree takes about 1.5 s (0.3 s at degree 2000), and
# the time grows faster than the square of the degree.
MAX_INPUT_DEGREE = 4096


def _parse_poly(text: str, parser: argparse.ArgumentParser) -> Poly:
    try:
        return by_name(text).poly
    except KeyError:
        pass
    try:
        p = Poly.parse(text)
    except PolyParseError as exc:
        parser.error(f"bad polynomial {text!r}: {exc}")
    if p.degree > MAX_INPUT_DEGREE:
        parser.error(f"polynomial degree {p.degree} exceeds {MAX_INPUT_DEGREE}")
    return p


def _emit(payload, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_sigma(args, parser):
    p = _parse_poly(args.poly, parser)
    try:
        s = sigma(p)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(
        {"input": p.text(), "sigma": s.text(), "fixed_point": s == p},
        args.json,
        s.text(),
    )
    return 0


def _cmd_factor(args, parser):
    p = _parse_poly(args.poly, parser)
    if p.is_zero():
        parser.error("cannot factor the zero polynomial")
    fm = factor_full(p)
    _emit(fm.to_json(), args.json, fm.text())
    return 0


def _cmd_repr(args, parser):
    p = _parse_poly(args.poly, parser)
    try:
        rep = representation(p)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(
        {
            "poly": p.text(),
            "pairs": [list(pair) for pair in rep.pairs],
            "length": rep.length,
        },
        args.json,
        rep.text(),
    )
    return 0


def _cmd_classify(args, parser):
    p = _parse_poly(args.poly, parser)
    try:
        cls = classify(p)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {"poly": p.text(), "k": cls.k}
    if cls.mersenne_params:
        payload["a"], payload["b"] = cls.mersenne_params
    if cls.two_mersenne_params:
        a, b, base, c = cls.two_mersenne_params
        payload.update(a=a, b=b, base=base.text(), c=c)
    _emit(payload, args.json, cls.text())
    return 0


def _cmd_verify_catalog(args, parser):
    try:
        entries = catalog_constants()
    except CatalogError as exc:
        print(f"catalog self-check failed: {exc}", file=sys.stderr)
        return 1
    primes = sum(1 for e in entries if e.kind != "perfect")
    perfect = sum(1 for e in entries if e.kind == "perfect")
    summary = (
        f"{primes} primes irreducible, {perfect} perfect, "
        f"degree-sum {family_degree_sum()}"
    )
    _emit({"summary": summary, "entries": catalog_json()}, args.json, summary)
    return 0


def _cmd_tables(args, parser):
    sets = args.base_set or ["linear", "mersenne", "two-mersenne"]
    tables = []
    for key in sets:
        try:
            tables.extend(sigma_factor_tables(key))
        except ValueError as exc:
            parser.error(str(exc))
    if args.json:
        print(json.dumps([t.to_json() for t in tables], indent=2))
    else:
        print("\n\n".join(t.text() for t in tables))
    return 0


def _cmd_search(args, parser):
    res = run_search(args.stage, stage2_rule=args.rule)
    if args.json:
        print(json.dumps(res.to_json(), indent=2))
    else:
        for line in res.summary_lines():
            print(line)
        if res.stage in ("3", "final"):
            for p in res.tuples:
                label = name_of(p)
                print(f"{p.text()}" + (f"  [{label}]" if label else ""))
    ok = res.matches_reference()
    if not ok:
        for stage_key, d in (res.filter_diff or {}).items():
            print(
                f"stage {stage_key}: count {d['count']} differs from "
                f"reference {d['reference']}",
                file=sys.stderr,
            )
            for variant, count in d.get("variants", {}).items():
                print(f"  variant {variant}: {count}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_reciprocal(args, parser):
    try:
        rep = explore_reciprocal(args.max_abc)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(rep.to_json(), indent=2))
    else:
        for e in rep.entries:
            print(e.text())
        print(f"entries: {len(rep.entries)}")
        print(f"self-reciprocal: {', '.join(rep.self_reciprocal_names()) or '-'}")
        drops = rep.star_mersenne_map()
        print(
            "reciprocal drops the M1 power: "
            + (", ".join(f"{k} -> {v}" for k, v in drops.items()) or "-")
        )
        pairs = rep.star_pairs()
        print(
            "swapped pairs: "
            + (", ".join(f"({a}, {b})" for a, b in pairs) or "-")
        )
    return 0


def _cmd_identities(args, parser):
    try:
        report = verify_split_identities(args.max_exp)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for fam in report.families:
            mark = "ok" if fam.ok else "MISMATCH"
            print(f"[{mark}] {fam.label}  ({len(fam.found)} solutions)")
            if not fam.ok:
                extra = set(fam.found) - set(fam.expected)
                missing = set(fam.expected) - set(fam.found)
                if extra:
                    print(f"    unexpected: {sorted(extra)}", file=sys.stderr)
                if missing:
                    print(f"    missing: {sorted(missing)}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_conjecture(args, parser):
    if args.base:
        bases = [_parse_poly(b, parser) for b in args.base]
    else:
        bases = list(mersenne_family())
    scans = []
    for base in bases:
        try:
            scans.append(conjecture_scan(base, args.hmax))
        except ValueError as exc:
            parser.error(str(exc))
    if args.json:
        print(json.dumps([s.to_json() for s in scans], indent=2))
    else:
        for s in scans:
            print(s.text())
    bad = [s for s in scans if s.counterexample_rows]
    for s in bad:
        hs = [r.h for r in s.counterexample_rows]
        label = name_of(s.base) or s.base.text()
        print(f"{label}: no witness at h = {hs}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_admissible(args, parser):
    family = [_parse_poly(t, parser) for t in args.poly]
    try:
        ok, report = is_admissible(family, h_budget=args.budget)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(report.to_json(), args.json, report.text())
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2perfect",
        description=(
            "Exact arithmetic, factoring and divisor-sum searches for "
            "binary polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=fn)
        return p

    p = add("sigma", _cmd_sigma, "divisor sum of a polynomial")
    p.add_argument("poly", help=_POLY_HELP)

    p = add("factor", _cmd_factor, "full irreducible factorization")
    p.add_argument("poly", help=_POLY_HELP)

    p = add("repr", _cmd_repr, "valuation chain of an odd polynomial")
    p.add_argument("poly", help=_POLY_HELP)

    p = add("classify", _cmd_classify, "chain length and shape parameters")
    p.add_argument("poly", help=_POLY_HELP)

    add(
        "verify-catalog",
        _cmd_verify_catalog,
        "rebuild the fixed catalog and run its self-checks",
    )

    p = add(
        "tables",
        _cmd_tables,
        "divisor-sum factor tables over the fixed prime family",
    )
    p.add_argument(
        "base_set",
        nargs="*",
        metavar="base_set",
        help="linear, mersenne or two-mersenne (default: all three)",
    )

    p = add("search", _cmd_search, "run the staged sieve for fixed points")
    p.add_argument(
        "--stage",
        choices=["1", "2", "3", "final"],
        default="final",
        help="stop after this stage (default final)",
    )
    p.add_argument(
        "--rule",
        choices=list(STAGE2_RULES),
        default="uniform",
        help="stage-2 slot rule (default uniform)",
    )

    p = add("reciprocal", _cmd_reciprocal, "classify reciprocals of shaped primes")
    p.add_argument("--max-abc", type=int, default=6, help="exponent bound (default 6)")

    p = add("identities", _cmd_identities, "verify the split identity families")
    p.add_argument(
        "--max-exp", type=int, default=32, help="exponent sweep bound (default 32)"
    )

    p = add("conjecture", _cmd_conjecture, "hunt long-chain factors in divisor sums")
    p.add_argument(
        "base",
        nargs="*",
        help="odd irreducible bases (default: the whole one-step family)",
    )
    p.add_argument("--hmax", type=int, default=20, help="largest h (default 20)")

    p = add("admissible", _cmd_admissible, "closure test for a family of odd primes")
    p.add_argument("poly", nargs="+", help=_POLY_HELP)
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the degree-based scan budget",
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
