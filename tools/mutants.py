"""Mutation record: each mutant in MUTANTS must make its tests fail.

    python3 tools/mutants.py                     # every mutant
    python3 tools/mutants.py --only NAME [NAME ...]

A mutant is (name, file, old text, new text, test selector).  The
repository's src/, tests/, tools/ and bench/ (a layer test reads
bench/spans.py) are copied once to a temporary directory, and the
selectors of the mutants to run are run there unmutated first: they
must all pass.  Then for each mutant the old text, which must occur
exactly once in its file, is replaced by the new text, pytest runs the
mutant's selector (node ids or options, split on spaces) with that
copy's src/ first on PYTHONPATH and no bytecode written, and the file
is put back.  --only runs the named mutants alone; an unknown name or
argument exits 2 before any pytest launch.

A mutant is killed when pytest reports a failed test or a collection
error, or runs past TIMEOUT_S.  The tool exits 1 when a mutant
survives, when its mutated file does not compile (reported as BROKEN,
since such an entry tests nothing), when its old text is missing or
not unique, or when a selector fails or selects nothing before any
mutation.  It is kept out of Tier-1: each mutant costs one pytest
launch, and the 74 below take about 5 min on a 2-vCPU Xeon.  A change
that guards a kernel adds its mutants here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

S = "src/gf2perfect/"
T = "tests/"

MUTANTS = (
    # The prime-power and divide-out kernels.
    ("pow-skips-its-last-multiply", S + "gf2poly.py",
     "        if e & 1:\n            result = _mul(result, a)",
     "        if e & 1 and e > 1:\n            result = _mul(result, a)",
     T + "test_gf2poly.py::test_pow_matches_oracle"),
    ("product-ignores-the-exponent", S + "gf2poly.py",
     "bits = _mul(bits, _pow(q, e))",
     "bits = _mul(bits, q)",
     T + "test_gf2poly.py::test_product_matches_oracle"),
    ("strip-counts-one-division-too-many", S + "gf2poly.py",
     "            return a, count\n",
     "            return a, count + 1\n",
     T + "test_gf2poly.py::test_strip_matches_oracle"),
    # The verb table.
    ("verbs-max-abc-default-moved", S + "cli.py",
     "dict(type=int, default=6,",
     "dict(type=int, default=7,",
     T + "test_cli.py::test_cli_outputs_are_pinned"),
    ("verbs-hmax-default-moved", S + "cli.py",
     "dict(type=int, default=20,",
     "dict(type=int, default=21,",
     T + "test_cli.py::test_cli_outputs_are_pinned"),
    # The divisor-sum slot table and the sieve reading it.
    ("slot-term-odd-part-always-kept", S + "sigma.py",
     "kept = e if s in DOMAIN[k][1] else (1 << t) - 1",
     "kept = e",
     T + "test_sigma.py::test_slot_term_matches_the_closed_forms"),
    ("slot-term-odd-part-always-dropped", S + "sigma.py",
     "kept = e if s in DOMAIN[k][1] else (1 << t) - 1",
     "kept = (1 << t) - 1",
     T + "test_sigma.py::test_slot_term_matches_the_closed_forms"),
    # Canaday's split in the divisor-sum kernel.
    ("divisor-sum-drops-phi-1", S + "sigma.py",
     "for d in range(1 if t else 3, s + 1, 2)",
     "for d in range(3, s + 1, 2)",
     T + "test_sigma.py::test_divisor_sum_factors_match_factor_full"),
    ("divisor-sum-phi-1-exponent-2-to-the-t", S + "sigma.py",
     "k << t if d > 1 else k * ((1 << t) - 1)",
     "k << t",
     T + "test_sigma.py::test_divisor_sum_factors_match_factor_full"),
    ("divisor-sum-bar-share-skips-the-map", S + "sigma.py",
     "(r if key == q else _bar(r), ",
     "(r, ",
     T + "test_sigma.py::test_divisor_sum_factors_share_the_bar_partner"),
    ("tables-bar-share-keeps-the-partner-rows", S + "search.py",
     "rows = tuple((h, FactorMap((_bar(p.bits), k) for p, k in fm)) for h, fm in partner)",
     "rows = partner",
     T + "test_search.py::test_shared_table_rows_match_an_unshared_scan"),
    ("sigma-exponents-drops-the-first-term", S + "sigma.py",
     "terms = [slot_term(k, e) for k, e in pairs]",
     "terms = [slot_term(k, e) for k, e in pairs][1:]",
     T + "test_sigma.py::test_exponent_formulas_match_actual_divisor_sums"),
    ("stage3-head-reads-the-wrong-linear-component", S + "search.py",
     "h = linear[0][a] + linear[1][b]",
     "h = linear[1][a] + linear[0][b]",
     T + "test_search.py::test_stage3_rows_match_the_per_row_oracle"),
    ("witness-table-keeps-the-last-witness", S + "search.py",
     "table.setdefault(need, w)",
     "table[need] = w",
     T + "test_search.py::test_free_slot_witness_is_the_first_in_loop_order"),
    ("witness-table-built-at-import", S + "search.py",
     "\ndef _stage3_rows(groups):",
     "\n_free_slot_witness()\n\n\ndef _stage3_rows(groups):",
     T + "test_layers.py::test_imports_build_no_slot_table"),
    ("admissible-budget-cap-off-by-one", S + "catalog.py",
     "2 * h_budget * p.degree > MAX_SIGMA_DEGREE:",
     "2 * h_budget * p.degree >= MAX_SIGMA_DEGREE:",
     T + "test_catalog.py::test_explicit_budget_is_checked_before_any_scan"),
    # The distinct-degree walk's block loop.
    ("ddf-product-starts-at-zero", S + "factorize.py",
     "prod = 1  # this block: degrees first..k",
     "prod = 0  # this block: degrees first..k",
     T + "test_factorize.py::test_distinct_degree_matches_trial_division"),
    ("ddf-block-multiple-off-by-one", S + "factorize.py",
     "if j % step == 0:  # 1 * (h - x)",
     "if (j + 1) % step == 0:  # 1 * (h - x)",
     T + "test_factorize.py::test_distinct_degree_matches_trial_division"),
    ("ddf-gcd-of-a-product-of-one", S + "factorize.py",
     "        if prod == 1:\n            continue  # gcd(1, f) = 1\n",
     "",
     T + "test_factorize.py::test_distinct_degree_takes_no_gcd_of_one"),
    ("ddf-reducer-kept-after-a-division", S + "factorize.py",
     "f = _divmod(f, found)[0]\n        reduce = None\n",
     "f = _divmod(f, found)[0]\n",
     T + "test_factorize.py::test_distinct_degree_rebuilds_its_reducer_after_a_division"),
    ("ddf-split-starts-a-degree-late", S + "factorize.py",
     "h_first, first - 1, k - k % step)",
     "h_first, first, k - k % step)",
     T + "test_factorize.py::test_distinct_degree_splits_a_wide_find_by_walking_it"),
    ("ddf-split-without-its-cap", S + "factorize.py",
     "        if last is not None:\n            top = min(top, last - step)\n",
     "",
     T + "test_factorize.py::test_distinct_degree_splits_a_wide_find_by_walking_it"),
    # Perfect-polynomial decomposition.
    ("indecomposable-mask-range-includes-everything", S + "sigma.py",
     "for mask in range(1, (1 << (w - 1)) - 1):",
     "for mask in range(1, 1 << (w - 1)):",
     T + "test_sigma.py::test_catalog_fixed_points_are_indecomposable"),
    ("indecomposable-never-reports-a-split", S + "sigma.py",
     "        if left == sleft:\n            return False",
     "        if left == sleft:\n            pass",
     T + "test_sigma.py::test_split_into_two_perfects_is_reported"),
    ("indecomposable-cap-checked-before-perfection", S + "sigma.py",
     "    if reduce(_mul, sigmas, 1) != a.bits:\n"
     "        raise ValueError(\"input is not perfect\")\n"
     "    w = len(entries)\n",
     "    w = len(entries)\n"
     "    if w > MAX_OMEGA_FOR_DECOMPOSITION:\n"
     "        raise ValueError(f\"too many distinct factors ({w}) for bipartition search\")\n"
     "    if reduce(_mul, sigmas, 1) != a.bits:\n"
     "        raise ValueError(\"input is not perfect\")\n",
     T + "test_sigma.py::test_indecomposable_refuses_past_the_omega_cap"),
    # The slot layout, the domain and the stage table.
    ("slot-primes-s1-s2-swapped", S + "sigma.py",
     "*(two_mersenne(j).bits for j in range(1, 9)))",
     "*(two_mersenne(j).bits for j in (2, 1, 3, 4, 5, 6, 7, 8)))",
     T + "test_catalog.py::test_slot_primes_are_the_catalog_primes_in_slot_order"),
    ("assemble-drops-s8", S + "sigma.py",
     "_product(zip(_SLOT_PRIMES[2:], (*c, *d)))",
     "_product(zip(_SLOT_PRIMES[2:-1], (*c, *d)))",
     T + "test_search.py::test_stage3_exponent_vectors_match_factor_full"),
    ("sigma-of-vector-skips-x", S + "sigma.py",
     "zip(_SLOT_PRIMES, exps) if e)",
     "zip(_SLOT_PRIMES[1:], exps[1:]) if e)",
     T + "test_search.py::test_stage3_exponent_vectors_match_factor_full"),
    ("s1-t-range-widened", S + "sigma.py",
     "(range(4), U23S), *((range(2), (1,)),) * 7,",
     "(range(5), U23S), *((range(2), (1,)),) * 7,",
     T + "test_sigma.py::test_domain_validation"),
    ("stage2-pinned-to-uniform", S + "search.py",
     '"2": (_stage2_groups, _size),',
     '"2": (lambda groups1, _rule: _stage2_groups(groups1, "uniform"), _size),',
     T + "test_search.py::test_strict_rule_prunes_harder"),
    ("stage2-variant-counted-under-the-search-rule", S + "search.py",
     "_count(previous, rule)",
     "_count(previous, stage2_rule)",
     T + "test_search.py::test_stage2_matches_the_slot_by_slot_rules"),
    # Stage 1 counts, and stage 2 builds, from one mask per term vector.
    ("stage1-count-skips-the-m2-test", S + "search.py",
     "return sum(masks[i].bit_count() for _head, i in groups1[0])",
     "return sum(len(_stage1_terms()[2]) for _head, i in groups1[0])",
     T + "test_search.py::test_stage1_count_builds_no_part"),
    ("stage2-drops-the-first-slot-test", S + "search.py",
     "sets = [REPRESENTABLE_EXPONENTS] * 2 + [STAGE2_RULES.get(rule)] * 7",
     "sets = [REPRESENTABLE_EXPONENTS, range(99)] + [STAGE2_RULES.get(rule)] * 7",
     T + "test_search.py::test_stage1_count_builds_no_part"),
    ("stage2-holds-the-first-slot-to-the-rule", S + "search.py",
     "sets = [REPRESENTABLE_EXPONENTS] * 2 + [STAGE2_RULES.get(rule)] * 7",
     "sets = [REPRESENTABLE_EXPONENTS] + [STAGE2_RULES.get(rule)] * 8",
     T + "test_search.py::test_stage2_matches_the_slot_by_slot_rules"),
    ("stage2-reads-a-mask-one-term-late", S + "search.py",
     "compress(terms, map(int, bin(mask)[:1:-1]))",
     "compress(list(terms)[1:], map(int, bin(mask)[:1:-1]))",
     T + "test_search.py::test_stage1_rows_match_the_per_row_oracle"),
    # The sieve's shared blocks: heads carry block indices, and every
    # stage keeps each block at the index stage 1 gave it.
    ("stage1-new-vector-takes-the-previous-index", S + "search.py",
     "len(index))))",
     "len(index) - 1)))",
     T + "test_search.py::test_stage_groups_share_their_blocks"),
    ("stage2-drops-empty-blocks-shifting-indices", S + "search.py",
     "in zip(vectors, masks)]\n",
     "in zip(vectors, masks)]\n    blocks = [block for block in blocks if block]\n",
     T + "test_search.py::test_stage_groups_share_their_blocks"),
    ("stage3-reads-the-neighbouring-block", S + "search.py",
     "for s in keys[i]",
     "for s in keys[i - 1]",
     T + "test_search.py::test_stage3_rows_match_the_per_row_oracle"),
    # Stage 3's join on the packed x and x+1 valuations.
    ("stage3-join-key-omits-the-m2-valuation", S + "search.py",
     "((p[1] << p[0]) - 1, (p[3] << p[2]) - 1, *p[4:12])",
     "((p[1] << p[0]) - 1, 0, *p[4:12])",
     T + "test_search.py::test_stage3_rows_match_the_per_row_oracle"),
    ("stage3-pairs-each-part-with-the-next-sum", S + "search.py",
     "for part, w in zip(groups[1][i], map(hits.get, sums[i])) if hits else ():",
     "for part, w in zip(groups[1][i], [*map(hits.get, sums[i])][1:]) if hits else ():",
     T + "test_search.py::test_stage3_rows_keep_block_order_across_sums"),
    ("linear-terms-packed-8-bits-apart", S + "search.py",
     "return [{e: v << 16 | w",
     "return [{e: v << 8 | w",
     T + "test_search.py::test_linear_terms_match_trial_division"),
    # The linear solver of the identity sweep.
    ("solve-linear-screen-inverted", S + "search.py",
     "screened = (bits >> b).bit_count() == 1 << c.bit_count()",
     "screened = (bits >> b).bit_count() != 1 << c.bit_count()",
     T + "test_search.py::test_solve_linear_matches_trial_division"),
    ("solve-linear-screen-counts-bits-not-terms", S + "search.py",
     "screened = (bits >> b).bit_count() == 1 << c.bit_count()",
     "screened = (bits >> b).bit_count() == c.bit_count()",
     T + "test_search.py::test_solve_linear_matches_trial_division"),
    ("solve-linear-trusts-its-screen", S + "search.py",
     "return (b, c) if screened and bits == x1_pow[c] << b else None",
     "return (b, c) if screened else None",
     T + "test_search.py::test_solve_linear_decides_sums_past_its_term_screen"),
    # Identity 2's join by the top bit, and the reciprocal sweep's tables.
    ("identity-join-top-bit-one-high", S + "search.py",
     "x1_of.get(m ^ 1 << 2 * b)",
     "x1_of.get(m ^ 1 << 2 * b + 1)",
     T + "test_search.py::test_identity_join_matches_the_pair_loop"),
    ("identity-join-strips-the-bit-below-the-top", S + "search.py",
     "x1_low = {x1_pow[a] ^ 1 << a: a for a in span}",
     "x1_low = {x1_pow[a] ^ 1 << a - 1: a for a in span}",
     T + "test_search.py::test_identity_join_matches_the_pair_loop"),
    ("identity-join-equal-degrees-index-one-low", S + "search.py",
     "(s := x1_pow[2 * b] ^ m)",
     "(s := x1_pow[2 * b - 1] ^ m)",
     T + "test_search.py::test_identity_join_matches_the_pair_loop"),
    ("identity-join-equal-degrees-stop-below-the-cap", S + "search.py",
     "if 2 * b <= e and",
     "if 2 * b < e and",
     T + "test_search.py::test_identity_join_matches_the_pair_loop"),
    ("reciprocal-swaps-the-x-and-x1-exponents", S + "search.py",
     "p = Poly(1 ^ _mul(x1_pow[b] << a, m1_pow[c]))",
     "p = Poly(1 ^ _mul(x1_pow[a] << b, m1_pow[c]))",
     T + "test_search.py::test_reciprocal_matches_the_shape_oracle"),
    ("tables-h-max-one-short", S + "search.py",
     "h_max = admissibility_budget(family, base)",
     "h_max = admissibility_budget(family, base) - 1",
     T + "test_search.py::test_table_h_max_is_degree_budget"),
    # The degree screen of the admissibility scans and its order of 2.
    ("degree-screen-inverted", S + "catalog.py",
     "        if all(k % order for k in degrees):\n",
     "        if not all(k % order for k in degrees):\n",
     T + "test_catalog.py::test_degree_screen_skips_only_rows_that_cannot_split "
     + T + "test_catalog.py::test_split_divisor_sums_matches_an_unscreened_scan"),
    ("degree-screen-needs-every-member", S + "catalog.py",
     "        if all(k % order for k in degrees):\n",
     "        if any(k % order for k in degrees):\n",
     T + "test_catalog.py::test_degree_screen_skips_only_rows_that_cannot_split"),
    ("degree-screen-from-the-first-member", S + "catalog.py",
     "degrees = {p.degree for p in family}",
     "degrees = {family[0].degree}",
     T + "test_catalog.py::test_degree_screen_skips_only_rows_that_cannot_split"),
    ("degree-screen-reads-the-next-row", S + "catalog.py",
     "order = _order2(2 * h + 1)",
     "order = _order2(2 * h + 3)",
     T + "test_catalog.py::test_degree_screen_skips_only_rows_that_cannot_split"),
    ("order-of-two-one-short", S + "sigma.py",
     "order, r = 1, 2 % d",
     "order, r = 0, 2 % d",
     T + "test_sigma.py::test_order_of_two_matches_brute_force"),
    # The factorization record and the admissibility report.
    ("factor-map-merge-keeps-the-last-exponent", S + "factorize.py",
     "merged[prime.bits] = prime, total + exp",
     "merged[prime.bits] = prime, exp",
     T + "test_factorize.py::test_factor_map_merges_and_orders"),
    ("factor-map-keeps-the-input-order", S + "factorize.py",
     "(merged[bits] for bits in sorted(merged))",
     "merged.values()",
     T + "test_factorize.py::test_factor_map_is_the_tuple_of_its_pairs"),
    ("admissible-family-cap-off-by-one", S + "catalog.py",
     "if degree > MAX_FAMILY_DEGREE:",
     "if degree >= MAX_FAMILY_DEGREE:",
     T + "test_catalog.py::test_family_degree_cap_is_inclusive_and_counts_each_member_once"),
    ("admissible-member-check-needs-any-member", S + "catalog.py",
     "all(holds for holds, _ in results)",
     "any(holds for holds, _ in results)",
     T + "test_cli.py::test_cli_outputs_are_pinned"),
    ("admissible-verdict-drops-the-linear-condition", S + "catalog.py",
     "admissible=closure.holds or linear.holds or feedback.holds,",
     "admissible=closure.holds or feedback.holds,",
     T + "test_cli.py::test_cli_outputs_are_pinned"),
    ("admissible-linear-base-without-parentheses", S + "catalog.py",
     'base = s.text() if s == X else f"({s.text()})"',
     "base = s.text()",
     T + "test_catalog.py::test_linear_hit_writes_a_two_term_base_in_parentheses"),
    # The catalog.
    ("catalog-irreducibility-check-removed", S + "catalog.py",
     "            if not is_irreducible(p):\n"
     "                raise CatalogError(f\"{name} = {p.text()} is not irreducible\")\n",
     "",
     T + "test_catalog.py::test_catalog_self_check_raises"),
    ("catalog-exports-an-import", S + "catalog.py",
     '    "is_admissible",\n',
     '    "is_admissible",\n    "is_perfect",\n',
     T + "test_layers.py"),
    # The JSON indenter.
    ("indenter-writes-comma-space-between-items", S + "cli.py",
     'return "[" + inner + ("," + inner).join(parts)',
     'return "[" + inner + (", " + inner).join(parts)',
     T + "test_cli.py::test_dumps_matches_json_dumps"),
    ("indenter-nests-one-space-short", S + "cli.py",
     '    def mapping(v, indent):\n        inner = indent + "  "',
     '    def mapping(v, indent):\n        inner = indent + " "',
     T + "test_cli.py::test_dumps_matches_json_dumps"),
    # Poly.text and its term list.
    ("text-drops-the-constant-term", S + "gf2poly.py",
     "*compress(_terms(len(digits)), digits)",
     "*compress(_terms(len(digits))[1:], digits[1:])",
     T + "test_gf2poly.py::test_text_matches_oracle"),
    ("text-term-list-one-exponent-high", S + "gf2poly.py",
     "*compress(_terms(len(digits)), digits)",
     "*compress(_terms(len(digits))[1:], digits)",
     T + "test_gf2poly.py::test_text_matches_oracle"),
    ("text-formats-from-one-past-the-cap", S + "gf2poly.py",
     "compress(count(_TERMS_CAP), digits[_TERMS_CAP:])",
     "compress(count(_TERMS_CAP + 1), digits[_TERMS_CAP:])",
     T + "test_gf2poly.py::test_text_edge_cases_match_oracle"),
    ("term-list-grows-past-its-cap", S + "gf2poly.py",
     "size = min(max(n, 2 * len(terms)), _TERMS_CAP)",
     "size = max(n, 2 * len(terms))",
     T + "test_gf2poly.py::test_term_list_stops_at_its_cap"),
    # The fused modular product and the walk's blocks that use it.
    ("mulmod-skips-its-per-byte-reduction", S + "gf2poly.py",
     "            c ^= table[c >> n]\n",
     "",
     T + "test_gf2poly.py::test_mulmod_matches_oracle"),
    ("mulmod-indexes-the-table-one-bit-high", S + "gf2poly.py",
     "c ^= table[c >> n]",
     "c ^= table[c >> (n + 1)]",
     T + "test_gf2poly.py::test_mulmod_matches_oracle"),
    ("wide-table-threshold-above-the-walks-blocks", S + "gf2poly.py",
     "_REDUCE_WIDE_MIN_DEGREE = 44",
     "_REDUCE_WIDE_MIN_DEGREE = 45",
     T + "test_factorize.py::test_every_modulus_the_walk_multiplies_by_has_a_fused_product"),
    ("ddf-product-keeps-only-the-last-degree", S + "factorize.py",
     "else mulmod(prod, h ^ 2)",
     "else h ^ 2",
     T + "test_factorize.py::test_distinct_degree_matches_trial_division"),
    ("ddf-first-block-as-wide-as-the-rest", S + "factorize.py",
     "(_DDF_BLOCK if k else _DDF_FIRST_BLOCK)",
     "_DDF_BLOCK",
     T + "test_factorize.py::test_distinct_degree_splits_a_wide_find_by_walking_it"),
)


def pytest_exit(tree, selector):
    """pytest's exit code for selector run in tree, or None past TIMEOUT_S."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *selector.split()]
    try:
        return subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def parse_args(argv=None):
    """The mutants to run: every one, or those named by --only."""
    parser = argparse.ArgumentParser(
        description="Run the mutation record: every mutant must make its tests fail.")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only the named mutants")
    args = parser.parse_args(argv)
    if args.only is None:
        return MUTANTS
    names = {m[0] for m in MUTANTS}
    unknown = [name for name in args.only if name not in names]
    if unknown:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    return tuple(m for m in MUTANTS if m[0] in args.only)


def main(argv=None):
    mutants = parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                        ".bench_out")
        for part in ("src", "tests", "tools", "bench"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for selector in dict.fromkeys(m[4] for m in mutants):
            code = pytest_exit(tree, selector)
            if code != 0:
                print(f"BASELINE {selector}: pytest exit {code} before any mutation")
                failures += 1
        for name, file, old, new, selector in mutants:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"MISSING  {name}: old text found {text.count(old)} times in {file}")
                failures += 1
                continue
            mutated = text.replace(old, new)
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError:
                print(f"BROKEN   {name}: does not compile")
                failures += 1
                continue
            path.write_text(mutated)
            try:
                code = pytest_exit(tree, selector)
            finally:
                path.write_text(text)
            if code in (1, 2):
                print(f"killed   {name}")
            elif code is None:
                print(f"killed   {name} (timeout after {TIMEOUT_S} s)")
            else:
                print(f"SURVIVED {name}: pytest exit {code} on {selector}")
                failures += 1
    print(f"{len(mutants)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
