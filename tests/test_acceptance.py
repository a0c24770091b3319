"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints PASS or FAIL with a short summary before asserting, so
the log carries a verdict per criterion even under quiet runs.  Criterion
3 compares the sieve's stage counts against their published references;
the stage-2 reference is not reproduced by either documented pruning rule,
and the test reports the variant counts rather than smoothing over the gap.
"""

import random
import time

from gf2perfect.catalog import (
    catalog_constants,
    chain_length,
    family_degree_sum,
    mersenne_family,
    name_of,
    prime_family,
    representation,
    two_mersenne_family,
)
from gf2perfect.factorize import factor_full, is_irreducible
from gf2perfect.gf2poly import ONE, Poly, X, X1, bar, gcd, star
from gf2perfect.search import (
    conjecture_scan,
    explore_reciprocal,
    run_search,
    sigma_factor_tables,
    verify_split_identities,
)
from gf2perfect.sigma import mersenne, sigma, sigma_prime_power
from expected import (
    EXPECTED_FINAL_NAMES,
    EXPECTED_IDENTITY_COUNTS,
    EXPECTED_RECIPROCAL_ENTRY_COUNT,
    EXPECTED_SELF_RECIPROCAL,
    EXPECTED_STAGE_COUNTS,
    EXPECTED_STAR_MERSENNE_MAP,
    EXPECTED_STAR_PAIRS,
    EXPECTED_TABLE_ROWS,
    EXPECTED_BASE_NAMES,
)
from oracles import i_factor, is_squarefree, sigma_sweep


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_catalog_integrity():
    catalog_constants.cache_clear()
    t0 = time.perf_counter()
    entries = catalog_constants()
    elapsed = time.perf_counter() - t0

    primes_ok = all(
        is_irreducible(e.poly) for e in entries if e.kind != "perfect"
    )
    fixed_ok = all(
        sigma(e.poly) == e.poly for e in entries if e.kind == "perfect"
    )
    degree_ok = family_degree_sum() == 184
    ok = primes_ok and fixed_ok and degree_ok and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"28 primes irreducible={primes_ok}, 11 fixed points={fixed_ok}, "
        f"degree-sum 184={degree_ok}, built in {elapsed:.3f}s",
    )


def test_criterion_2_table_reproduction():
    mismatches = []
    for base_set in ("linear", "mersenne", "two-mersenne"):
        tables = sigma_factor_tables(base_set)
        labels = tuple(name_of(t.base) or t.base.text() for t in tables)
        if labels != EXPECTED_BASE_NAMES[base_set]:
            mismatches.append(f"{base_set}: base list {labels}")
        for t in tables:
            label = name_of(t.base) or t.base.text()
            got = {h: {name_of(p): e for p, e in fm} for h, fm in t.rows}
            want = EXPECTED_TABLE_ROWS[base_set].get(label, {})
            if got != want:
                mismatches.append(f"{base_set}/{label}: {got} != {want}")
    _verdict(
        2,
        not mismatches,
        "all divisor-sum factor tables exact"
        if not mismatches
        else "; ".join(mismatches),
    )


def test_criterion_3_search_counts():
    res = run_search("final")

    names = {name_of(p) for p in res.tuples}
    names_ok = names == EXPECTED_FINAL_NAMES
    sigma_ok = all(sigma(p) == p for p in res.tuples)
    print(
        f"  final survivors {sorted(names, key=lambda s: int(s[1:]))} "
        f"(expected set match={names_ok}, independent sigma check={sigma_ok})"
    )
    counts_ok = res.stage_counts == EXPECTED_STAGE_COUNTS
    if not counts_ok and res.filter_diff:
        for stage_key, d in res.filter_diff.items():
            print(
                f"  stage {stage_key}: count {d['count']} vs reference "
                f"{d['reference']}; variants {d['variants']}"
            )
    ok = names_ok and sigma_ok and counts_ok
    _verdict(
        3,
        ok,
        f"stage counts {res.stage_counts} vs reference "
        f"{EXPECTED_STAGE_COUNTS}, final set ok={names_ok}, "
        f"sigma-verified={sigma_ok}",
    )


def test_criterion_4_oracle_equivalence():
    checked = 0
    for bits, expected in sigma_sweep(max_degree=14, max_omega=4):
        assert sigma(Poly(bits)).bits == expected, bin(bits)
        checked += 1

    factored = 0
    for bits in range(1, 1 << 13):
        got = [(p.bits, e) for p, e in factor_full(Poly(bits))]
        assert got == i_factor(bits), bin(bits)
        factored += 1
    _verdict(
        4,
        True,
        f"sigma matches naive divisor sum on {checked} polynomials, "
        f"factor_full matches trial division on {factored}",
    )


def test_criterion_5_property_suites():
    rng = random.Random(0xACCE57)

    def rand_poly():
        return Poly(rng.getrandbits(rng.randint(1, 513)))

    for _ in range(10_000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + a == Poly(0)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        s = a + b
        assert s * s == a * a + b * b
        assert bar(bar(a)) == a
        assert bar(a * b) == bar(a) * bar(b)
        u, v = Poly(a.bits | 1), Poly(b.bits | 1)
        assert star(star(u)) == u
        assert star(u * v) == star(u) * star(v)

    reps = 0
    for bits in range(3, 1 << 17, 2):
        if bin(bits).count("1") % 2 == 0:
            continue
        p = Poly(bits)
        rep = representation(p)
        assert sum(x + y for pair in rep.pairs for x, y in [pair]) == p.degree
        reps += 1

    square_free_bases = (X, X1) + prime_family()
    for s in square_free_bases:
        for h in range(1, 11):
            assert is_squarefree(sigma_prime_power(s, 2 * h)), (s.text(), h)

    m1 = mersenne(1)
    for s in two_mersenne_family():
        for h in range(1, 21):
            assert gcd(m1, sigma_prime_power(s, 2 * h)) == ONE, (s.text(), h)

    _verdict(
        5,
        True,
        f"10^4 random algebra cases, {reps} exhaustive valuation chains, "
        f"square-freeness h<=10 on {len(square_free_bases)} bases, "
        f"coprimality h<=20 on {len(two_mersenne_family())} bases",
    )


def test_criterion_6_reciprocal_classification():
    rep = explore_reciprocal(max_abc=6)
    got_map = rep.star_mersenne_map()
    got_self = set(rep.self_reciprocal_names())
    got_pairs = set(rep.star_pairs())
    ok = (
        len(rep.entries) == EXPECTED_RECIPROCAL_ENTRY_COUNT
        and got_map == EXPECTED_STAR_MERSENNE_MAP
        and EXPECTED_SELF_RECIPROCAL <= got_self
        and EXPECTED_STAR_PAIRS <= got_pairs
    )
    _verdict(
        6,
        ok,
        f"{len(rep.entries)} entries, star-mersenne {sorted(got_map)}, "
        f"self {sorted(got_self)}, pairs {sorted(got_pairs)}",
    )


def test_criterion_7_identity_families():
    report = verify_split_identities(max_exp=32)
    counts = tuple(len(f.found) for f in report.families)
    ok = report.ok and counts == EXPECTED_IDENTITY_COUNTS
    _verdict(
        7,
        ok,
        f"all five families exact={report.ok}, solution counts {counts}",
    )


def test_criterion_8_conjecture_evidence():
    missing = []
    m1_rows = {}
    for base in mersenne_family():
        scan = conjecture_scan(base, h_max=20)
        label = name_of(base)
        if scan.counterexample_rows:
            missing.append(
                (label, [r.h for r in scan.counterexample_rows])
            )
        for r in scan.rows:
            if r.witness is not None:
                assert r.witness.degree >= 2
                assert chain_length(r.witness) >= scan.threshold
        if base == mersenne(1):
            m1_rows = {r.h: r.factors for r in scan.rows}

    table_rows = dict(sigma_factor_tables("mersenne")[0].rows)
    rows_ok = all(m1_rows[h] == table_rows[h] for h in (2, 3, 7))
    ok = not missing and rows_ok
    _verdict(
        8,
        ok,
        "witness in every row for all 13 one-step bases, "
        f"table rows at h in (2,3,7) reproduced={rows_ok}"
        if ok
        else f"rows without witness: {missing}, table rows ok={rows_ok}",
    )
