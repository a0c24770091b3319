"""The sieve, the factor tables, and the survey routines."""

import hashlib
import importlib
import json
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2perfect.catalog import (
    admissibility_budget,
    by_name,
    label,
    name_of,
    prime_family,
    split_divisor_sums,
)
from gf2perfect.cli import main as cli_main
from gf2perfect.factorize import FactorMap, factor_full, factor_over_family
from gf2perfect.gf2poly import Poly, X, X1, bar
from gf2perfect import search as search_module
from gf2perfect.search import (
    FINAL_REFERENCE_NAMES,
    MAX_IDENTITY_EXP,
    MAX_RECIPROCAL_ABC,
    MAX_SCAN_DEGREE,
    MAX_SCAN_H,
    REFERENCE_STAGE_COUNTS,
    STAGE2_RULES,
    conjecture_scan,
    explore_reciprocal,
    run_search,
    sigma_factor_tables,
    _fixed_points,
    _solve_linear,
    _stage1_groups,
    _stage2_groups,
    _stage3_candidates,
    _stage3_rows,
    verify_split_identities,
)
from gf2perfect.sigma import (
    U1S,
    U23S,
    US,
    _cyclotomic_factors,
    _cyclotomic_pieces,
    _phi_factors,
    _sigma_of_vector,
    assemble,
    decompose_exponent,
    mersenne,
    sigma,
    sigma_exponents,
    sigma_prime_power,
    two_mersenne,
)
from expected import (
    COMPUTED_STAGE2_STRICT,
    COMPUTED_STAGE2_UNIFORM,
    EXPECTED_BASE_NAMES,
    EXPECTED_FINAL_NAMES,
    EXPECTED_IDENTITY_COUNTS,
    EXPECTED_RECIPROCAL_ENTRY_COUNT,
    EXPECTED_SELF_RECIPROCAL,
    EXPECTED_STAGE_COUNTS,
    EXPECTED_STAR_MERSENNE_MAP,
    EXPECTED_STAR_PAIRS,
    EXPECTED_TABLE_ROWS,
    SEARCH_JSON_SHA256,
)
from oracles import (
    NAIVE_STAGE2_RULES,
    ExponentTuple,
    cyclotomic_pieces,
    free_slot_witness,
    i_divmod,
    i_factor_over,
    i_mul,
    naive_stage1_rows,
    naive_stage2_rows,
    naive_stage3_rows,
    prefix_exponents,
    split_identity_solutions,
    val_x,
    val_x1,
)

sigma_module = importlib.import_module("gf2perfect.sigma")


# -- the sieve -------------------------------------------------------------


@pytest.fixture(scope="module")
def final_result():
    return run_search("final")


def _flat(groups):
    """The flat rows head + part of stage groups (heads, blocks), in order."""
    heads, blocks = groups
    return [head + part for head, i in heads for part in blocks[i]]


def _groups2(rule="uniform"):
    return _stage2_groups(_stage1_groups(), rule)


def test_stage_counts(final_result):
    assert final_result.stage_counts["1"] == 10944
    assert final_result.stage_counts["3"] == 44
    assert final_result.stage_counts["final"] == 6
    # the reference count for stage 2 is not reproduced by either
    # documented pruning rule; the result carries the discrepancy
    # instead of hiding it
    assert final_result.stage_counts["2"] == COMPUTED_STAGE2_UNIFORM
    assert final_result.stage_counts["2"] != REFERENCE_STAGE_COUNTS["2"]
    assert not final_result.matches_reference()


def test_stage2_diff_report(final_result):
    diff = final_result.filter_diff
    assert set(diff) == {"2"}
    assert diff["2"]["reference"] == EXPECTED_STAGE_COUNTS["2"]
    assert diff["2"]["variants"] == {
        "uniform": COMPUTED_STAGE2_UNIFORM,
        "strict": COMPUTED_STAGE2_STRICT,
    }


def test_strict_rule_prunes_harder():
    r = run_search("2", stage2_rule="strict")
    assert r.count == COMPUTED_STAGE2_STRICT
    assert r.count < COMPUTED_STAGE2_UNIFORM


def test_final_survivors(final_result):
    names = {name_of(p) for p in final_result.tuples}
    assert names == EXPECTED_FINAL_NAMES
    assert set(FINAL_REFERENCE_NAMES) == EXPECTED_FINAL_NAMES
    for p in final_result.tuples:
        assert sigma(p) == p


def test_final_rows_sorted_and_json(final_result):
    bits = [p.bits for p in final_result.tuples]
    assert bits == sorted(bits)
    blob = final_result.to_json()
    assert blob["names"] == [name_of(p) for p in final_result.tuples]
    assert blob["matches_reference"] is False
    assert blob["filter_diff"]["2"]["reference"] == 4484


def test_intermediate_stage_rows_are_tuples():
    r = run_search("1")
    assert r.count == 10944
    assert all(isinstance(row, tuple) for row in r.tuples[:5])
    assert r.filter_diff is None
    assert r.matches_reference()


def test_jobs_do_not_change_results(final_result):
    parallel = run_search("final", jobs=3)
    assert parallel.to_json() == final_result.to_json()


def test_run_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_search("0")
    with pytest.raises(ValueError):
        run_search("final", stage2_rule="loose")


def test_stage1_rows_carry_the_exponents_of_their_prefix():
    # Stage 1 evaluates the formulas on bare ints without validating;
    # every prefix it keeps must still be in the search domain and agree
    # with sigma_exponents.
    rows = _flat(_stage1_groups())
    assert len(rows) == EXPECTED_STAGE_COUNTS["1"]
    for row in rows:
        n, u, m, v, n1, u1 = row[:6]
        t = ExponentTuple.from_parts(
            n=n, u=u, m=m, v=v, ni=(n1, 0, 0, 0, 0), ui=(u1, 1, 1, 1, 1)
        )
        t.validate()
        exps = sigma_exponents(zip(range(15), (t.a, t.b, *t.c, *t.d)), range(15))
        assert decompose_exponent(exps[3]) == row[6:8]
        assert exps[7:] == row[8:16]


def test_stage1_rows_match_the_per_row_oracle():
    assert _flat(_stage1_groups()) == naive_stage1_rows()


def test_prefix_exponents_are_a_sum_of_slot_terms():
    # Stage 1 adds one term-table entry per slot.  On the whole domain,
    # the rows stage 1 rejects included, that sum is the closed form.
    x_terms, x1_terms, m1_terms = search_module._stage1_terms()
    cases = 0
    for n, u, m, v, n1, u1 in product(range(5), US, range(5), US, range(5), U1S):
        if not 1 <= (u << n) - 1 <= (v << m) - 1:
            continue
        terms = (x_terms[n, u], x1_terms[m, v], m1_terms[n1, u1])
        g, delta = prefix_exponents(n, u, m, v, n1, u1)
        assert (g, *delta) == tuple(map(sum, zip(*terms)))
        cases += 1
    assert cases == 14875


@pytest.mark.parametrize("rule", list(STAGE2_RULES))
def test_stage2_matches_the_slot_by_slot_rules(rule):
    # The set-valued rules keep the rows, and count the variants, that
    # testing every slot against the rule's exponents does.
    groups1 = _stage1_groups()
    rows1 = _flat(groups1)
    assert set(STAGE2_RULES) == set(NAIVE_STAGE2_RULES)
    assert _flat(_stage2_groups(groups1, rule)) == naive_stage2_rows(rows1, rule)
    variants = run_search("2", stage2_rule=rule).filter_diff["2"]["variants"]
    assert variants == {r: len(naive_stage2_rows(rows1, r)) for r in STAGE2_RULES}


@pytest.mark.parametrize("rule", list(STAGE2_RULES))
def test_stage3_rows_match_the_per_row_oracle(rule):
    groups2 = _groups2(rule)
    rows2 = run_search("2", stage2_rule=rule).tuples
    assert tuple(_flat(groups2)) == rows2
    assert _stage3_rows(groups2) == naive_stage3_rows(rows2)


@pytest.mark.parametrize("rule", list(STAGE2_RULES))
def test_stage_groups_share_their_blocks(rule):
    # Stage 1 builds one block per summed x and x+1 term vector, in the
    # order the vectors are first seen, and each head carries its block's
    # index.  Stage 2 filters each block into a list of the same length,
    # so an index means the same block in both stages.  The per-row
    # oracle tests above check what the groups flatten to.
    x_terms, x1_terms, _m1_terms = search_module._stage1_terms()
    heads1, blocks1 = _stage1_groups()
    heads = [head for head, _i in heads1]
    assert heads == [(n, u, m, v) for n, u, m, v in product(range(5), US, range(5), US)
                     if 1 <= (u << n) - 1 <= (v << m) - 1]
    assert len(heads) == 595
    assert len(blocks1) == 230
    first_seen = {}
    for (n, u, m, v), i in heads1:
        vector = tuple(map(add, x_terms[n, u], x1_terms[m, v]))
        assert i == first_seen.setdefault(vector, len(first_seen))
    assert len(first_seen) == 230
    heads2, blocks2 = _stage2_groups((heads1, blocks1), rule)
    assert len(blocks2) == len(blocks1)
    for head, i in heads1:
        rows1 = [head + part for part in blocks1[i]]
        assert [head + part for part in blocks2[i]] == naive_stage2_rows(rows1, rule)
    assert heads2 == [(head, i) for head, i in heads1 if blocks2[i]]


def test_each_search_rebuilds_its_blocks(monkeypatch):
    # Blocks live for one run_search: each search builds and filters
    # them (_SHAPES lookups) and sums their slot terms (sigma_exponents)
    # again.  Only the slot tables, built on the first search, persist.
    run_search("final")
    calls = dict.fromkeys(("get", "getitem", "sigma_exponents"), 0)

    class CountingShapes(dict):
        def get(self, key, default=None):
            calls["get"] += 1
            return super().get(key, default)

        def __getitem__(self, key):
            calls["getitem"] += 1
            return super().__getitem__(key)

    def counting_sigma_exponents(pairs, components):
        calls["sigma_exponents"] += 1
        return sigma_exponents(pairs, components)

    monkeypatch.setattr(search_module, "_SHAPES", CountingShapes(search_module._SHAPES))
    monkeypatch.setattr(search_module, "sigma_exponents", counting_sigma_exponents)
    per_search = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        counts = run_search("final").stage_counts
        assert counts == {**EXPECTED_STAGE_COUNTS, "2": COMPUTED_STAGE2_UNIFORM}
        per_search.append(dict(calls))
    assert per_search[0] == per_search[1]
    assert per_search[0]["get"] == 230 * len(search_module._stage1_terms()[2])
    assert per_search[0]["getitem"] > 0 and per_search[0]["sigma_exponents"] > 44


def test_free_slot_witness_is_the_first_in_loop_order(monkeypatch):
    # The domain's 144 (n3, n4, n5) make 144 distinct contributions.
    # Wider t ranges make two collide: at range(6) each, (3, 2, 4) and
    # (5, 0, 0) both give (62, 31), and the table keeps the first.
    domain = list(search_module.DOMAIN)
    assert len(search_module._free_slot_witness()) == 144
    ranges = (range(6), range(6), range(6))
    domain[4:7] = [(r, (1,)) for r in ranges]
    monkeypatch.setattr(search_module, "DOMAIN", tuple(domain))
    search_module._free_slot_witness.cache_clear()
    try:
        table = search_module._free_slot_witness()
        assert len(table) == 215
        for need, witness in table.items():
            assert witness == free_slot_witness(*need, ranges), need
    finally:
        search_module._free_slot_witness.cache_clear()


def _stage2_probe(row):
    """The candidate a stage-2 row describes, M3..M5 slots left empty."""
    n, u, m, v, n1, u1, n2, u2 = row[:8]
    c = ((u1 << n1) - 1, (u2 << n2) - 1, 0, 0, 0)
    return assemble((u << n) - 1, (v << m) - 1, c, row[8:16])


@pytest.mark.parametrize("rule", list(STAGE2_RULES))
def test_stage2_rows_carry_the_exponents_of_their_candidate(rule):
    # Stage 2 keeps stage-1 rows, whose exponents the test above checks,
    # unchanged and appends the first slot's 2-adic shape.  Stage 3
    # assembles its survivors without validation, so the domain is
    # checked here: M2 and every divisor-sum slot have 2-adic valuation
    # at most 3 and odd part 1 or 3.
    rows1 = set(_flat(_stage1_groups()))
    for row in run_search("2", stage2_rule=rule).tuples:
        assert row[:16] in rows1
        assert row[16:18] == decompose_exponent(row[8])
        for slot in (row[6:8], *map(decompose_exponent, row[8:16])):
            assert slot[0] <= 3 and slot[1] in U23S, row


@pytest.mark.parametrize("rule", list(STAGE2_RULES))
@pytest.mark.parametrize("stage", ["1", "2", "3", "final"])
def test_search_json_is_pinned(stage, rule):
    blob = json.dumps(run_search(stage, stage2_rule=rule).to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SEARCH_JSON_SHA256[rule][stage]


def test_stage3_candidates_are_internally_consistent():
    mers = [mersenne(i) for i in range(1, 6)]
    twos = [two_mersenne(j) for j in range(1, 9)]
    rows = _stage3_rows(_groups2())
    assert len({bits for bits, _, _, _ in rows}) == 44
    for bits, row, witness, c in rows:
        poly = Poly(bits)
        n, u, m, v = row[:4]
        a, b = (u << n) - 1, (v << m) - 1
        d = row[8:16]
        assert val_x(poly) == a
        assert val_x1(poly) == b
        assert len(witness) == 3
        odd = poly // (X**a * X1**b)
        fm = factor_over_family(odd, prime_family())
        assert fm is not None
        for i, q in enumerate(mers):
            assert fm.exponent(q) == c[i]
        for j, q in enumerate(twos):
            assert fm.exponent(q) == d[j]


def test_stage3_m1_exponent_matches_a_factorization():
    # Each survivor's M1 exponent is the one sigma of its stage-2 probe
    # (M3..M5 empty) really has.  The probes' divisor-sum slots may lie
    # outside the tight domain that
    # test_exponent_formulas_match_actual_divisor_sums draws from.
    # The same factorizations pin the formula gap the README reports
    # under "Known divergence": the S1..S8 formulas leave out what
    # sigma(Sj^dj) adds when dj + 1 = 3 * 2^k, so 6 rows get another S1
    # or S7 exponent, and 13 have such a mismatch or a prime of degree
    # 12 or 20 outside the family.
    m1 = mersenne(1)
    twos = [two_mersenne(j) for j in range(1, 9)]
    family = {X.bits, X1.bits, *(p.bits for p in prime_family())}
    rows = _stage3_rows(_groups2())
    assert len(rows) == 44
    slot_rows, gap_rows, slots, degrees = 0, 0, set(), set()
    for _bits, row, _witness, c in rows:
        fm = factor_full(sigma(_stage2_probe(row)))
        assert fm.exponent(m1) == c[0], row
        wrong = {j for j, q in enumerate(twos, 1) if fm.exponent(q) != row[7 + j]}
        outside = {p.degree for p, _e in fm if p.bits not in family}
        slots |= wrong
        degrees |= outside
        slot_rows += bool(wrong)
        gap_rows += bool(wrong or outside)
    assert (slot_rows, gap_rows) == (6, 13)
    assert slots == {1, 7}
    assert degrees == {12, 20}


@pytest.mark.parametrize(("rule", "count"), [("uniform", 44), ("strict", 31)])
def test_stage3_exponent_vectors_match_factor_full(rule, count):
    # The final stage decides on exponent vectors and re-checks only its
    # survivors with sigma, so a wrong vector could drop a true fixed
    # point unseen; this compares every candidate's vector with its bits
    # and its divisor sum with the one sigma gets from factor_full.
    candidates = _stage3_candidates(_groups2(rule))
    assert len(candidates) == count
    for bits, exps in candidates.items():
        assert len(exps) == 15
        assert assemble(exps[0], exps[1], exps[2:7], exps[7:]).bits == bits, exps
        assert _sigma_of_vector(exps) == sigma(Poly(bits)).bits, exps


def test_final_stage_rejects_a_perturbed_exponent_vector():
    t2 = by_name("T2").poly
    candidates = _stage3_candidates(_groups2())
    exps = candidates[t2.bits]
    assert _fixed_points({t2.bits: exps}) == (t2,)
    for i, e in enumerate(exps):
        for step in (-1, 1):
            if e + step >= 0:
                perturbed = (*exps[:i], e + step, *exps[i + 1 :])
                assert _fixed_points({t2.bits: perturbed}) == (), (i, step)


def test_final_stage_raises_when_sigma_disagrees(monkeypatch):
    t2 = by_name("T2").poly
    true_sigma = search_module.sigma
    monkeypatch.setattr(
        search_module, "sigma", lambda p: p * X if p == t2 else true_sigma(p)
    )
    with pytest.raises(AssertionError, match="not by sigma"):
        run_search("final")


# -- factor tables -----------------------------------------------------------


@pytest.mark.parametrize("base_set", ["linear", "mersenne", "two-mersenne"])
def test_tables_reproduce_expected_rows(base_set):
    tables = sigma_factor_tables(base_set)
    assert tuple(label(t.base) for t in tables) == EXPECTED_BASE_NAMES[base_set]
    for t in tables:
        name = label(t.base)
        got = {h: {name_of(p): e for p, e in fm} for h, fm in t.rows}
        assert got == EXPECTED_TABLE_ROWS[base_set].get(name, {}), name


def test_table_h_max_is_degree_budget():
    for base_set in ("linear", "mersenne", "two-mersenne"):
        for t in sigma_factor_tables(base_set):
            assert t.h_max == 184 // (2 * t.base.degree)


def test_linear_tables_are_bar_conjugate():
    tx, tx1 = sigma_factor_tables("linear")
    assert tx.base == X and tx1.base == X1
    rows_x = dict(tx.rows)
    rows_x1 = dict(tx1.rows)
    assert rows_x.keys() == rows_x1.keys()
    for h, fm in rows_x.items():
        conj = FactorMap([(bar(p), e) for p, e in fm])
        assert conj == rows_x1[h]


@pytest.mark.parametrize("base_set", ["linear", "mersenne", "two-mersenne"])
def test_shared_table_rows_match_an_unshared_scan(base_set):
    # A base whose bar partner came first in the set takes the partner's
    # rows through bar; each must equal a scan of its own.
    family = prime_family()
    tables = sigma_factor_tables(base_set)
    seen, shared = set(), 0
    for t in tables:
        shared += bar(t.base).bits in seen
        seen.add(t.base.bits)
        assert t.h_max == admissibility_budget(family, t.base)
        assert t.rows == tuple(split_divisor_sums(t.base, t.h_max, family)), label(t.base)
    assert shared == {"linear": 1, "mersenne": 6, "two-mersenne": 5}[base_set]


def test_tables_accept_underscore_alias():
    a = sigma_factor_tables("two_mersenne")
    b = sigma_factor_tables("two-mersenne")
    assert [t.to_json() for t in a] == [t.to_json() for t in b]
    with pytest.raises(ValueError):
        sigma_factor_tables("cubic")


def test_table_text_shape():
    t = sigma_factor_tables("mersenne")[1]
    text = t.text()
    assert text.startswith("base M2")
    assert "h=1:" in text


# -- reciprocal survey ---------------------------------------------------------


@pytest.fixture(scope="module")
def reciprocal():
    return explore_reciprocal(max_abc=6)


def test_reciprocal_entry_count(reciprocal):
    assert len(reciprocal.entries) == EXPECTED_RECIPROCAL_ENTRY_COUNT


def test_reciprocal_star_mersenne_hits(reciprocal):
    assert reciprocal.star_mersenne_map() == EXPECTED_STAR_MERSENNE_MAP


def test_reciprocal_self_hits(reciprocal):
    assert set(reciprocal.self_reciprocal_names()) == EXPECTED_SELF_RECIPROCAL


def test_reciprocal_star_pairs(reciprocal):
    assert set(reciprocal.star_pairs()) == EXPECTED_STAR_PAIRS


def test_reciprocal_entries_are_two_mersenne_shapes(reciprocal):
    m1 = mersenne(1)
    for e in reciprocal.entries:
        expected = X**e.a * X1**e.b * m1**e.c + Poly(1)
        assert e.poly == expected


def test_reciprocal_rejects_bad_bound():
    with pytest.raises(ValueError):
        explore_reciprocal(max_abc=0)
    with pytest.raises(ValueError):
        explore_reciprocal(max_abc=MAX_RECIPROCAL_ABC + 1)


# -- split identities ------------------------------------------------------------


def test_identity_families_all_verify():
    report = verify_split_identities(max_exp=32)
    assert report.ok
    counts = tuple(len(f.found) for f in report.families)
    assert counts == EXPECTED_IDENTITY_COUNTS
    for fam in report.families:
        assert fam.found == fam.expected


def test_identity_solutions_match_trial_division():
    """Every family's found tuple is the sorted set of solutions the
    oracle gets by dividing each left-hand sum by x, x+1 and x^2+x+1."""
    oracle = split_identity_solutions(12)
    report = verify_split_identities(max_exp=12)
    assert [f.label for f in report.families] == list(oracle)
    for fam in report.families:
        assert fam.found == tuple(sorted(oracle[fam.label])), fam.label


def test_identity_spot_instances():
    report = verify_split_identities(max_exp=8)
    by_label = {f.label: f for f in report.families}
    m1_power = next(f for label, f in by_label.items() if label.startswith("1 + (x^2"))
    assert (1, 1, 1) in m1_power.found
    assert (2, 2, 2) in m1_power.found


def _linear_oracle(bits):
    """(b, c) with bits = x^b (x+1)^c by trial division, or None."""
    pairs = i_factor_over(bits, (0b10, 0b11))
    return None if pairs is None else (dict(pairs).get(0b10, 0), dict(pairs).get(0b11, 0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 16), st.integers(0, 16), st.integers(0, 1 << 10))
def test_solve_linear_matches_trial_division(i, j, half):
    """x^i (x+1)^j is solved; times an odd c it is solved only when c is
    a power of x+1, and never when c(1) = 1 too, unless c = 1."""
    bits = reduce(i_mul, [0b11] * j, 1 << i)
    assert _solve_linear(bits) == _linear_oracle(bits) == (i, j)
    c = 2 * half + 1
    product_bits = i_mul(bits, c)
    assert _solve_linear(product_bits) == _linear_oracle(product_bits)
    if c != 1 and c.bit_count() % 2:
        assert _solve_linear(product_bits) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(1, 24), st.randoms(use_true_random=False))
def test_solve_linear_decides_sums_past_its_term_screen(i, n, rng):
    """An odd part of degree n with the 2^popcount(n) terms of (x+1)^n
    passes the term-count screen; only (x+1)^n itself is a solution."""
    middle = rng.sample(range(1, n), (1 << n.bit_count()) - 2)
    odd = reduce(lambda acc, m: acc | 1 << m, middle, 1 | 1 << n)
    assert odd.bit_count() == 1 << n.bit_count()
    assert _solve_linear(odd << i) == _linear_oracle(odd << i)


def test_identities_reject_bad_bound():
    with pytest.raises(ValueError):
        verify_split_identities(max_exp=1)
    with pytest.raises(ValueError):
        verify_split_identities(max_exp=MAX_IDENTITY_EXP + 1)


# -- conjecture scans --------------------------------------------------------------


def test_scan_of_smallest_mersenne():
    scan = conjecture_scan(mersenne(1), h_max=8)
    assert scan.threshold == 2
    assert scan.counterexample_rows == ()
    by_h = {r.h: r for r in scan.rows}
    assert sorted(by_h) == list(range(2, 9))
    assert name_of(by_h[2].witness) == "S8"
    assert name_of(by_h[3].witness) == "S2"
    assert name_of(by_h[7].witness) == "S1"


def test_scan_without_a_witness_reports_its_row():
    # sigma(S14^4) = (x^4+x^3+x^2+x+1)(x^16+x^15+x^8+x^7+x^5+x+1): no
    # factor of chain length >= 3, the one such row up to h = 6.
    scan = conjecture_scan(by_name("S14").poly, h_max=6)
    assert [r.h for r in scan.counterexample_rows] == [2]


def test_scan_rows_match_table_rows():
    scan = conjecture_scan(mersenne(1), h_max=7)
    table = dict(sigma_factor_tables("mersenne")[0].rows)
    for r in scan.rows:
        if r.h in table:
            assert r.factors == table[r.h]


def test_scan_threshold_rises_with_chain_length():
    scan = conjecture_scan(two_mersenne(1), h_max=3)
    assert scan.threshold == 3


def test_scan_input_validation():
    with pytest.raises(ValueError):
        conjecture_scan(X, h_max=5)
    with pytest.raises(ValueError):
        conjecture_scan(mersenne(1) * mersenne(2), h_max=5)
    with pytest.raises(ValueError):
        conjecture_scan(mersenne(1), h_max=1)
    with pytest.raises(ValueError):
        conjecture_scan(mersenne(1), h_max=MAX_SCAN_H + 1)


def _scan_at_the_degree_cap(monkeypatch, request, partner):
    # x^64+x^4+x^3+x+1 is irreducible, and the smaller of its bar pair,
    # so the kernel factors its pieces for either scanned base and maps
    # them through bar for the partner x^64+x^4+x^3+x^2+1.  At the cap
    # the scan runs (its factoring stubbed out: each piece of Phi_d(base)
    # passes for a prime, and no prime is a witness); one h past it, it
    # is refused before the irreducibility test and any factoring.  The
    # Phi_d(Y) table is built first with the real factor_full, and the
    # Phi_d(base) cache starts and ends empty, so every piece reaches
    # the stub and no stubbed factorization outlives the test.
    small = Poly.parse("x^64+x^4+x^3+x+1")
    assert small.bits < bar(small).bits == Poly.parse("x^64+x^4+x^3+x^2+1").bits
    base = bar(small) if partner else small
    key = (lambda bits: bar(Poly(bits)).bits) if partner else (lambda bits: bits)
    h_cap = MAX_SCAN_DEGREE // (2 * base.degree)
    assert 2 * h_cap * base.degree == MAX_SCAN_DEGREE
    for d in range(3, 2 * h_cap + 2, 2):
        _cyclotomic_factors(d)
    _phi_factors.cache_clear()
    request.addfinalizer(_phi_factors.cache_clear)
    steps = {}

    def one_prime(p, step):
        assert p.bits not in steps, "a piece factored twice in one scan"
        steps[p.bits] = step
        return FactorMap([(p, 1)])

    monkeypatch.setattr(sigma_module, "factor_full", one_prime)
    monkeypatch.setattr(search_module, "chain_length", lambda p: 1)
    scan = conjecture_scan(base, h_max=h_cap)
    assert [r.h for r in scan.rows] == list(range(2, h_cap + 1))
    assert set(steps) == {key(p.bits) for r in scan.rows for p, _ in r.factors}
    for r in scan.rows:
        pieces = [p for p, _ in r.factors]
        assert sum(p.degree for p in pieces) == 2 * r.h * 64
        assert r.factors.product() == sigma_prime_power(base, 2 * r.h)
        # Phi_d(Y) has phi(d) / ord_d(2) prime factors of degree
        # ord_d(2); the oracle gives Phi_d(x), of degree phi(d).
        orders = [
            order
            for phi_d, order in cyclotomic_pieces(X.bits, 2 * r.h + 1).values()
            for _ in range((phi_d.bit_length() - 1) // order)
        ]
        assert sorted(steps[key(p.bits)] for p in pieces) == sorted(orders), r.h
        for p in pieces:
            assert p.degree == 64 * steps[key(p.bits)], r.h

    def no_work(*args):
        raise AssertionError("work started above the degree cap")

    monkeypatch.setattr(search_module, "is_irreducible", no_work)
    monkeypatch.setattr(sigma_module, "factor_full", no_work)
    with pytest.raises(ValueError, match="deg"):
        conjecture_scan(base, h_max=h_cap + 1)


def test_scan_degree_cap(monkeypatch, request):
    _scan_at_the_degree_cap(monkeypatch, request, partner=False)


def test_scan_degree_cap_of_the_bar_partner(monkeypatch, request):
    _scan_at_the_degree_cap(monkeypatch, request, partner=True)


def _count_factor_full(monkeypatch):
    calls = []
    real = sigma_module.factor_full
    monkeypatch.setattr(sigma_module, "factor_full", lambda *a: calls.append(a) or real(*a))
    return calls


def test_scan_of_a_bar_partner_factors_no_piece(monkeypatch, request):
    # M3 = bar M2: right after M2's scan, M3's reads every Phi_d through
    # bar from the cache, and its rows are the bar images of M2's.
    _phi_factors.cache_clear()
    request.addfinalizer(_phi_factors.cache_clear)
    calls = _count_factor_full(monkeypatch)
    m2 = conjecture_scan(mersenne(2))
    assert calls
    calls.clear()
    m3 = conjecture_scan(mersenne(3))
    assert calls == []
    assert [r.factors for r in m3.rows] == [
        FactorMap((bar(p), k) for p, k in r.factors) for r in m2.rows
    ]


def test_repeated_conjecture_verb_is_not_memoized(monkeypatch, request, capsys):
    # M1..M13 are M1 and six bar pairs: 7 bases to factor, each at the
    # 20 d in 3..41, so 140 Phi_d keys a run.  That exceeds the cache,
    # so a second run in the same process factors every piece again.
    for d in range(3, 42, 2):
        _cyclotomic_factors(d)
    _phi_factors.cache_clear()
    request.addfinalizer(_phi_factors.cache_clear)
    calls = _count_factor_full(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        misses = _phi_factors.cache_info().misses
        assert cli_main(["conjecture", *(f"M{i}" for i in range(1, 14)), "--hmax", "20"]) == 0
        assert _phi_factors.cache_info().misses - misses == 140
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] > 0


def assert_in_cyclotomic_pieces(base, h, factors):
    """sigma(P^2h) is the product of Phi_d(P) over d | 2h+1, d > 1, and
    Phi_d(P) that of the pieces R_i(P) over the prime factors R_i of
    Phi_d(Y).  Every prime lies in exactly one piece, and its degree is
    divisible by that piece's step ord_d(2), the premise of the walk's
    degree step.  The Phi_d(P) and the orders come from list arithmetic
    that shares no code with factorize or sigma."""
    pieces = cyclotomic_pieces(base.bits, 2 * h + 1)
    product_bits = 1
    parts = []
    for d, (piece, order) in pieces.items():
        product_bits = i_mul(product_bits, piece)
        step, found = _cyclotomic_pieces(base.bits, d)
        assert step == order, (base.text(), h, d)
        piece_bits = 1
        for part in found:
            piece_bits = i_mul(piece_bits, part)
            parts.append((part, step))
        assert piece_bits == piece, (base.text(), h, d)
    assert product_bits == factors.product().bits
    for prime, _exp in factors:
        holders = [
            step for part, step in parts if i_divmod(part, prime.bits)[1] == 0
        ]
        assert len(holders) == 1, (base.text(), h, prime.text())
        assert prime.degree % holders[0] == 0, (base.text(), h, prime.text())


def test_conjecture_factors_lie_in_one_cyclotomic_piece():
    for i in range(1, 14):
        base = mersenne(i)
        for row in conjecture_scan(base, h_max=12).rows:
            assert_in_cyclotomic_pieces(base, row.h, row.factors)


@pytest.mark.parametrize("base_set", ["linear", "mersenne", "two-mersenne"])
def test_table_factors_lie_in_one_cyclotomic_piece(base_set):
    tables = sigma_factor_tables(base_set)
    assert sum(len(table.rows) for table in tables) > 0
    for table in tables:
        for h, factors in table.rows:
            assert_in_cyclotomic_pieces(table.base, h, factors)


def test_scan_json_reports_counterexamples_field():
    scan = conjecture_scan(mersenne(1), h_max=4)
    blob = scan.to_json()
    assert blob["counterexamples"] == []
    assert blob["rows"][0]["h"] == 2
