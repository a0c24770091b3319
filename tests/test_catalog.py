"""Catalog integrity, valuation chains, classification, admissibility."""

import random
from functools import lru_cache, reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2perfect import catalog
from gf2perfect.catalog import (
    BAR_MERSENNE,
    BAR_PERFECT,
    BAR_TWO_MERSENNE,
    MAX_FAMILY_DEGREE,
    MAX_H_BUDGET,
    CatalogError,
    admissibility_budget,
    by_name,
    catalog_constants,
    catalog_json,
    chain_length,
    classify,
    family_degree_sum,
    is_admissible,
    mersenne_family,
    name_of,
    prime_family,
    representation,
    split_divisor_sums,
    two_mersenne_family,
)
from gf2perfect.factorize import factor_over_family, is_irreducible
from gf2perfect.gf2poly import ONE, Poly, X, X1, bar, star
from gf2perfect.sigma import (
    _SLOT_PRIMES,
    is_perfect,
    mersenne,
    sigma_prime_power,
    two_mersenne,
)
from oracles import (
    divisor_sum_bits,
    i_factor_over,
    i_is_prime,
    i_mul,
    o_order2,
    perfect_family,
    sieve_primes,
)


# -- table integrity ----------------------------------------------------------


def test_catalog_size_and_kinds():
    entries = catalog_constants()
    assert len(entries) == 39
    kinds = [e.kind for e in entries]
    assert kinds.count("mersenne") == 13
    assert kinds.count("two_mersenne") == 15
    assert kinds.count("perfect") == 11


def test_every_prime_entry_is_irreducible_and_odd():
    for p in prime_family():
        assert is_irreducible(p)
        assert p.bits & 1
        assert bin(p.bits).count("1") % 2 == 1


def test_every_perfect_entry_is_perfect():
    fam = perfect_family()
    assert len(fam) == 11
    for p in fam:
        assert is_perfect(p)


def test_family_degree_sum():
    assert family_degree_sum() == 184
    assert sum(p.degree for p in mersenne_family()) == 72
    assert sum(p.degree for p in two_mersenne_family()) == 112


def test_slot_primes_are_the_catalog_primes_in_slot_order():
    # sigma builds the exponent vector's primes from its shape tables,
    # not from the catalog; both must name the same primes.
    assert _SLOT_PRIMES[:2] == (X.bits, X1.bits)
    names = [name_of(Poly(q)) for q in _SLOT_PRIMES[2:]]
    assert names == [f"M{i}" for i in range(1, 6)] + [f"S{j}" for j in range(1, 9)]


@pytest.fixture
def corrupt(monkeypatch):
    """monkeypatch.setitem for the catalog's tables; the catalog's caches
    are cleared before the test and after its tables are restored, so no
    other test sees a catalog built from corrupted tables."""

    def clear():
        catalog.catalog_constants.cache_clear()
        catalog._bits_to_name.cache_clear()

    clear()
    yield monkeypatch.setitem
    monkeypatch.undo()
    clear()


@pytest.mark.parametrize(
    "updates, message",
    [
        # 1 + x^2 (x+1)^2 = (x^2+x+1)^2
        ([("MERSENNE_AB", 1, (2, 2))], "M1 = x^4+x^2+1 is not irreducible"),
        # 1 + x^2 (x+1)^2 M1^2 = S1^2
        ([("TWO_MERSENNE_ABN", 1, (2, 2, 2))], "S1 = x^8+x^2+1 is not irreducible"),
        ([("BAR_MERSENNE", 2, 2)], "conjugate of M2 is not M2"),
        (
            [("PERFECT_SHAPES", 1, (2, 2, (("M1", 1),)))],
            "T1 = x^6+x^5+x^3+x^2 is not a divisor-sum fixed point",
        ),
        # M12 and M13 become copies of M11 and M8: still irreducible and
        # each other's conjugate, but of degree 7 in place of 9.
        (
            [("MERSENNE_AB", 12, (1, 6)), ("MERSENNE_AB", 13, (6, 1))],
            "prime degree sum is 180, expected 184",
        ),
    ],
    ids=["reducible-M1", "reducible-S1", "wrong-bar", "not-perfect", "degree-sum"],
)
def test_catalog_self_check_raises(corrupt, updates, message):
    for table, key, value in updates:
        corrupt(getattr(catalog, table), key, value)
    with pytest.raises(CatalogError) as info:
        catalog_constants()
    assert str(info.value) == message


def test_bar_partner_tables_match_actual_conjugates():
    for e in catalog_constants():
        assert bar(e.poly) == by_name(e.bar_partner).poly


def test_prime_family_is_closed_under_bar():
    # The factor tables read a partner's rows through bar, which keeps
    # them over the family only because the family maps onto itself.
    family = {p.bits for p in prime_family()}
    assert {bar(Poly(b)).bits for b in family} == family


def test_bar_tables_are_involutions():
    for table in (BAR_MERSENNE, BAR_TWO_MERSENNE, BAR_PERFECT):
        for k, v in table.items():
            assert table[v] == k


def test_by_name_and_name_of_round_trip():
    for e in catalog_constants():
        assert by_name(e.name) is e
        assert name_of(e.poly) == e.name
    assert name_of(Poly.parse("x^5+x^4+x^3+x+1")) is None
    with pytest.raises(KeyError):
        by_name("M99")


def test_accessor_bounds():
    assert mersenne(1) == Poly.parse("x^2+x+1")
    assert two_mersenne(1) == Poly.parse("x^4+x+1")
    with pytest.raises(KeyError):
        mersenne(14)
    with pytest.raises(KeyError):
        two_mersenne(0)


def test_catalog_json_shape():
    rows = catalog_json()
    assert len(rows) == 39
    first = rows[0]
    assert set(first) == {"name", "poly", "kind", "params", "bar_partner"}
    by = {r["name"]: r for r in rows}
    assert by["M1"]["params"] == [1, 1]
    assert by["S1"]["params"] == [1, 1, 1]
    assert by["T1"]["params"] is None


def test_star_closure_exceptions():
    # reciprocals leave the prime family for exactly these eight
    outside = set()
    fam = set(p.bits for p in prime_family())
    for p in prime_family():
        if star(p).bits not in fam:
            outside.add(name_of(p))
    assert outside == {"M9", "M10", "M11", "S7", "S8", "S11", "S12", "S13"}


# -- coverage of the shapes ---------------------------------------------------------


def _shape_bits(a, b, c=0):
    """1 + x^a (x+1)^b M1^c, multiplied out by the oracle."""
    return 1 ^ reduce(i_mul, [0b10] * a + [0b11] * b + [0b111] * c, 1)


def _catalog_params(kind):
    return {e.params for e in catalog_constants() if e.kind == kind}


def test_mersenne_family_holds_13_of_the_17_shapes_up_to_degree_9():
    """The primes 1 + x^a (x+1)^b with a, b >= 1 and degree a + b <= 9,
    decided by trial division: M1..M13 and four the catalog leaves out."""
    found = {
        (a, b) for a, b in product(range(1, 9), repeat=2)
        if a + b <= 9 and i_is_prime(_shape_bits(a, b))
    }
    listed = _catalog_params("mersenne")
    assert len(found) == 17 and len(listed) == 13
    assert listed <= found
    assert found - listed == {(1, 5), (5, 1), (4, 5), (5, 4)}


def test_two_mersenne_family_holds_12_of_the_16_shapes_up_to_degree_8():
    """The primes 1 + x^a (x+1)^b M1^c with a, b, c >= 1 and degree
    a + b + 2c <= 8, decided by trial division: twelve of S1..S15 and
    four the catalog leaves out.  S3, S6 and S9 have degree 12."""
    found = {
        (a, b, c) for a, b, c in product(range(1, 7), range(1, 7), range(1, 4))
        if a + b + 2 * c <= 8 and i_is_prime(_shape_bits(a, b, c))
    }
    listed = _catalog_params("two_mersenne")
    small = {(a, b, c) for a, b, c in listed if a + b + 2 * c <= 8}
    assert len(found) == 16 and len(small) == 12
    assert small <= found
    assert found - small == {(1, 3, 2), (2, 4, 1), (3, 1, 2), (4, 2, 1)}
    assert listed - small == {(1, 3, 4), (3, 1, 4), (1, 1, 5)}


# -- valuation chains ----------------------------------------------------------


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("S1", ((1, 1), (1, 1))),
        ("M13", ((8, 1),)),
        ("S3", ((1, 3), (4, 4))),
        ("S7", ((1, 1), (1, 1), (1, 1), (1, 1))),
        ("S9", ((1, 1), (1, 1), (3, 3), (1, 1))),
    ],
)
def test_representation_examples(name, pairs):
    rep = representation(by_name(name).poly)
    assert rep.pairs == pairs
    assert rep.length == len(pairs)


def test_representation_text():
    assert representation(two_mersenne(1)).text() == "[[1,1],[1,1]] length=2"


def test_representation_degrees_telescope():
    for p in prime_family():
        rep = representation(p)
        assert sum(a + b for a, b in rep.pairs) == p.degree


def test_representation_rejects_bad_input():
    with pytest.raises(ValueError):
        representation(ONE)
    with pytest.raises(ValueError):
        representation(X * mersenne(1))
    with pytest.raises(ValueError):
        representation(X1 * mersenne(1))


def _random_odd(rng, max_degree=64):
    d = rng.randint(2, max_degree)
    bits = (1 << d) | (rng.getrandbits(d - 1) << 1) | 1
    if bin(bits).count("1") % 2 == 0:
        bits ^= 2
    return Poly(bits)


def test_chain_length_invariant_under_conjugation():
    rng = random.Random(99)
    for _ in range(500):
        p = _random_odd(rng)
        assert chain_length(bar(p)) == chain_length(p)


# -- classification -------------------------------------------------------------


def test_classify_mersenne_shape():
    c = classify(mersenne(6))
    assert c.k == 1
    assert c.mersenne_params == (3, 2)
    assert c.text() == "1-step (mersenne) a=3 b=2"


def test_classify_two_step_shape():
    c = classify(by_name("S3").poly)
    assert c.k == 2
    a, b, base, e = c.two_mersenne_params
    assert (a, b, e) == (1, 3, 4)
    assert base == mersenne(1)
    assert c.text() == "2-step over x^2+x+1: a=1 b=3 c=4"


def test_classify_every_catalog_prime_round_trips():
    for i, (a, b) in enumerate(
        (by_name(f"M{i}").params for i in range(1, 14)), start=1
    ):
        c = classify(mersenne(i))
        assert c.k == 1 and c.mersenne_params == (a, b)
    for j in range(1, 16):
        entry = by_name(f"S{j}")
        c = classify(entry.poly)
        assert c.k == chain_length(entry.poly)
        if c.k == 2 and c.two_mersenne_params is not None:
            a, b, base, e = c.two_mersenne_params
            ea, eb, en = entry.params
            assert (a, b) == (ea, eb)
            assert base == mersenne(1) and e == en


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 63))
def test_two_mersenne_shape_has_chain_length_two_to_the_popcount(a0, b0, a, b, c):
    """1 + x^a (x+1)^b M^c with M = 1 + x^a0 (x+1)^b0, prime or not, has
    chain length 2^popcount(c): the theorem in classify's docstring."""
    m = _shape_bits(a0, b0)
    p = 1 ^ reduce(i_mul, [0b10] * a + [0b11] * b + [m] * c, 1)
    assert chain_length(Poly(p)) == 1 << c.bit_count()


def test_classify_rejects_even():
    with pytest.raises(ValueError):
        classify(X)


def test_longer_chains_report_plain_step_count():
    assert classify(by_name("S7").poly).text() == "4-step"


# -- admissibility ---------------------------------------------------------------


def test_full_prime_family_is_admissible():
    ok, report = is_admissible(prime_family())
    assert ok
    assert report.admissible
    assert "admissible: true" in report.text()


def test_first_five_mersennes_are_admissible():
    ok, _ = is_admissible(tuple(mersenne(i) for i in range(1, 6)))
    assert ok


def test_singleton_family_without_closure_fails():
    ok, report = is_admissible((by_name("S11").poly,))
    assert not ok
    assert not report.closure.holds
    assert not report.linear_tables.holds
    assert not report.member_feedback.holds
    assert report.text().count("[fail]") == 3


def test_linear_hit_writes_a_two_term_base_in_parentheses():
    # sigma((x+1)^12) splits over S6 alone; sigma(x^2) over M1 alone.
    _, report = is_admissible((by_name("S6").poly,))
    assert report.linear_tables.detail == ("sigma((x+1)^12) factors over the family",)
    _, report = is_admissible((mersenne(1),))
    assert report.linear_tables.detail == ("sigma(x^2) factors over the family",)




def test_budget_override_shrinks_the_scan():
    fam = tuple(mersenne(i) for i in range(1, 6))
    default = admissibility_budget(fam, X)
    assert default >= 1
    ok_small, _ = is_admissible(fam, h_budget=1)
    ok_big, _ = is_admissible(fam)
    assert ok_big
    assert isinstance(ok_small, bool)


def test_admissibility_input_validation():
    with pytest.raises(ValueError):
        is_admissible(())
    with pytest.raises(ValueError):
        is_admissible((X1,))
    with pytest.raises(ValueError):
        is_admissible((mersenne(1) * mersenne(2),))
    with pytest.raises(ValueError):
        is_admissible((mersenne(1),), h_budget=0)
    with pytest.raises(ValueError):
        is_admissible((mersenne(1),), h_budget=MAX_H_BUDGET + 1)


def test_explicit_budget_is_checked_before_any_scan(monkeypatch):
    # sigma(T^(2h)) past MAX_SIGMA_DEGREE is refused; an explicit budget
    # is held to that cap for every member before any divisor-sum scan,
    # whichever member breaks it.
    def no_scan(*_args):
        raise AssertionError("a scan started")

    monkeypatch.setattr(catalog, "split_divisor_sums", no_scan)
    big = Poly.parse("x^3217+x^67+1")
    message = r"x\^3217\+x\^67\+1: 2 \* budget \* degree 823552 exceeds 262144"
    for family in ((big,), (mersenne(1), big)):
        with pytest.raises(ValueError, match=message):
            is_admissible(family, h_budget=128)
    # 2 * 128 * 1024 is the cap itself; one degree more is over it.
    # Irreducibility is waved through so that only the cap decides.
    monkeypatch.setattr(catalog, "is_irreducible", lambda p: True)
    with pytest.raises(AssertionError, match="a scan started"):
        is_admissible((Poly.parse("x^1024+x+1"),), h_budget=128)
    with pytest.raises(ValueError, match="degree 262400 exceeds 262144"):
        is_admissible((Poly.parse("x^1025+x+1"),), h_budget=128)


def test_family_degree_cap_is_inclusive_and_counts_each_member_once(monkeypatch):
    # The distinct members' degrees may sum to MAX_FAMILY_DEGREE; one
    # degree more is refused before any irreducibility test.
    def no_work(*_args):
        raise AssertionError("work started")

    monkeypatch.setattr(catalog, "is_irreducible", no_work)
    monkeypatch.setattr(catalog, "split_divisor_sums", no_work)
    at_cap = Poly.parse(f"x^{MAX_FAMILY_DEGREE}+x+1")
    with pytest.raises(AssertionError, match="work started"):
        is_admissible((at_cap, at_cap))
    message = f"family degree 2050 exceeds {MAX_FAMILY_DEGREE}"
    with pytest.raises(ValueError, match=message):
        is_admissible((at_cap, mersenne(1)))


def test_admissibility_report_json():
    _, report = is_admissible((by_name("S11").poly,))
    blob = report.to_json()
    assert blob["admissible"] is False
    assert set(blob["conditions"]) == {
        "closure",
        "linear_tables",
        "member_feedback",
    }


# -- the degree screen of split_divisor_sums ------------------------------------


def assert_screen_drops_no_split(monkeypatch, base, h_max, family):
    """The rows split_divisor_sums skips, seen as those whose divisor sum
    it never builds, are exactly those where ord_(2h+1)(2) divides no
    member degree, and factor_over_family rejects every one; returns
    how many there are."""
    built = set()

    def recording(p, e):
        built.add(e // 2)
        return sigma_prime_power(p, e)

    with monkeypatch.context() as patch:
        patch.setattr(catalog, "sigma_prime_power", recording)
        for _ in split_divisor_sums(base, h_max, family):
            pass
    skipped = set(range(1, h_max + 1)) - built
    degrees = {p.degree for p in family}
    ruled_out = {
        h for h in range(1, h_max + 1)
        if all(k % o_order2(2 * h + 1) for k in degrees)
    }
    assert skipped == ruled_out, base.text()
    for h in skipped:
        assert factor_over_family(sigma_prime_power(base, 2 * h), family) is None
    return len(skipped)


def test_degree_screen_skips_only_rows_that_cannot_split(monkeypatch):
    # The three base sets of the tables at the catalog's budget: 340 of
    # the 643 rows are skipped.
    family = prime_family()
    bases = (X, X1, *mersenne_family(), *two_mersenne_family())
    skipped = rows = 0
    for base in bases:
        h_max = admissibility_budget(family, base)
        skipped += assert_screen_drops_no_split(monkeypatch, base, h_max, family)
        rows += h_max
    assert (skipped, rows) == (340, 643)
    # The linear bases and each member, over the family extended by the
    # linear primes, as is_admissible scans them.
    for fam in (tuple(mersenne(i) for i in (1, 2, 3)), (by_name("S11").poly,)):
        extended = fam + (X, X1)
        for base in (X, X1, *fam):
            h_max = admissibility_budget(fam, base)
            assert_screen_drops_no_split(monkeypatch, base, h_max, extended)


SMALL_PRIMES = sieve_primes(7)


@lru_cache(maxsize=None)
def small_splits(base):
    """The (h, split) of base's rows h <= 30 that split over every prime
    of degree <= 7, by trial division."""
    rows = ((h, i_factor_over(divisor_sum_bits([(base, 2 * h)]), SMALL_PRIMES))
            for h in range(1, 31))
    return tuple((h, split) for h, split in rows if split is not None)


@st.composite
def small_scans(draw):
    """(base, family, h_max) over the primes of degree <= 7.  The family
    holds the primes of one of the base's rows that split over all of
    them, when there is one in range, so that some rows do split, and up
    to three more drawn primes."""
    base = draw(st.sampled_from(SMALL_PRIMES))
    h_max = draw(st.integers(min_value=1, max_value=30))
    splits = [split for h, split in small_splits(base) if h <= h_max]
    seeded = [p for p, _ in draw(st.sampled_from(splits))] if splits else []
    extra = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=0 if seeded else 1,
                          max_size=3, unique=True))
    return base, tuple(dict.fromkeys(seeded + extra)), h_max


@settings(max_examples=60, deadline=None)
@given(small_scans())
def test_split_divisor_sums_matches_an_unscreened_scan(scan):
    # Trial division by the members, every row: the screen must change
    # nothing that is yielded.
    base, family, h_max = scan
    expected = []
    for h in range(1, h_max + 1):
        split = i_factor_over(divisor_sum_bits([(base, 2 * h)]), family)
        if split is not None:
            expected.append((h, split))
    got = [
        (h, sorted((p.bits, e) for p, e in fm))
        for h, fm in split_divisor_sums(Poly(base), h_max, tuple(map(Poly, family)))
    ]
    assert got == expected
