"""Factoring machinery against the trial-division oracle."""

import gc
import hashlib
import itertools
import json
import random
import re
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2perfect import factorize, gf2poly
from gf2perfect.catalog import (
    mersenne_family,
    name_of,
    prime_family,
    two_mersenne_family,
)
from gf2perfect.factorize import (
    FactorMap,
    _distinct_degree,
    _is_irreducible_bits,
    factor_full,
    factor_over_family,
    is_irreducible,
)
from gf2perfect.gf2poly import ONE, Poly, X, X1
from gf2perfect.search import conjecture_scan
from gf2perfect.sigma import _cyclotomic_pieces, mersenne, sigma_prime_power, two_mersenne
from expected import FACTOR_JSON_SHA256
from oracles import (
    cyclotomic_pieces,
    gauss_prime_count,
    i_divmod,
    i_factor,
    i_factor_over,
    i_is_prime,
    i_mul,
    is_squarefree,
    sieve_primes,
)

deg12 = st.integers(min_value=1, max_value=(1 << 13) - 1)
deg96 = st.integers(min_value=1, max_value=(1 << 97) - 1)


def test_irreducibility_exhaustive_through_degree_14():
    # Below degree 44 the walk's blocks are one degree each, so this
    # covers every first block of an unblocked walk.  The sieve oracle
    # is checked against trial division through degree 10.
    primes = set(sieve_primes(14))
    for bits in range(2, 1 << 15):
        assert is_irreducible(Poly(bits)) == (bits in primes), bin(bits)
        assert bits >> 11 or i_is_prime(bits) == (bits in primes), bin(bits)


def test_irreducibility_matches_gauss_count_through_degree_16():
    # Every prime of degree n >= 2 has constant term 1, so the odd
    # candidates of degree n hold all of Gauss's count.  The walk is
    # called past the cache, which neither fills nor moves.
    walk, before = _is_irreducible_bits.__wrapped__, _is_irreducible_bits.cache_info()
    for n in range(2, 17):
        got = sum(map(walk, range((1 << n) + 1, 1 << (n + 1), 2)))
        assert got == gauss_prime_count(n), n
    assert _is_irreducible_bits.cache_info() == before


def test_irreducibility_of_constants():
    with pytest.raises(ValueError):
        is_irreducible(Poly(0))
    with pytest.raises(ValueError):
        is_irreducible(ONE)


@given(deg12)
def test_factor_full_matches_trial_division(bits):
    got = [(p.bits, e) for p, e in factor_full(Poly(bits))]
    assert got == i_factor(bits)


@given(deg96)
def test_factor_full_invariants(bits):
    fm = factor_full(Poly(bits))
    assert fm.product().bits == bits
    assert list(fm) == sorted(fm, key=lambda pe: pe[0].bits)
    for p, e in fm:
        assert e >= 1
        assert is_irreducible(p)


@given(deg96)
@settings(max_examples=25)
def test_factor_full_is_deterministic(bits):
    assert factor_full(Poly(bits)) == factor_full(Poly(bits))


def factor_json_inputs():
    """62 seeded inputs of degree 1..12 and 20, 40, ..., 1000.  Every
    third is a random square times a random cofactor, so the square-free
    split and repeated exponents take part."""
    rng = random.Random("factor-json")
    out = []
    for i, d in enumerate(list(range(1, 13)) + list(range(20, 1001, 20))):
        if i % 3 == 2:
            half = d // 4
            root = (1 << half) | rng.getrandbits(half)
            rest = d - 2 * half
            bits = i_mul(i_mul(root, root), (1 << rest) | rng.getrandbits(rest))
        else:
            bits = (1 << d) | rng.getrandbits(d)
        out.append(bits)
    return out


def test_factor_json_is_pinned():
    blob = json.dumps(
        [factor_full(Poly(bits)).to_json() for bits in factor_json_inputs()],
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == FACTOR_JSON_SHA256


# Products of the primes of one to four inputs of degree at most 18:
# trial division stays fast, and primes of degree 17 and 18 lie in a
# second block of the default block size.
deg18_parts = st.lists(
    st.integers(min_value=2, max_value=(1 << 19) - 1), min_size=1, max_size=4
)


# A step s > 1 keeps only the primes whose degree s divides, which is
# the promise the stepped walk is given.  Few such products reach
# _DDF_BLOCK_MIN_DEGREE, so the stepped cases block from degree 1 on:
# blocks without a multiple of s, splits and the walk's stop all
# occur at these sizes.  The unblocked stepped walk is checked on the
# 71 conjecture inputs below of degree under 44.
@pytest.mark.parametrize(
    "block, step",
    [
        pytest.param(block, step, id=str(block) if step == 1 else f"{block}-step{step}")
        for step in (1, 2, 3, 4)
        for block in (2, factorize._DDF_BLOCK)
    ],
)
@settings(max_examples=40, deadline=None)
@given(parts=deg18_parts)
def test_distinct_degree_matches_trial_division(block, step, parts):
    primes = {
        p for bits in parts for p, _ in i_factor(bits) if (p.bit_length() - 1) % step == 0
    }
    f = 1
    by_degree = {}
    for p in primes:
        f = i_mul(f, p)
        k = p.bit_length() - 1
        by_degree[k] = i_mul(by_degree.get(k, 1), p)
    min_degree = factorize._DDF_BLOCK_MIN_DEGREE if step == 1 else 1
    # Blocks multiply from min_degree on, so the reducer's table and
    # fused product must start there too.
    with mock.patch.object(factorize, "_DDF_BLOCK", block), \
            mock.patch.object(factorize, "_DDF_BLOCK_MIN_DEGREE", min_degree), \
            mock.patch.object(gf2poly, "_REDUCE_TABLE_MIN_DEGREE",
                              min(min_degree, gf2poly._REDUCE_TABLE_MIN_DEGREE)), \
            mock.patch.object(gf2poly, "_REDUCE_WIDE_MIN_DEGREE", min_degree):
        got = list(_distinct_degree(f, step))
    assert got == [(by_degree[k], k) for k in sorted(by_degree)]


def test_distinct_degree_takes_no_gcd_of_one():
    # Step 4 in blocks of 2: degrees 1-2 hold no multiple of 4, so that
    # block's product stays 1 and gcd(1, f) = 1 is not taken; degrees
    # 3-4 take the one gcd, which leaves a single prime.
    q4, q8 = Poly.parse("x^4+x+1").bits, Poly.parse("x^8+x^4+x^3+x+1").bits
    gcds = []

    def spy(a, b):
        gcds.append((a, b))
        return gf2poly._gcd(a, b)

    with mock.patch.object(factorize, "_gcd", spy), \
            mock.patch.object(factorize, "_DDF_FIRST_BLOCK", 2), \
            mock.patch.object(factorize, "_DDF_BLOCK", 2), \
            mock.patch.object(factorize, "_DDF_BLOCK_MIN_DEGREE", 1):
        got = list(_distinct_degree(i_mul(q4, q8), 4))
    assert got == [(q4, 4), (q8, 8)]
    assert len(gcds) == 1 and 1 not in gcds[0]


def test_distinct_degree_splits_a_wide_find_by_walking_it():
    # f = p17 p20 p32a p32b p71 has degree 172, so the walk takes a
    # first block of 4, then blocks of 16, and stops at degree
    # 172 // 2 = 86 at the latest.  Its gcds:
    # - degrees 1-4 find nothing: 1 gcd;
    # - degrees 5-20 find p17 p20: 1 gcd;
    # - the split walks that find one degree per block, from 5 up to
    #   17, where it takes off p17 and p20 is left: 13 gcds;
    # - degrees 21-36 find p32 = p32a p32b: 1 gcd;
    # - the split walks it from 21 up to 32, its stop as what is left
    #   has degree 64: 12 gcds; the last leaves only primes of degree
    #   32, and their split takes no gcd;
    # - p71 is left, so the walk stops at 35, which it has passed.
    # 1 + 1 + 13 + 1 + 12 = 28.
    assert (factorize._DDF_FIRST_BLOCK, factorize._DDF_BLOCK,
            factorize._DDF_BLOCK_MIN_DEGREE) == (4, 16, 44)
    p17, p20, p32a, p32b, p71 = (Poly.parse(t).bits for t in (
        "x^17+x^3+1", "x^20+x^3+1", "x^32+x^7+x^3+x^2+1", "x^32+x^22+x^2+x+1",
        "x^71+x^6+1",
    ))
    p32 = i_mul(p32a, p32b)
    f = i_mul(i_mul(i_mul(p17, p20), p32), p71)
    gcds = []

    def spy(a, b):
        gcds.append((a, b))
        return gf2poly._gcd(a, b)

    with mock.patch.object(factorize, "_gcd", spy):
        got = list(_distinct_degree(f))
    assert got == [(p17, 17), (p20, 20), (p32, 32), (p71, 71)]
    assert len(gcds) == 28


@pytest.mark.parametrize(
    "primes, moduli",
    [
        # Degrees 1-16 find x^2+x+1 and the walk goes on to degree 23:
        # the walk reduces modulo f, its split of the find modulo
        # x^2+x+1, and the walk modulo the degree-47 prime that is left.
        (("x^2+x+1", "x^47+x^5+1"), [0, 1, 2]),
        # Degree 2 finds x^2+x+1 and leaves a degree-3 prime.  The
        # split of x^2+x+1 and the walk on the prime would both stop
        # at degree 1: no reducer is built for either.
        (("x^2+x+1", "x^3+x+1"), [0]),
    ],
)
def test_distinct_degree_rebuilds_its_reducer_after_a_division(primes, moduli):
    small, big = (Poly.parse(t).bits for t in primes)
    f = i_mul(small, big)
    built = []

    def spy(g):
        built.append((g, gf2poly._reducer(g)))
        return built[-1][1]

    with mock.patch.object(factorize, "_reducer", spy):
        got = list(_distinct_degree(f))
    assert got == [(small, 2), (big, big.bit_length() - 1)]
    assert [g for g, _ in built] == [(f, small, big)[i] for i in moduli]
    # Each reducer reduces modulo its own modulus, and has the fused
    # product exactly when that modulus is wide enough to block.
    for g, (reduce, mulmod) in built:
        assert reduce(g) == 0 and reduce(g ^ 1) == 1
        assert (mulmod is not None) == (g.bit_length() > factorize._DDF_BLOCK_MIN_DEGREE)


def test_every_modulus_the_walk_multiplies_by_has_a_fused_product():
    # The walk multiplies only within blocks of two or more degrees,
    # which it takes from _DDF_BLOCK_MIN_DEGREE on, modulo f itself.
    # The product of two primes of half that degree multiplies in every
    # block of its walk.
    n = factorize._DDF_BLOCK_MIN_DEGREE
    assert gf2poly._reducer((1 << n) | 1)[1] is not None
    rng = random.Random(n)
    primes = set()
    while len(primes) < 2:
        p = (1 << (n // 2)) | rng.getrandbits(n // 2) | 1
        if i_is_prime(p):
            primes.add(p)
    f = i_mul(*primes)
    assert list(_distinct_degree(f)) == [(f, n // 2)]


def _conjecture_bases():
    """The conjecture scans of M1..M13 at h <= 20 and S1..S15 at h <= 8.

    Built inside the tests, not at import: the catalog checks its primes
    with the walk under test, so a broken walk fails these tests by name
    rather than this whole file's collection."""
    return [(p, 20) for p in mersenne_family()] + [(p, 8) for p in two_mersenne_family()]


def _conjecture_inputs():
    """(P, h, the pieces of sigma(P^2h) with their steps) for every row
    of the _conjecture_bases scans: the R_i(P) over the prime factors
    R_i of Phi_d(Y), d | 2h+1, d > 1, each with ord_d(2)."""
    inputs = []
    for p, h_max in _conjecture_bases():
        for h in range(2, h_max + 1):
            n = 2 * h + 1
            pieces = []
            for d in range(3, n + 1, 2):
                if n % d == 0:
                    step, found = _cyclotomic_pieces(p.bits, d)
                    pieces += [(Poly(piece), step) for piece in found]
            inputs.append((p, h, pieces))
    return inputs


def test_stepped_factor_full_matches_unstepped_on_conjecture_inputs():
    inputs = _conjecture_inputs()
    assert len(inputs) == 13 * 19 + 15 * 7
    # Each step is ord_d(2), never 1; every odd d in 3..41 divides some
    # 2h+1 with h <= 20.
    steps = {step for _, _, pieces in inputs for _, step in pieces}
    assert steps == {cyclotomic_pieces(X.bits, d)[d][1] for d in range(3, 42, 2)}
    for p, h, pieces in inputs:
        for piece, step in pieces:
            assert factor_full(piece, degree_step=step) == factor_full(piece), (
                p.text(), h, piece.text(), step)


# Bases with a repeated prime in a divisor sum: (x^2+x+1)^2 divides
# sigma(P^8) and sigma(P^14) of the first, (x^3+x+1)^2 sigma(P^6) of
# the second, so a piece of Phi_d(P) need not be square-free.
_REPEATED_PRIME_BASES = (
    (Poly.parse("x^5+x^3+x^2+x+1"), 8, {4: mersenne(1), 7: mersenne(1)}),
    (Poly.parse("x^7+x^3+x^2+x+1"), 3, {3: Poly.parse("x^3+x+1")}),
)


def test_conjecture_scan_rows_match_unsplit_factoring():
    rows = 0
    for p, h_max in _conjecture_bases():
        for row in conjecture_scan(p, h_max).rows:
            rows += 1
            assert row.factors == factor_full(sigma_prime_power(p, 2 * row.h)), (
                p.text(), row.h)
    assert rows == 13 * 19 + 15 * 7
    for p, h_max, squares in _REPEATED_PRIME_BASES:
        for row in conjecture_scan(p, h_max).rows:
            assert row.factors == factor_full(sigma_prime_power(p, 2 * row.h)), (
                p.text(), row.h)
            repeated = [(q, e) for q, e in row.factors if e > 1]
            assert repeated == ([(squares[row.h], 2)] if row.h in squares else []), (
                p.text(), row.h)


def test_broken_degree_promise_raises():
    # Step 3 walks to degree 6, where x^2+x+1 joins the two degree-6
    # primes; the trace map splits it off, but nothing splits it further.
    f = Poly.parse("x^2+x+1") * Poly.parse("x^6+x+1") * Poly.parse("x^6+x^3+1")
    assert factor_full(f, degree_step=2) == factor_full(f)
    with pytest.raises(ValueError, match="degree-2 product into degree-6 primes"):
        factor_full(f, degree_step=3)
    with pytest.raises(ValueError, match="degree_step"):
        factor_full(f, degree_step=0)


def test_factor_of_one_is_empty():
    fm = factor_full(ONE)
    assert len(fm) == 0 and fm.product() == ONE


def test_factor_map_merges_and_orders():
    m1 = Poly(0b111)
    fm = FactorMap([(X, 1), (m1, 2), (X, 3)])
    assert [(p.bits, e) for p, e in fm] == [(2, 4), (7, 2)]
    assert len(fm) == 2
    assert fm.exponent(X) == 4
    assert fm.exponent(X1) == 0
    assert fm.product() == X ** 4 * m1 ** 2
    assert fm.text() == "(x)^4 * (x^2+x+1)^2"
    assert fm.to_json()["factors"] == [
        {"prime": "x", "exp": 4},
        {"prime": "x^2+x+1", "exp": 2},
    ]


def test_factor_map_rejects_bad_exponent():
    with pytest.raises(ValueError):
        FactorMap([(X, 0)])


def test_factor_map_edges():
    # A prime given as bits is read as Poly(bits).
    assert FactorMap([(0b111, 2)]) == FactorMap([(mersenne(1), 2)])
    fm = FactorMap([])
    assert fm.text() == "1" and fm.product() == ONE
    with pytest.raises(AttributeError, match="immutable"):
        fm.entries = ()


def test_factor_map_is_the_tuple_of_its_pairs():
    m1 = Poly(0b111)
    fm = FactorMap([(m1, 1), (0b11, 2), (X, 1), (m1, 3)])
    assert isinstance(fm, tuple)
    assert tuple(fm) == ((X, 1), (X1, 2), (m1, 4))
    assert fm == tuple(fm) and hash(fm) == hash(tuple(fm))
    assert fm.entries == tuple(fm) and type(fm.entries) is tuple
    # A prime given as bits or as a Poly gives equal maps.
    assert FactorMap([(0b11, 2), (7, 4), (2, 1)]) == fm
    for bad in (-1, 1.5, "x"):
        with pytest.raises(TypeError):
            FactorMap([(bad, 1)])




def test_factor_over_family_exact():
    fam = prime_family()
    fm = factor_over_family(sigma_prime_power(X, 14), fam)
    assert fm is not None
    expected = FactorMap(
        [(mersenne(1), 1), (mersenne(4), 1), (mersenne(5), 1), (two_mersenne(1), 1)]
    )
    assert fm == expected


def test_factor_over_family_rejects_outside_primes():
    fam = prime_family()
    # degree-5 irreducible that is not among the 28 catalog primes
    stray = Poly.parse("x^5+x^4+x^3+x+1")
    assert is_irreducible(stray)
    assert name_of(stray) is None
    assert factor_over_family(mersenne(1) * stray, fam) is None
    assert factor_over_family(stray, fam) is None


def test_factor_over_family_needs_whole_family():
    p = mersenne(2) * mersenne(3)
    assert factor_over_family(p, (mersenne(2),)) is None
    assert factor_over_family(p, (mersenne(2), mersenne(3))) is not None


def test_squarefree():
    assert is_squarefree(X * X1)
    assert not is_squarefree(X ** 2)
    assert not is_squarefree(mersenne(1) ** 2)
    assert is_squarefree(mersenne(1) * mersenne(2))
    assert is_squarefree(ONE)
    with pytest.raises(ValueError, match="zero polynomial"):
        is_squarefree(Poly(0))


@pytest.mark.parametrize(
    "p",
    [mersenne(1) ** 2, mersenne(3) ** 2 * mersenne(1) ** 3 * X ** 4, X1 ** 12 * X],
)
def test_factor_full_leaves_no_reference_cycle(p):
    """factor_full frees what it builds at return: nothing is left for
    the cyclic collector, squares and repeated squares included."""
    gc.collect()
    gc.disable()
    try:
        factor_full(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_irreducibility_cache_is_bounded():
    maxsize = _is_irreducible_bits.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    # Twice the bound in fresh inputs forces evictions.
    for bits in range(2, 2 * maxsize + 2):
        _is_irreducible_bits(bits)
    assert _is_irreducible_bits.cache_info().currsize <= maxsize


# -- the walk's irreducibility test against factor_full ------------------------


def _is_prime_by_factoring(bits):
    fm = factor_full(Poly(bits))
    return len(fm) == 1 and fm.entries[0][1] == 1


TINY_PRIMES = sieve_primes(4)


@lru_cache(maxsize=None)
def _first_primes(k, count):
    """The first count irreducibles of degree k other than x, in
    increasing order (fewer when there are fewer), by factor_full.
    Trial division by the primes of degree at most 4 first spares
    factor_full most candidates."""
    candidates = (
        bits
        for bits in range((1 << k) | 1, 1 << (k + 1), 2)
        if bits in TINY_PRIMES or all(i_divmod(bits, q)[1] for q in TINY_PRIMES)
    )
    return tuple(itertools.islice(filter(_is_prime_by_factoring, candidates), count))


def _product(values):
    out = 1
    for v in values:
        out = i_mul(out, v)
    return out


def _reducibles_of_degree(d):
    """Reducible inputs of degree d for the walk's irreducibility test."""
    out = []
    # A prime of degree at most 16 times a larger prime: from d = 44 the
    # walk's first block (degrees 1..16) rejects these.
    for s in (1, 2, 7, 16):
        if d - s > s:
            out.append(i_mul(_first_primes(s, 1)[0], _first_primes(d - s, 1)[0]))
    # Two primes of degree above 16: only a later block finds the
    # smaller one.  (At d = 34 the pair is a case of the divisor
    # products below.)
    if d > 34:
        out.append(i_mul(_first_primes(17, 1)[0], _first_primes(d - 17, 1)[0]))
    if d % 2 == 0:
        out.append(i_mul(_first_primes(d // 2, 1)[0], _first_primes(d // 2, 1)[0]))
    # d/s distinct primes of degree s for a proper divisor s of d: the
    # block that holds degree s finds them all at once, so the walk's
    # first find is the whole input, but with degree s rather than d.
    for s in range(2, d):
        if d % s == 0:
            primes = _first_primes(s, d // s)
            if len(primes) == d // s:
                out.append(_product(primes))
    # Repeated primes, which the walk meets without a square-free test:
    # p^2 q with p of degree 3 or d // 3, and (x+1)^k p with k = 1..3.
    for s in (3, d // 3):
        p = _first_primes(s, 1)[0]
        out.append(i_mul(i_mul(p, p), _first_primes(d - 2 * s, 1)[0]))
    for k in (1, 2, 3):
        out.append(i_mul(_product([0b11] * k), _first_primes(d - k, 1)[0]))
    return out


@pytest.mark.parametrize("d", range(17, 81))
def test_is_irreducible_matches_factor_full(d):
    cases = [(bits, False) for bits in _reducibles_of_degree(d)]
    cases += [(bits, True) for bits in _first_primes(d, 2)]
    for bits, verdict in cases:
        assert bits.bit_length() - 1 == d
        assert _is_prime_by_factoring(bits) == verdict, hex(bits)
        assert is_irreducible(Poly(bits)) == verdict, hex(bits)


@pytest.mark.parametrize("text", ["x^33+x^13+1", "x^89+x^38+1", "x^127+x+1"])
def test_known_irreducible_trinomials(text):
    p = Poly.parse(text)
    assert _is_prime_by_factoring(p.bits)
    assert is_irreducible(p)


# -- factor_over_family against trial division by the family -------------------

# The 41 irreducibles of degree 1..7, from the oracle's own sieve.
SMALL_PRIMES = sieve_primes(7)


@st.composite
def family_products(draw):
    """(family in draw order, product of powers of some of its members,
    stray prime outside it or None)."""
    family = draw(
        st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=8, unique=True)
    )
    bits = 1
    for q in family:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            bits = i_mul(bits, q)
    stray = draw(
        st.none() | st.sampled_from(SMALL_PRIMES).filter(lambda q: q not in family)
    )
    return family, bits, stray


@settings(max_examples=200, deadline=None)
@given(family_products())
def test_factor_over_family_matches_trial_division(case):
    family, bits, stray = case
    if stray is not None:
        bits = i_mul(bits, stray)
    got = factor_over_family(Poly(bits), [Poly(q) for q in family])
    want = i_factor_over(bits, family)
    assert (None if got is None else [(p.bits, e) for p, e in got]) == want
    if stray is not None:
        assert got is None


def test_factor_over_family_finds_every_member():
    fam = prime_family()
    for q in fam:
        for e in (1, 3):
            p = q**e * mersenne(1)
            assert factor_over_family(p, fam) == FactorMap([(q, e), (mersenne(1), 1)])
            assert factor_over_family(p, fam[::-1]) == factor_over_family(p, fam)


def test_factor_over_family_alternating_families():
    a = (mersenne(1), mersenne(2))
    b = (mersenne(3), mersenne(4))  # as many members, none shared
    pa = mersenne(1) ** 2 * mersenne(2)
    pb = mersenne(3) * mersenne(4) ** 3
    for _ in range(2):
        assert factor_over_family(pa, a) == FactorMap([(mersenne(1), 2), (mersenne(2), 1)])
        assert factor_over_family(pa, b) is None
        assert factor_over_family(pb, b[::-1]) == FactorMap(
            [(mersenne(3), 1), (mersenne(4), 3)]
        )
        assert factor_over_family(pb, a) is None
        assert factor_over_family(pa * pb, a + b) is not None


@pytest.mark.parametrize(
    "family, message",
    [
        ((mersenne(1), Poly(0b101), mersenne(1)), "x^2+1 is not irreducible"),
        ((mersenne(1), mersenne(1), Poly(0b101)), "x^2+x+1 listed twice"),
        ((mersenne(1), ONE, Poly(0b101)), "degree >= 1"),
        ((Poly(0), mersenne(1)), "degree >= 1"),
    ],
)
def test_factor_over_family_error_order(family, message):
    # The family is checked member by member before the input; a failed
    # check raises again on the next call.
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(message)):
            factor_over_family(Poly(0), family)


def test_factor_over_family_zero_input():
    fam = (mersenne(1), mersenne(2))
    assert factor_over_family(mersenne(1), fam) is not None
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
            factor_over_family(Poly(0), fam)
