"""Divisor sum: formulas against factorizations and the naive oracle."""

import importlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gf2perfect.catalog import MAX_H_BUDGET, by_name, prime_family
from gf2perfect.factorize import (
    FactorMap,
    factor_full,
    factor_over_family,
    is_irreducible,
)
from gf2perfect.gf2poly import ONE, Poly, X, X1, bar
from gf2perfect.sigma import (
    MAX_OMEGA_FOR_DECOMPOSITION,
    MAX_PRIME_POWER_EXP,
    MAX_SIGMA_DEGREE,
    MERSENNE_AB,
    TWO_MERSENNE_ABN,
    US,
    U1S,
    U23S,
    _cyclotomic_factors,
    _cyclotomic_pieces,
    _divisor_sum_factors,
    _order2,
    _phi_factors,
    assemble,
    decompose_exponent,
    is_indecomposable_perfect,
    is_perfect,
    mersenne,
    sigma,
    sigma_exponents,
    sigma_of_factor_map,
    sigma_prime_power,
    slot_term,
    trivial_perfect,
    two_mersenne,
)
from gf2perfect.search import MAX_SCAN_H, REPRESENTABLE_EXPONENTS
from oracles import (
    ExponentTuple,
    chi,
    closed_form_exponents,
    cyclotomic_pieces,
    divisor_sum_bits,
    i_mul,
    o_order2,
    perfect_family,
    sieve_primes,
    sigma_sweep,
    val_x,
    val_x1,
)

# The package re-exports the function sigma under the submodule's name.
sigma_module = importlib.import_module("gf2perfect.sigma")

nonzero = st.integers(min_value=1, max_value=(1 << 129) - 1)


# -- prime powers -------------------------------------------------------------


# Every catalog prime, built from its shape parameters so that a broken
# catalog self-check fails tests here instead of the module's collection.
_BASES = [X, X1, mersenne(1), mersenne(7), two_mersenne(3)]
_BASES += [
    p
    for p in [*map(mersenne, MERSENNE_AB), *map(two_mersenne, TWO_MERSENNE_ABN)]
    if p not in _BASES
]


@pytest.mark.parametrize("base", _BASES)
@pytest.mark.parametrize("e", [0, 1, 2, 3, 7, 8, 12, 31, 40, 5, 11, 23])
def test_split_form_agrees_with_direct_sum(base, e):
    # e + 1 = 2^t s with s odd: e = 0, 2, 8, 12, 40 are plain Horner
    # (t = 0), e = 1, 3, 7, 31 squaring alone (s = 1), and e = 5, 11, 23
    # take both steps; every catalog prime, against the literal sum.
    expected = divisor_sum_bits([(base.bits, e)])
    assert sigma_prime_power(base, e).bits == expected


def test_prime_power_rejects_bad_input():
    with pytest.raises(ValueError):
        sigma_prime_power(X * X1, 2)
    with pytest.raises(ValueError):
        sigma_prime_power(X, -1)
    # one over the cap raises before the Horner loop starts
    with pytest.raises(ValueError):
        sigma_prime_power(X, MAX_PRIME_POWER_EXP + 1)


@pytest.mark.parametrize("fn", [sigma_prime_power])
@pytest.mark.parametrize("e", [MAX_PRIME_POWER_EXP, MAX_SIGMA_DEGREE // 127 + 1])
def test_prime_power_degree_cap_raises_before_any_work(monkeypatch, fn, e):
    # x^127 + x + 1 is irreducible; past the degree cap its divisor sum
    # is refused before the irreducibility test and the Horner loop.
    def no_work(p):
        raise AssertionError("work started above the degree cap")

    monkeypatch.setattr(sigma_module, "is_irreducible", no_work)
    with pytest.raises(ValueError, match="deg"):
        fn(Poly.parse("x^127+x+1"), e)


def test_degree_step_divides_every_prime_degree():
    # For even e, sigma(P^e) is the product of the pieces of Phi_d(P)
    # over d | e+1, d > 1, and every prime of a piece has a degree
    # divisible by its step.  For odd e, 1 + P divides sigma(P^e), and
    # 1 + M1 = x(x+1), so no step above 1 holds for every P.
    for e in range(41):
        if e % 2:
            assert factor_full(sigma_prime_power(mersenne(1), e)).exponent(X) > 0
            continue
        n = e + 1
        for p in (mersenne(1), mersenne(4), two_mersenne(1)):
            product = 1
            for d in range(3, n + 1, 2):
                if n % d:
                    continue
                step, pieces = _cyclotomic_pieces(p.bits, d)
                for piece in pieces:
                    product = i_mul(product, piece)
                    for q, _ in factor_full(Poly(piece)):
                        assert q.degree % step == 0, (p.text(), e, d, q.text())
            assert product == sigma_prime_power(p, e).bits, (p.text(), e)


def test_cyclotomic_factor_table_matches_list_division():
    # Every odd d > 1 that divides some 2h + 1, h <= MAX_SCAN_H, fits
    # in the cache at once, and so does d = 1, which the slot terms ask
    # for: Phi_1(Y) = Y + 1.
    ds = range(3, 2 * MAX_SCAN_H + 2, 2)
    assert len(ds) == 40
    assert _cyclotomic_factors.cache_info().maxsize >= len(ds) + 1
    assert _cyclotomic_factors(1) == (1, (X1.bits,))
    for d in ds:
        # Phi_d(Y) is the oracle's Phi_d(P) at P = x.
        phi, order = cyclotomic_pieces(X.bits, d)[d]
        totient = sum(1 for k in range(1, d) if math.gcd(k, d) == 1)
        step, factors = _cyclotomic_factors(d)
        assert step == order, d
        assert len(set(factors)) == len(factors) == totient // order, d
        product = 1
        for r in factors:
            assert r.bit_length() - 1 == order and is_irreducible(Poly(r)), d
            product = i_mul(product, r)
        assert product == phi, d


def test_order_of_two_matches_brute_force():
    # Every d = 2h + 1 of an explicit admissibility budget fits in the
    # cache at once.
    ds = range(3, 2 * MAX_H_BUDGET + 2, 2)
    assert ds[-1] == 257
    assert _order2.cache_info().maxsize >= len(ds)
    for d in ds:
        assert _order2(d) == o_order2(d), d


# The 71 irreducibles of degree 1..8, x and x+1 among them, from the
# oracle's own sieve.
PRIMES_TO_8 = sieve_primes(8)


def test_phi_1_is_the_one_piece_q_plus_1():
    assert _order2(1) == 1
    for q in PRIMES_TO_8:
        assert _cyclotomic_pieces(q, 1) == (1, (q ^ 1,)), q


@settings(max_examples=200)
@given(st.sampled_from(PRIMES_TO_8), st.integers(min_value=0, max_value=64))
@example(X.bits, 63)
@example(X1.bits, 64)
def test_divisor_sum_factors_match_factor_full(q, e):
    # Canaday's split over Phi_d(q), Phi_1(q) = 1 + q included, against
    # factoring the whole sum.
    expected = factor_full(sigma_prime_power(Poly(q), e))
    assert _divisor_sum_factors(q, e) == expected, (q, e)


@pytest.mark.parametrize("partner_first", [False, True])
def test_divisor_sum_factors_share_the_bar_partner(partner_first, request):
    # bar is a ring automorphism of GF(2)[x] that keeps degrees, so
    # sigma((bar q)^e) = bar sigma(q^e) prime by prime: the kernel
    # factors one of q and bar q and reads the other through bar,
    # whichever of the two it is asked for first.
    request.addfinalizer(_phi_factors.cache_clear)
    rng = random.Random(64)
    for q in PRIMES_TO_8:
        p = bar(Poly(q)).bits
        order = (p, q) if partner_first else (q, p)
        for e in rng.sample(range(65), 3):
            _phi_factors.cache_clear()
            got = {r: _divisor_sum_factors(r, e) for r in order}
            image = FactorMap((bar(r), k) for r, k in got[q])
            assert got[p] == image == factor_full(sigma_prime_power(Poly(p), e)), (q, e)


def test_cyclotomic_primes_have_the_order_of_two_as_degree():
    for d in range(3, 2 * MAX_SCAN_H + 2, 2):
        step, factors = _cyclotomic_factors(d)
        assert step == o_order2(d), d
        assert {r.bit_length() - 1 for r in factors} == {o_order2(d)}, d


@given(st.integers(min_value=0, max_value=(1 << 30) - 1))
def test_decompose_exponent_roundtrip(e):
    t, s = decompose_exponent(e)
    assert s % 2 == 1
    assert (s << t) - 1 == e


# -- sigma against the naive oracle -------------------------------------------


def test_sigma_matches_naive_oracle_small():
    for bits, expected in sigma_sweep(max_degree=10, max_omega=3):
        assert sigma(Poly(bits)).bits == expected, bin(bits)


def test_sigma_of_zero_raises():
    with pytest.raises(ValueError):
        sigma(Poly(0))


def test_guards_reject_inputs_outside_the_domain():
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        decompose_exponent(-1)
    with pytest.raises(ValueError, match="perfection of the zero polynomial"):
        is_perfect(Poly(0))
    with pytest.raises(ValueError, match="n must be positive"):
        trivial_perfect(0)


def test_sigma_multiplicative_over_coprime_parts():
    rng = random.Random(7)
    pool = [X, X1, *prime_family()]
    for _ in range(200):
        picks = rng.sample(pool, 4)
        e = [rng.randint(1, 5) for _ in picks]
        left = picks[0] ** e[0] * picks[1] ** e[1]
        right = picks[2] ** e[2] * picks[3] ** e[3]
        assert sigma(left * right) == sigma(left) * sigma(right)


def test_sigma_of_factor_map_matches_sigma():
    fm = FactorMap([(X, 3), (mersenne(2), 2), (two_mersenne(1), 1)])
    assert sigma_of_factor_map(fm) == sigma(fm.product())


@given(nonzero)
@settings(max_examples=150)
def test_sigma_bar_symmetry(bits):
    # sigma commutes with the conjugation automorphism
    a = Poly(bits)
    assert sigma(bar(a)) == bar(sigma(a))


# -- perfection ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_trivial_family_is_perfect(n):
    assert is_perfect(trivial_perfect(n))


def test_catalog_fixed_points_are_indecomposable():
    for t in perfect_family():
        assert is_perfect(t)
        assert is_indecomposable_perfect(t)


def test_trivial_perfects_are_indecomposable():
    # consequence of every perfect polynomial being even: the two
    # linear prime powers can never part ways
    for n in (1, 2, 3):
        assert is_indecomposable_perfect(trivial_perfect(n))


def test_one_is_indecomposable():
    # sigma(1) = 1, and no bipartition of no factors splits it.
    assert is_indecomposable_perfect(ONE)


def test_split_into_two_perfects_is_reported(monkeypatch):
    # No known perfect splits into two coprime perfects, so only a stubbed
    # divisor sum reaches that branch: with sigma(q^e) = q^e every
    # polynomial is its own divisor sum, and x (x+1) M1 (w = 3) splits.
    monkeypatch.setattr(sigma_module, "_sigma_pp", lambda q, e: (Poly(q) ** e).bits)
    assert not is_indecomposable_perfect(X * X1 * mersenne(1))


def test_indecomposable_rejects_non_perfect():
    with pytest.raises(ValueError):
        is_indecomposable_perfect(X)
    assert MAX_OMEGA_FOR_DECOMPOSITION == 30


def test_indecomposable_refuses_past_the_omega_cap(monkeypatch):
    # T5 = x^4 (x+1)^4 M4 M5 has 4 distinct primes.  Perfection is
    # checked first, so a non-perfect past the cap is called that.
    monkeypatch.setattr(sigma_module, "MAX_OMEGA_FOR_DECOMPOSITION", 3)
    with pytest.raises(ValueError, match=r"too many distinct factors \(4\)"):
        is_indecomposable_perfect(by_name("T5").poly)
    with pytest.raises(ValueError, match="not perfect"):
        is_indecomposable_perfect(X * X1 * mersenne(1) * mersenne(2))


# -- the exponent calculus -------------------------------------------------------


def test_chi_is_singleton_indicator():
    assert chi(3, 3) == 1
    assert chi(3, 9) == 0
    assert chi(15, 15) == 1
    assert chi(7, 1) == 0


# The primes of the 15 slots, in exponent-vector order.
_SLOTS = [X, X1, *map(mersenne, range(1, 6)), *map(two_mersenne, range(1, 9))]


def _one_slot_tuple(k, t, s):
    """The ExponentTuple with slot k at (t, s) and every other slot empty."""
    ts, ss = [0] * 15, [1] * 15
    ts[k], ss[k] = t, s
    return ExponentTuple(ts[0], ss[0], ts[1], ss[1], tuple(ts[2:7]), tuple(ss[2:7]),
                         tuple(ts[7:]), tuple(ss[7:]))


def _flat(exps):
    return (exps.alpha, exps.beta, *exps.gamma, *exps.delta)


def _summed(t):
    """sigma_exponents over the 15 slots of the candidate t describes,
    after t is checked against the domain."""
    t.validate()
    return sigma_exponents(zip(range(15), (t.a, t.b, *t.c, *t.d)), range(15))


def _domain_entries():
    """(slot, t, s) for every value DOMAIN gives a slot."""
    return [(k, t, s) for k, (ts, ss) in enumerate(sigma_module.DOMAIN)
            for t in ts for s in ss]


def test_slot_term_matches_the_closed_forms():
    # Each slot term is the paper's closed forms at a candidate with that
    # slot alone: every (slot, t, s) of the domain, and every S1..S8
    # exponent stage 2 can carry, where the rule keeps only (1 + Sj)^(2^t - 1).
    entries = _domain_entries()
    assert len(entries) == 145
    entries += [(k, *decompose_exponent(e)) for k in range(7, 15)
                for e in sorted(REPRESENTABLE_EXPONENTS)]
    for k, t, s in entries:
        expected = _flat(closed_form_exponents(_one_slot_tuple(k, t, s)))
        assert slot_term(k, (s << t) - 1) == expected, (k, t, s)


def test_slot_term_matches_a_fresh_factorization():
    # On the domain the rule keeps all of sigma(q^e), and no prime
    # outside the 15 slots divides it.
    for k, t, s in _domain_entries():
        e = (s << t) - 1
        fm = factor_full(sigma_prime_power(_SLOTS[k], e))
        assert all(p in _SLOTS for p, _e in fm), (k, e)
        assert slot_term(k, e) == tuple(fm.exponent(q) for q in _SLOTS), (k, e)


def test_slot_term_raises_on_a_prime_outside_the_slots(monkeypatch):
    # sigma(S3^2) = Phi_3(S3) has a prime outside the slots; the domain
    # gives S3 only s = 1, so the rule drops it until the domain is
    # widened.  (S1 already has (1, 3): sigma(S1^2) = M4 M5.)
    assert slot_term(9, 2) == (0,) * 15
    domain = list(sigma_module.DOMAIN)
    domain[9] = (range(2), (1, 3))
    monkeypatch.setattr(sigma_module, "DOMAIN", tuple(domain))
    slot_term.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"\^2\) has a prime outside the slots"):
            slot_term(9, 2)
    finally:
        slot_term.cache_clear()


def test_domain_validation():
    good = ExponentTuple.from_parts(n=4, u=15, m=4, v=15, ni=(4, 3, 3, 5, 5),
                                    ui=(15, 3, 3, 1, 1))
    good.validate()
    with pytest.raises(ValueError, match="u = 2"):
        ExponentTuple.from_parts(u=2).validate()
    with pytest.raises(ValueError, match="n = 5"):
        ExponentTuple.from_parts(n=5).validate()
    with pytest.raises(ValueError, match=r"n = -1 not in 0\.\.4"):
        ExponentTuple.from_parts(n=-1).validate()
    with pytest.raises(ValueError, match="u1"):
        ExponentTuple.from_parts(ui=(9, 1, 1, 1, 1)).validate()
    with pytest.raises(ValueError, match=r"n4 = 6 not in 0\.\.5"):
        ExponentTuple.from_parts(ni=(0, 0, 0, 6, 0)).validate()
    with pytest.raises(ValueError, match="v2"):
        ExponentTuple.from_parts(vj=(1, 3, 1, 1, 1, 1, 1, 1)).validate()
    with pytest.raises(ValueError, match="m2"):
        ExponentTuple.from_parts(mj=(0, 2, 0, 0, 0, 0, 0, 0)).validate()
    # One rejection per remaining parameter, each with its exact message.
    rejections = [
        (dict(v=11), "v = 11 not in (1, 3, 5, 7, 9, 13, 15)"),
        (dict(m=5), "m = 5 not in 0..4"),
        (dict(ui=(1, 5, 1, 1, 1)), "u2 = 5 not in (1, 3)"),
        (dict(ui=(1, 1, 7, 1, 1)), "u3 = 7 not in (1, 3)"),
        (dict(ui=(1, 1, 1, 3, 1)), "u4 = 3 not in (1,)"),
        (dict(ui=(1, 1, 1, 1, 3)), "u5 = 3 not in (1,)"),
        (dict(ni=(5, 0, 0, 0, 0)), "n1 = 5 not in 0..4"),
        (dict(ni=(0, 4, 0, 0, 0)), "n2 = 4 not in 0..3"),
        (dict(ni=(0, 0, -1, 0, 0)), "n3 = -1 not in 0..3"),
        (dict(ni=(0, 0, 0, 0, 6)), "n5 = 6 not in 0..5"),
        (dict(vj=(5, 1, 1, 1, 1, 1, 1, 1)), "v1 = 5 not in (1, 3)"),
        (dict(mj=(4, 0, 0, 0, 0, 0, 0, 0)), "m1 = 4 not in 0..3"),
    ]
    for parts, message in rejections:
        with pytest.raises(ValueError) as info:
            ExponentTuple.from_parts(**parts).validate()
        assert str(info.value) == f"exponent tuple out of domain: {message}"


def test_exponent_tuple_shape_parameters():
    t = ExponentTuple.from_parts(n=0, u=3, m=1, v=1, ni=(1, 0, 0, 0, 0),
                                 ui=(1, 1, 1, 1, 1))
    assert (t.a, t.b) == (2, 1)
    assert t.c == (1, 0, 0, 0, 0)
    assert t.d == (0,) * 8


def test_first_fixed_point_exponents():
    # x^2 (x+1) M1 reproduces itself; every slot of the closed form
    # must land exactly on its own exponent vector.
    t = ExponentTuple.from_parts(n=0, u=3, m=1, v=1, ni=(1, 0, 0, 0, 0),
                                 ui=(1, 1, 1, 1, 1))
    cand = assemble(t.a, t.b, t.c, t.d)
    assert cand == X ** 2 * X1 * mersenne(1)
    assert is_perfect(cand)
    exps = _summed(t)
    assert exps[:2] == (2, 1)
    assert exps[2:7] == (1, 0, 0, 0, 0)
    assert exps[7:] == (0,) * 8


def _sigma_of_tuple(t):
    """sigma of the candidate t describes, from its known factorization."""
    primes = [X, X1] + [mersenne(i) for i in range(1, 6)]
    primes += [two_mersenne(j) for j in range(1, 9)]
    exps = (t.a, t.b, *t.c, *t.d)
    return sigma_of_factor_map(FactorMap((p, e) for p, e in zip(primes, exps) if e))


def _random_domain_tuple(rng):
    return ExponentTuple.from_parts(
        n=rng.randint(0, 4),
        u=rng.choice(US),
        m=rng.randint(0, 4),
        v=rng.choice(US),
        ni=(
            rng.randint(0, 4),
            rng.randint(0, 3),
            rng.randint(0, 3),
            rng.randint(0, 5),
            rng.randint(0, 5),
        ),
        ui=(rng.choice(U1S), rng.choice(U23S), rng.choice(U23S), 1, 1),
        mj=(rng.randint(0, 3),) + tuple(rng.randint(0, 1) for _ in range(7)),
        vj=(rng.choice(U23S),) + (1,) * 7,
    )


def test_exponent_formulas_match_actual_divisor_sums():
    """The closed form must agree with the factored divisor sum exactly.

    1500 random tuples from the full search domain; for each one the
    candidate is materialized, its divisor sum computed from the known
    factorization, and the factorization of that divisor sum compared
    slot by slot against the formula output.
    """
    rng = random.Random(0x5EED)
    fam = prime_family()
    mers = [mersenne(i) for i in range(1, 6)]
    twos = [two_mersenne(j) for j in range(1, 9)]
    for _ in range(1500):
        t = _random_domain_tuple(rng)
        s = _sigma_of_tuple(t)
        exps = closed_form_exponents(t)
        assert _summed(t) == _flat(exps), t
        assert exps.gamma[1] == exps.gamma[2]
        alpha, beta = val_x(s), val_x1(s)
        assert (alpha, beta) == (exps.alpha, exps.beta)
        odd = s // (X**alpha * X1**beta)
        fm = factor_over_family(odd, fam)
        assert fm is not None, t
        for i, m in enumerate(mers):
            assert fm.exponent(m) == exps.gamma[i], (t, i)
        for j, q in enumerate(twos):
            assert fm.exponent(q) == exps.delta[j], (t, j)
        for prime, _e in fm:
            assert prime in mers or prime in twos, (t, prime.text())


def test_assemble_and_sigma_of_tuple_consistency():
    rng = random.Random(31)
    for _ in range(40):
        t = _random_domain_tuple(rng)
        assert _sigma_of_tuple(t) == sigma(assemble(t.a, t.b, t.c, t.d))
