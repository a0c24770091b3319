"""Ring arithmetic against the list oracles, plus parser round trips."""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2perfect import gf2poly
from gf2perfect.gf2poly import (
    MAX_PARSE_EXPONENT,
    ONE,
    Poly,
    PolyParseError,
    X,
    X1,
    _MUL_WINDOW_MIN,
    _gcd,
    _linear,
    _mod,
    _mul,
    _pow,
    _product,
    _reducer,
    _split_linear,
    _sqrt,
    _square,
    _strip,
    bar,
    derivative,
    gcd,
    is_even,
    is_odd,
    star,
)
from oracles import (
    i_divmod,
    i_mul,
    o_add,
    o_bar,
    o_derivative,
    o_divmod,
    o_gcd,
    o_mul,
    o_multiplicity,
    o_pow,
    o_star,
    o_text,
    to_bits,
    to_list,
    val_x,
    val_x1,
)

small = st.integers(min_value=0, max_value=(1 << 65) - 1)
small_nonzero = st.integers(min_value=1, max_value=(1 << 65) - 1)
big = st.integers(min_value=0, max_value=(1 << 513) - 1)
wide = st.integers(min_value=1 << 260, max_value=(1 << 600) - 1)


# -- the two oracle layers agree with each other ----------------------------


@given(small, small)
def test_oracle_layers_agree_mul(a, b):
    assert i_mul(a, b) == to_bits(o_mul(to_list(a), to_list(b)))


@given(small, small_nonzero)
def test_oracle_layers_agree_divmod(a, b):
    q, r = i_divmod(a, b)
    ql, rl = o_divmod(to_list(a), to_list(b))
    assert (q, r) == (to_bits(ql), to_bits(rl))


# -- package arithmetic against the list oracle ------------------------------


@given(small, small)
def test_add_matches_oracle(a, b):
    assert (Poly(a) + Poly(b)).bits == to_bits(o_add(to_list(a), to_list(b)))


@given(small, small)
def test_mul_matches_oracle(a, b):
    assert (Poly(a) * Poly(b)).bits == to_bits(o_mul(to_list(a), to_list(b)))


@given(small, small_nonzero)
def test_divrem_matches_oracle(a, b):
    q, r = divmod(Poly(a), Poly(b))
    ql, rl = o_divmod(to_list(a), to_list(b))
    assert (q.bits, r.bits) == (to_bits(ql), to_bits(rl))


@given(small, small_nonzero)
def test_divrem_invariant(a, b):
    q, r = divmod(Poly(a), Poly(b))
    assert q * Poly(b) + r == Poly(a)
    assert r.bits == 0 or r.degree < Poly(b).degree


@given(small, small)
def test_gcd_matches_oracle(a, b):
    got = gcd(Poly(a), Poly(b)).bits
    assert got == to_bits(o_gcd(to_list(a), to_list(b)))


@given(small_nonzero, small_nonzero)
def test_gcd_divides_both(a, b):
    g = gcd(Poly(a), Poly(b))
    assert (Poly(a) % g).bits == 0
    assert (Poly(b) % g).bits == 0


@given(small)
def test_derivative_matches_oracle(a):
    assert derivative(Poly(a)).bits == to_bits(o_derivative(to_list(a)))


# -- ring laws at full working width ----------------------------------------


@given(big, big, big)
def test_ring_laws(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert pa + pb == pb + pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa + pa == Poly(0)
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa * ONE == pa


@given(big, big)
def test_frobenius(a, b):
    pa, pb = Poly(a), Poly(b)
    assert (pa + pb) ** 2 == pa ** 2 + pb ** 2
    assert (pa * pb) ** 2 == pa ** 2 * pb ** 2


@given(big, big)
def test_derivative_product_rule(a, b):
    pa, pb = Poly(a), Poly(b)
    assert derivative(pa * pb) == derivative(pa) * pb + pa * derivative(pb)


@settings(max_examples=60)
@given(wide, wide)
def test_mul_kernels_agree(a, b):
    assert _mul(a, b) == to_bits(o_mul(to_list(a), to_list(b)))


@given(big | wide)
def test_square_sqrt_roundtrip(a):
    assert _sqrt(_square(a)) == a


# The shorter operand of _mul with a bit length around the crossover
# between the shift-XOR loop and the windowed product.
near_crossover = st.integers(
    min_value=max(1, _MUL_WINDOW_MIN - 4), max_value=_MUL_WINDOW_MIN + 4
).flatmap(lambda w: st.integers(min_value=1 << (w - 1), max_value=(1 << w) - 1))


@settings(max_examples=60)
@given(near_crossover, near_crossover | wide)
def test_mul_matches_oracle_on_both_sides_of_crossover(a, b):
    expected = to_bits(o_mul(to_list(a), to_list(b)))
    assert _mul(a, b) == _mul(b, a) == expected


@settings(max_examples=40)
@given(wide)
def test_wide_square_matches_oracle(a):
    assert _square(a) == to_bits(o_mul(to_list(a), to_list(a)))


# Moduli of degree 0..40, where the table reduction clears fewer bits
# per step and there is no fused product, and wide ones.
modulus = st.integers(min_value=1, max_value=(1 << 41) - 1) | wide


@settings(max_examples=80)
@given(wide, modulus)
def test_reducer_matches_mod_and_oracle(a, f):
    reduce, mulmod = _reducer(f)
    n = f.bit_length() - 1
    assert (mulmod is None) == (n < gf2poly._REDUCE_WIDE_MIN_DEGREE)
    # The dividend itself, its square, and dividends already below
    # deg f + 8 (one table lookup at most) and below deg f (no step).
    short = a >> max(0, a.bit_length() - n - 8)
    below = a >> max(0, a.bit_length() - n)
    for dividend in (a, _square(a), short, below):
        expected = to_bits(o_divmod(to_list(dividend), to_list(f))[1])
        assert reduce(dividend) == _mod(dividend, f) == expected


def _mulmod_oracle(a, b, f):
    return to_bits(o_divmod(o_mul(to_list(a), to_list(b)), to_list(f))[1])


@settings(max_examples=40, deadline=None)
@given(wide, wide, wide)
def test_mulmod_matches_oracle(a, b, f):
    reduce, mulmod = _reducer(f)
    a, b = reduce(a), reduce(b)
    assert mulmod(a, b) == mulmod(b, a) == _mulmod_oracle(a, b, f)


# Each side of the fused product's threshold, and operands that end
# one bit short of a byte boundary and on it (degree 255 and 256).  Per
# degree a sparse and a dense modulus.
@pytest.mark.parametrize("n", [43, 44, 45, 255, 256])
def test_mulmod_at_its_edges_matches_oracle(n):
    rng = random.Random(n)
    for f in ((1 << n) | 1, (1 << n) | rng.getrandbits(n) | 1):
        mulmod = _reducer(f)[1]
        if n < gf2poly._REDUCE_WIDE_MIN_DEGREE:
            assert mulmod is None
            continue
        values = (0, 1, 2, (1 << n) - 1)
        for a in values:
            for b in values:
                assert mulmod(a, b) == _mulmod_oracle(a, b, f), (f, a, b)


# -- the inline Euclid and the byte-table kernels at their edges --------------


@settings(max_examples=30, deadline=None)
@given(wide, wide)
def test_wide_gcd_matches_oracle(a, b):
    assert _gcd(a, b) == _gcd(b, a) == to_bits(o_gcd(to_list(a), to_list(b)))


@settings(max_examples=30, deadline=None)
@given(small_nonzero, big, big)
def test_gcd_finds_planted_common_factor(g, a, b):
    ga, gb = i_mul(g, a), i_mul(g, b)
    got = _gcd(ga, gb)
    assert got == to_bits(o_gcd(to_list(ga), to_list(gb)))
    assert i_divmod(got, g)[1] == 0


@given(small | wide)
def test_gcd_with_a_zero_operand(a):
    assert _gcd(a, 0) == _gcd(0, a) == a


# Every width the lookup paths of _square take (below 16 and 32 bits),
# the first widths of its bytes path, and widths at byte boundaries.
KERNEL_WIDTHS = list(range(41)) + [255, 256, 257, 511, 512, 513]


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_square_sqrt_star_match_oracle_at_every_width(width):
    rng = random.Random(width)
    values = {0}
    if width:
        top = 1 << (width - 1)
        values = {top, 2 * top - 1} | {top | rng.getrandbits(width) for _ in range(4)}
    for a in sorted(values):
        square = to_bits(o_mul(to_list(a), to_list(a)))
        assert _square(a) == square, a
        assert _sqrt(square) == a, a
        # A square of about this width, for _sqrt at the width itself.
        half = a >> (width // 2)
        assert _sqrt(to_bits(o_mul(to_list(half), to_list(half)))) == half, a
        if a:
            assert star(Poly(a)).bits == to_bits(o_star(to_list(a))), a


@settings(max_examples=40)
@given(wide, st.integers(0, 24), st.integers(0, 24))
def test_split_linear_matches_oracle(w, i, j):
    # a = x^i (x+1)^j w, where w may hold more linear factors of its own.
    a = to_bits(o_mul([0] * i + o_pow([1, 1], j), to_list(w)))
    si, sj, c = _split_linear(a)
    assert si >= i and sj >= j
    linear = [0] * si + o_pow([1, 1], sj)
    assert _linear(si, sj) == to_bits(linear)
    assert to_bits(o_mul(linear, to_list(c))) == a
    # No root at 0 (constant term 1) and none at 1 (odd weight).
    assert c & 1 and c.bit_count() & 1


def test_reducer_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _reducer(0)


@given(small_nonzero, st.integers(min_value=0, max_value=12))
def test_power_is_repeated_mul(a, e):
    acc = ONE
    for _ in range(e):
        acc = acc * Poly(a)
    assert Poly(a) ** e == acc


@given(small_nonzero | wide, st.integers(min_value=0, max_value=12))
def test_pow_matches_oracle(a, e):
    assert _pow(a, e) == reduce(i_mul, [a] * e, 1)


@given(st.lists(st.tuples(small_nonzero | wide, st.integers(0, 5)), max_size=4))
def test_product_matches_oracle(pairs):
    assert _product(pairs) == reduce(i_mul, [q for q, e in pairs for _ in range(e)], 1)


@given(small_nonzero | wide, st.integers(min_value=2, max_value=(1 << 20) - 1),
       st.integers(0, 6))
def test_strip_matches_oracle(w, q, k):
    # q^k w: at least k divisions go, more when q divides w.
    a = reduce(i_mul, [q] * k, w)
    cofactor, count = o_multiplicity(to_list(a), to_list(q))
    assert count >= k
    assert _strip(a, q) == (to_bits(cofactor), count)


def test_division_by_zero_raises():
    for op in (divmod, operator.floordiv, operator.mod):
        with pytest.raises(ZeroDivisionError):
            op(X1, Poly(0))


def test_power_of_zero():
    assert Poly(0) ** 3 == Poly(0)
    with pytest.raises(ValueError):
        Poly(0) ** 0


@pytest.mark.parametrize("e", [1.5, "2", Poly(2)])
def test_non_int_exponent_raises_type_error(e):
    with pytest.raises(TypeError):
        Poly(3) ** e


def test_negative_exponent_raises_value_error():
    with pytest.raises(ValueError):
        Poly(3) ** -1


@pytest.mark.parametrize(
    "op",
    [
        operator.add,
        operator.sub,
        operator.mul,
        divmod,
        operator.floordiv,
        operator.mod,
        operator.lt,
        operator.le,
    ],
)
@pytest.mark.parametrize("other", [1, "x"])
def test_foreign_operands_raise_type_error(op, other):
    with pytest.raises(TypeError):
        op(Poly(3), other)


# -- conjugate and reciprocal -------------------------------------------------


@given(small)
def test_bar_matches_oracle(a):
    assert bar(Poly(a)).bits == to_bits(o_bar(to_list(a)))


@settings(max_examples=15, deadline=None)
@given(wide)
def test_wide_bar_and_star_match_oracle(a):
    assert bar(Poly(a)).bits == to_bits(o_bar(to_list(a)))
    assert star(Poly(a)).bits == to_bits(o_star(to_list(a)))


@given(big)
def test_bar_involution(a):
    assert bar(bar(Poly(a))) == Poly(a)


@given(big, big)
def test_bar_is_ring_morphism(a, b):
    pa, pb = Poly(a), Poly(b)
    assert bar(pa * pb) == bar(pa) * bar(pb)
    assert bar(pa + pb) == bar(pa) + bar(pb)


@given(small_nonzero)
def test_star_matches_oracle(a):
    assert star(Poly(a)).bits == to_bits(o_star(to_list(a)))


def test_star_of_zero_raises():
    with pytest.raises(ValueError):
        star(Poly(0))


@given(big)
def test_star_involution_on_units(a):
    p = Poly(a | 1)
    assert star(star(p)) == p


@given(big, big)
def test_star_multiplicative(a, b):
    pa, pb = Poly(a | 1), Poly(b | 1)
    assert star(pa * pb) == star(pa) * star(pb)


def test_star_drops_x_powers():
    p = Poly.parse("x^3+x+1")
    assert star(X * p) == star(p)
    assert star(X) == ONE


# -- valuations and parity ----------------------------------------------------


@given(small_nonzero)
def test_valuations_strip(a):
    p = Poly(a)
    va, vb = val_x(p), val_x1(p)
    q, rem = divmod(p, X**va)
    assert rem.bits == 0
    assert val_x(q) == 0
    r = divmod(p, X1**vb)
    assert r[1].bits == 0
    assert val_x1(r[0]) == 0


def test_valuation_of_zero_raises():
    with pytest.raises(ValueError):
        val_x(Poly(0))
    with pytest.raises(ValueError):
        val_x1(Poly(0))
    with pytest.raises(ValueError, match="parity"):
        is_even(Poly(0))


@given(small_nonzero)
def test_parity(a):
    p = Poly(a)
    assert is_even(p) == (val_x(p) > 0 or val_x1(p) > 0)
    assert is_odd(p) != is_even(p)


# -- text and ordering ---------------------------------------------------------


@given(small | wide)
def test_text_matches_oracle(a):
    assert Poly(a).text() == o_text(a)


# Around the term list's cap of 4,097 entries: the top term of degree
# 4,096 is the list's last, and from degree 4,097 up the top terms are
# formatted per call.
_DENSE = random.Random(4096)


@pytest.mark.parametrize(
    "bits",
    [0, 1, 2, 3, 4, (1 << 4097) - 1, 1 << 4096 | _DENSE.getrandbits(4096),
     (1 << 4098) - 1, 1 << 4097 | 1, (1 << 5001) - 1, 1 << 5000 | _DENSE.getrandbits(5000)],
)
def test_text_edge_cases_match_oracle(bits):
    assert Poly(bits).text() == o_text(bits)


def test_term_list_stops_at_its_cap():
    Poly(1 << 5000 | 1).text()
    assert len(gf2poly._TERMS) == gf2poly._TERMS_CAP


@given(big)
def test_text_roundtrip(a):
    p = Poly(a)
    assert Poly.parse(p.text()) == p


@given(big)
def test_hex_roundtrip(a):
    p = Poly(a)
    assert Poly.parse(p.hex()) == p


def test_parse_examples():
    assert Poly.parse("x^4+x+1").bits == 0b10011
    assert Poly.parse("0x13").bits == 0x13
    assert Poly.parse("1").bits == 1
    assert Poly.parse("0").bits == 0
    assert Poly.parse("x+x").bits == 0  # repeated terms cancel


@pytest.mark.parametrize(
    "bad", ["", "  ", "x^^2", "x^1", "y", "x +", "0xg", "x^", "x^\u00b2", 3]
)
def test_parse_errors(bad):
    with pytest.raises(PolyParseError):
        Poly.parse(bad)


def test_parse_exponent_bound():
    assert Poly.parse(f"x^{MAX_PARSE_EXPONENT}").degree == MAX_PARSE_EXPONENT
    assert Poly.parse("x^" + "0" * 5000 + "2").bits == 0b100
    for big_exponent in (MAX_PARSE_EXPONENT + 1, 10**10, "9" * 5000):
        with pytest.raises(PolyParseError) as exc:
            Poly.parse(f"1+x^{big_exponent}")
        assert exc.value.offset == 4


@pytest.mark.parametrize(
    "text, offset",
    [
        ("0xZZ", 0),
        ("0XZZ", 0),
        ("  0XZZ", 2),
        # int(_, 16) reads each of these three as 0x13 ...
        ("0x1_3", 0),
        ("0X_13", 0),
        ("0x\u0661\u0663", 0),
        # ... and this one too, once its first prefix is cut.
        (" 0x0x13", 1),
    ],
)
def test_malformed_hex_reports_the_prefix_offset(text, offset):
    with pytest.raises(PolyParseError, match="malformed hex") as exc:
        Poly.parse(text)
    assert exc.value.offset == offset


@given(big, big)
def test_order_is_degree_then_value(a, b):
    pa, pb = Poly(a), Poly(b)
    assert (pa < pb) == ((pa.degree, pa.bits) < (pb.degree, pb.bits))
    assert (pa <= pb) == ((pa.degree, pa.bits) <= (pb.degree, pb.bits))


def test_constants():
    assert X.text() == "x" and X1.text() == "x+1" and ONE.text() == "1"
    assert (X + ONE) == X1
    assert str(X1) == "x+1" and Poly(X1) == X1
    assert ONE and not Poly(0)


def test_bits_are_a_nonnegative_int_and_immutable():
    for bad in (-1, 1.0, "3"):
        with pytest.raises(TypeError, match="nonnegative int"):
            Poly(bad)
    with pytest.raises(AttributeError, match="immutable"):
        X1.bits = 1
