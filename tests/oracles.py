"""Reference implementations used as differential oracles by the tests.

Everything in this file is deliberately naive and shares no code with
the package under test.  Coefficients live in Python lists where it
matters, multiplication is the double-loop convolution, division is
schoolbook long division, factoring is ascending trial division, and
the divisor sum literally adds up divisors.  Slow but transparent.

Two layers coexist: list-based arithmetic (the primary oracle for the
ring operations) and an int-based layer written independently of the
package internals, used where the list forms would be too slow (the
exhaustive factoring and divisor-sum sweeps).  The two layers are
cross-checked against each other in the test suite.

The exponent calculus is here too, as the paper writes it: closed
integer formulas, one indicator per divisor sum, for the exponent of
each slot prime in sigma of a candidate.  The candidate is the paper's
record, an ExponentTuple of 2-adic shapes, which validates itself
against the package's sigma.DOMAIN, and the result a SigmaExponents.
The package computes the same exponents, as one flat vector, from
factorizations (gf2perfect.sigma.slot_term and sigma_exponents), and
the tests check the two against each other over the whole search
domain.  The naive sieve stages at the end evaluate these formulas
afresh for every row; they take only the catalog's shape parameters
and assemble from the package.
"""

from __future__ import annotations

import importlib
from functools import reduce
from itertools import product
from typing import NamedTuple

from gf2perfect.catalog import catalog_constants
from gf2perfect.gf2poly import bar, derivative, gcd
from gf2perfect.sigma import (
    MERSENNE_AB,
    TWO_MERSENNE_ABN,
    U1S,
    US,
    assemble,
)

# The sigma layer itself: the package's name sigma is the function.
_sigma_layer = importlib.import_module("gf2perfect.sigma")

# -- conversions ------------------------------------------------------------


def to_list(bits):
    """Little-endian coefficient list of an int bit-vector."""
    out = []
    while bits:
        out.append(bits & 1)
        bits >>= 1
    return out


def to_bits(coeffs):
    bits = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            bits |= 1 << i
    return bits


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- list arithmetic --------------------------------------------------------


def o_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0)
                  for i in range(n)])


def o_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] ^= cb
    return _trim(out)


def o_divmod(a, b):
    if not b:
        raise ZeroDivisionError("oracle division by zero")
    r = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(_trim(r)) >= len(b):
        shift = len(r) - len(b)
        q[shift] ^= 1
        for i, cb in enumerate(b):
            r[shift + i] ^= cb
        _trim(r)
    return _trim(q), r


def o_pow(a, e):
    out = [1]
    for _ in range(e):
        out = o_mul(out, a)
    return out


def o_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, o_divmod(a, b)[1]
    # normalization is a no-op over GF(2): the leading coefficient is 1
    return a


def o_derivative(a):
    return _trim([a[i] if i % 2 == 1 else 0 for i in range(1, len(a))])


def o_bar(a):
    """Substitute x -> x+1 by Horner's scheme in list arithmetic."""
    out = []
    for c in reversed(a):
        out = o_mul(out, [1, 1])
        if c:
            out = o_add(out, [1])
    return out


def o_star(a):
    """Coefficient reversal: x^deg * a(1/x)."""
    return _trim(list(reversed(_trim(list(a)))))


def o_text(bits):
    """Canonical text of an int bit-vector: its set terms, highest
    exponent first, as "1", "x" or "x^k", joined by "+"; "0" for zero."""
    coeffs = to_list(bits)
    terms = []
    for i in reversed(range(len(coeffs))):
        if coeffs[i]:
            terms.append("1" if i == 0 else "x" if i == 1 else "x^" + str(i))
    return "+".join(terms) or "0"


# -- test helpers -------------------------------------------------------------
# Questions about a Poly that only the tests ask.  They read the package's
# public gcd, derivative and bar, which the suites check against the list
# layer above, and the catalog.


def val_x(p):
    """Multiplicity of x in the Poly p: the index of its lowest set bit."""
    if p.bits == 0:
        raise ValueError("valuation of the zero polynomial")
    return (p.bits & -p.bits).bit_length() - 1


def val_x1(p):
    """Multiplicity of x+1 in the Poly p: that of x in p(x+1)."""
    return val_x(bar(p))


def is_squarefree(p):
    """True when no irreducible factor of the Poly p repeats.

    A vanishing derivative means p is the square of something
    nonconstant (false, except for the unit).  Otherwise square-freeness
    is exactly gcd(p, p') = 1.
    """
    if p.bits == 0:
        raise ValueError("square-freeness of the zero polynomial")
    if p.bits == 1:
        return True
    d = derivative(p)
    return bool(d) and gcd(p, d).bits == 1


def perfect_family():
    """The catalog's perfect entries, in catalog order."""
    return tuple(e.poly for e in catalog_constants() if e.kind == "perfect")


# -- int layer --------------------------------------------------------------


def deg(bits):
    return bits.bit_length() - 1


def i_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def i_divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("oracle division by zero")
    db = deg(b)
    q = 0
    while a and deg(a) >= db:
        shift = deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def i_factor(bits):
    """Ascending trial division; returns sorted (prime, exponent) pairs."""
    if bits == 0:
        raise ValueError("oracle cannot factor zero")
    out = []
    d = 2
    while deg(d) * 2 <= deg(bits):
        e = 0
        while True:
            q, r = i_divmod(bits, d)
            if r:
                break
            bits = q
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if bits > 1:
        out.append((bits, 1))
    return out


def i_factor_over(bits, family):
    """Trial division by the family members alone, in ascending order:
    sorted (prime, exponent) pairs, or None when a cofactor other than
    1 remains."""
    out = []
    for d in sorted(family):
        e = 0
        while True:
            q, r = i_divmod(bits, d)
            if r:
                break
            bits = q
            e += 1
        if e:
            out.append((d, e))
    return out if bits == 1 else None


def i_is_prime(bits):
    return deg(bits) >= 1 and i_factor(bits) == [(bits, 1)]


def sieve_primes(max_degree):
    """All irreducibles of degree 1..max_degree, ascending, by sieving.

    A value is composite exactly when it appears as a product of two
    smaller nonconstant values; the sieve records those products.
    """
    limit = 1 << (max_degree + 1)
    composite = bytearray(limit)
    primes = []
    for n in range(2, limit):
        if composite[n]:
            continue
        primes.append(n)
        for q in range(2, limit):
            if deg(n) + deg(q) > max_degree:
                break
            composite[i_mul(n, q)] = 1
    return primes


def gauss_prime_count(n):
    """Number of irreducibles of degree n >= 1 by Gauss's formula,
    (1/n) * sum over d | n of mu(d) 2^(n/d), with mu by trial division
    (Lidl and Niederreiter, Finite Fields, Thm 3.25)."""

    def mu(m):
        sign, p = 1, 2
        while m > 1:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    total = sum(mu(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def divisor_sum_bits(factors):
    """XOR of every divisor, each divisor built as an explicit product."""
    divisors = [1]
    for p, e in factors:
        powers = [1]
        for _ in range(e):
            powers.append(i_mul(powers[-1], p))
        divisors = [i_mul(d, pk) for d in divisors for pk in powers]
    return reduce(lambda x, y: x ^ y, divisors)


def i_sigma(bits):
    """Naive divisor sum: trial-division factors, then literal summation."""
    return divisor_sum_bits(i_factor(bits))


def sigma_sweep(max_degree=14, max_omega=4, primes=None):
    """Every (poly, naive sigma) with the given degree and factor bounds.

    Enumerates products of at most max_omega distinct primes (any
    exponents) of total degree at most max_degree, carrying the full
    divisor list along, and emits each product with the XOR of its
    divisors.  The constant 1 is included.
    """
    if primes is None:
        primes = sieve_primes(max_degree)
    out = []

    def rec(start, bits, divisors, omega):
        out.append((bits, reduce(lambda x, y: x ^ y, divisors)))
        if omega == max_omega:
            return
        room = max_degree - deg(bits)
        for j in range(start, len(primes)):
            p = primes[j]
            if deg(p) > room:
                break
            power = p
            powers = [1, p]
            while deg(power) <= room:
                rec(
                    j + 1,
                    i_mul(bits, power),
                    [i_mul(d, pk) for d in divisors for pk in powers],
                    omega + 1,
                )
                power = i_mul(power, p)
                powers.append(power)
    rec(0, 1, [1], 0)
    return out


# -- cyclotomic pieces of divisor sums ---------------------------------------


def cyclotomic_pieces(p_bits, n):
    """{d: (Phi_d(P) as bits, ord_d(2))} for the divisors d > 1 of odd n.

    P^d - 1 is the product of Phi_e(P) over e | d, so Phi_d(P) is P^d - 1
    divided by the pieces of the proper divisors of d, in list
    arithmetic; ord_d(2) is the least k with d | 2^k - 1.
    """
    p = to_list(p_bits)
    phi = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        piece = o_add(o_pow(p, d), [1])
        for e, q in phi.items():
            if d % e == 0:
                piece, rem = o_divmod(piece, q)
                assert not rem, (d, e)
        phi[d] = piece
    out = {}
    for d, piece in phi.items():
        if d > 1:
            k = 1
            while (2 ** k - 1) % d:
                k += 1
            out[d] = (to_bits(piece), k)
    return out


def o_order2(d):
    """ord_d(2) for odd d > 1: the least k with d | 2^k - 1, by trying
    k = 1, 2, ... on the full powers of two."""
    k = 1
    while (2 ** k - 1) % d:
        k += 1
    return k


# -- split identities ----------------------------------------------------------

_X, _X1, _M1 = [0, 1], [1, 1], [1, 1, 1]


def o_multiplicity(a, d):
    """(cofactor, k) with a = d^k cofactor and d not dividing the cofactor."""
    k = 0
    while True:
        q, r = o_divmod(a, d)
        if r:
            return a, k
        a, k = q, k + 1


def _exponents_over(s, primes):
    """The exponents of primes whose powers multiply to s, or None when
    s is zero or has another factor."""
    if not s:
        return None
    exps = []
    for p in primes:
        s, k = o_multiplicity(s, p)
        exps.append(k)
    return tuple(exps) if s == [1] else None


def split_identity_solutions(max_exp):
    """Solutions of the five split identities, keyed by the labels of
    verify_split_identities: each left-hand side with exponents 1..max_exp
    whose sum has the right-hand shape, as its left-hand exponents followed
    by the right-hand ones, found by trial division in list arithmetic."""
    span = range(1, max_exp + 1)
    x1 = {a: o_pow(_X1, a) for a in span}
    m1 = {a: o_pow(_M1, a) for a in span}
    identities = (
        ("1 + (x^2+x+1)^a = x^b (x+1)^c", (_X, _X1),
         [((a,), o_add([1], m1[a])) for a in span]),
        ("(x+1)^a + (x^2+x+1)^b = x^c", (_X,),
         [((a, b), o_add(x1[a], m1[b])) for a in span for b in span]),
        ("(x+1)^a (x^2+x+1)^b = 1 + x^c", (_X,),
         [((a, b), o_add(o_mul(x1[a], m1[b]), [1])) for a in span for b in span]),
        ("(x+1)^a + (x+1)^b = x^c (x+1)^d", (_X, _X1),
         [((a, b), o_add(x1[a], x1[b])) for a in span for b in span if a < b]),
        ("1 + (x+1)^a = x^b (x^2+x+1)^c", (_X, _M1),
         [((a,), o_add([1], x1[a])) for a in span]),
    )
    out = {}
    for label, primes, sums in identities:
        out[label] = set()
        for params, s in sums:
            rhs = _exponents_over(s, primes)
            if rhs is not None:
                out[label].add(params + rhs)
    return out


# -- stage-3 free slots -------------------------------------------------------

# (a, b) of M3 = 1 + x^2 (x+1), M4 = 1 + x (x+1)^3 and M5 = 1 + x^3 (x+1),
# the Mersenne slots the sieve leaves free at stage 3.
FREE_SLOT_SHAPES = ((2, 1), (1, 3), (3, 1))


def free_slot_witness(need_a, need_b, ranges=(range(4), range(6), range(6))):
    """First (n3, n4, n5) from the ranges, by default n3 < 4 and n4, n5 < 6,
    n3 outermost, whose contribution sum (2^ni - 1) * (ai, bi) equals
    (need_a, need_b); None when there is none."""
    for n3 in ranges[0]:
        for n4 in ranges[1]:
            for n5 in ranges[2]:
                a = b = 0
                for k, (sa, sb) in zip((n3, n4, n5), FREE_SLOT_SHAPES):
                    a += (2**k - 1) * sa
                    b += (2**k - 1) * sb
                if a == need_a and b == need_b:
                    return n3, n4, n5
    return None


# -- the exponent calculus in closed form ---------------------------------------


def chi(w, t):
    """Indicator of the singleton {w}."""
    return 1 if t == w else 0


def prefix_exponents(n, u, m, v, n1, u1):
    """(gamma2, delta): the exponents of M2 and of S1..S8 in sigma of a
    candidate, from the 2-adic shapes of the exponents of x, x+1 and M1."""
    gamma2 = chi(7, u) * 2**n + chi(7, v) * 2**m + chi(7, u1) * 2**n1
    delta = (
        chi(15, u) * 2**n + chi(15, v) * 2**m + (chi(3, u1) + chi(15, u1)) * 2**n1,
        chi(7, u1) * 2**n1,
        chi(13, u) * 2**n,
        chi(9, u) * 2**n,
        chi(9, v) * 2**m,
        chi(13, v) * 2**m,
        chi(15, u1) * 2**n1,
        (chi(5, u1) + chi(15, u1)) * 2**n1,
    )
    return gamma2, delta


# The names of each slot's (t, s) in an ExponentTuple, in sigma.DOMAIN order.
_DOMAIN_NAMES = (("n", "u"), ("m", "v"), *((f"n{i}", f"u{i}") for i in range(1, 6)),
                 *((f"m{j}", f"v{j}") for j in range(1, 9)))


class ExponentTuple(NamedTuple):
    """2-adic shape of a candidate's exponents over the catalog.

    The candidate is x^a (x+1)^b * prod Mi^ci * prod Sj^dj with
    a = 2^n u - 1, b = 2^m v - 1, ci = 2^(ni) ui - 1 and
    dj = 2^(mj) vj - 1, all the u's and v's odd: the paper's record of
    a candidate, over the first five Mersenne and first eight
    2-Mersenne slots.  The package keeps the flat exponent vector
    (a, b, c1..c5, d1..d8) instead.
    """

    n: int
    u: int
    m: int
    v: int
    ni: tuple[int, int, int, int, int]
    ui: tuple[int, int, int, int, int]
    mj: tuple[int, int, int, int, int, int, int, int]
    vj: tuple[int, int, int, int, int, int, int, int]

    @property
    def a(self) -> int:
        return 2**self.n * self.u - 1

    @property
    def b(self) -> int:
        return 2**self.m * self.v - 1

    @property
    def c(self) -> tuple[int, ...]:
        return tuple(2**n * u - 1 for n, u in zip(self.ni, self.ui))

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(2**m * v - 1 for m, v in zip(self.mj, self.vj))

    def validate(self) -> None:
        """Check the search domain bounds, read from sigma.DOMAIN at call
        time; name the violated one."""
        values = zip((self.n, self.m, *self.ni, *self.mj),
                     (self.u, self.v, *self.ui, *self.vj))
        for names, pair, allowed in zip(_DOMAIN_NAMES, values, _sigma_layer.DOMAIN):
            for name, value, domain in zip(names, pair, allowed):
                if value not in domain:
                    shown = (f"{domain.start}..{domain.stop - 1}"
                             if isinstance(domain, range) else domain)
                    raise ValueError(
                        f"exponent tuple out of domain: {name} = {value} not in {shown}"
                    )

    @classmethod
    def from_parts(cls, n=0, u=1, m=0, v=1, ni=None, ui=None, mj=None, vj=None):
        return cls(n, u, m, v, tuple(ni or (0,) * 5), tuple(ui or (1,) * 5),
                   tuple(mj or (0,) * 8), tuple(vj or (1,) * 8))


class SigmaExponents(NamedTuple):
    """Exponents of x, x+1 and each catalog prime in sigma(candidate)."""

    alpha: int
    beta: int
    gamma: tuple[int, int, int, int, int]
    delta: tuple[int, int, int, int, int, int, int, int]


# Shape parameters (a, b) of M1..M5 and S1..S8, in ExponentTuple order.
_SLOT_AB = tuple(MERSENNE_AB[i] for i in range(1, 6)) + tuple(
    TWO_MERSENNE_ABN[j][:2] for j in range(1, 9)
)


def linear_exponents(n, m, ni, mj):
    """(alpha, beta): the exponents of x and x+1 in sigma of a candidate,
    from the 2-adic valuations of x, x+1, M1..M5 and S1..S8."""
    alpha, beta = 2**m - 1, 2**n - 1
    for k, (a, b) in zip((*ni, *mj), _SLOT_AB):
        alpha += (2**k - 1) * a
        beta += (2**k - 1) * b
    return alpha, beta


def m1_exponent(n, u, m, v, ni, ui, mj):
    """gamma1: the exponent of M1 in sigma of a candidate."""
    # Each indicator sum compares one value against disjoint
    # singletons, so it is 0 or 1.
    xi1 = chi(3, u) + chi(9, u) + chi(15, u)
    xi2 = chi(3, v) + chi(9, v) + chi(15, v)
    gamma1 = sum(
        (2**k - 1) * TWO_MERSENNE_ABN[j][2] for j, k in enumerate(mj, start=1)
    )
    return (
        gamma1
        + xi1 * 2**n
        + xi2 * 2**m
        + chi(3, ui[1]) * 2 ** ni[1]
        + chi(3, ui[2]) * 2 ** ni[2]
    )


def closed_form_exponents(t):
    """Every exponent of sigma of the candidate the ExponentTuple t
    describes, by the closed forms, unvalidated.  delta7 tracks chi_15
    alone and delta8 the chi_5 + chi_15 sum, as factorization forces.
    Outside the domain each S1..S8 slot adds only its linear part
    (1 + Sj)^(2^mj - 1)."""
    n, u, m, v = t.n, t.u, t.m, t.v
    n1, n2, n3 = t.ni[0], t.ni[1], t.ni[2]
    u1, u2, u3 = t.ui[0], t.ui[1], t.ui[2]
    m1, v1 = t.mj[0], t.vj[0]
    # The indicator sums gamma4 and gamma5 share, each 0 or 1.
    xi3 = chi(5, u) + chi(15, u)
    xi4 = chi(5, v) + chi(15, v)
    alpha, beta = linear_exponents(n, m, t.ni, t.mj)
    gamma1 = m1_exponent(n, u, m, v, t.ni, t.ui, t.mj)
    gamma2, delta = prefix_exponents(n, u, m, v, n1, u1)
    gamma4 = (
        xi3 * 2**n
        + chi(15, v) * 2**m
        + chi(15, u1) * 2**n1
        + chi(3, u3) * 2**n3
        + chi(3, v1) * 2**m1
    )
    gamma5 = (
        chi(15, u) * 2**n
        + xi4 * 2**m
        + chi(15, u1) * 2**n1
        + chi(3, u2) * 2**n2
        + chi(3, v1) * 2**m1
    )
    return SigmaExponents(alpha, beta, (gamma1, gamma2, gamma2, gamma4, gamma5), delta)


# -- sieve stages, one formula evaluation per row ------------------------------

# 2^m v - 1 for m <= 3 and v in {1, 3}: the exponents the M2 slot and
# the first divisor-sum slot can take.
REPRESENTABLE = (0, 1, 2, 3, 5, 7, 11, 23)

NAIVE_STAGE2_RULES = {
    "uniform": lambda tail: all(x in REPRESENTABLE for x in tail),
    "strict": lambda tail: all(x in (0, 1) for x in tail),
}


def two_adic_shape(e):
    """(t, s) with e + 1 = 2^t s and s odd, by repeated halving."""
    t, s = 0, e + 1
    while s % 2 == 0:
        t, s = t + 1, s // 2
    return t, s


def naive_stage1_rows():
    """Stage 1 with prefix_exponents evaluated for every (prefix, n1, u1)."""
    rows = []
    for n, u, m, v in product(range(5), US, range(5), US):
        a = (u << n) - 1
        if a < 1 or a > (v << m) - 1:
            continue
        for n1 in range(5):
            for u1 in U1S:
                g, delta = prefix_exponents(n, u, m, v, n1, u1)
                if g in REPRESENTABLE:
                    rows.append((n, u, m, v, n1, u1) + two_adic_shape(g) + delta)
    return rows


def naive_stage2_rows(rows1, rule):
    """Stage 2 with the rule NAIVE_STAGE2_RULES names tested slot by slot."""
    accept = NAIVE_STAGE2_RULES[rule]
    return [
        r + two_adic_shape(r[8])
        for r in rows1
        if r[8] in REPRESENTABLE and accept(r[9:16])
    ]


def naive_stage3_rows(rows):
    """Stage 3 with linear_exponents evaluated for every row and the
    witness taken from free_slot_witness; same output tuples."""
    witnesses = {}
    out = []
    for row in rows:
        n, u, m, v, n1, u1, n2, u2 = row[:8]
        mj = [two_adic_shape(x)[0] for x in row[8:16]]
        alpha, beta = linear_exponents(n, m, (n1, n2, 0, 0, 0), mj)
        a, b = (u << n) - 1, (v << m) - 1
        need = (a - alpha, b - beta)
        if need not in witnesses:
            witnesses[need] = free_slot_witness(*need)
        witness = witnesses[need]
        if witness is None:
            continue
        _n3, n4, n5 = witness
        gamma1 = m1_exponent(n, u, m, v, (n1, n2, 0, 0, 0), (u1, u2, 1, 1, 1), mj)
        c2 = (u2 << n2) - 1
        c = (gamma1, c2, c2, (1 << n4) - 1, (1 << n5) - 1)
        out.append((assemble(a, b, c, row[8:16]).bits, row, witness, c))
    return out
