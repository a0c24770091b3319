"""The divisor-sum function and the exponent calculus behind it.

For an irreducible P, sigma(P^e) is the geometric sum 1 + P + ... + P^e.
Writing e = 2^t * s - 1 with s odd, and 1 + P = Phi_1(P) in
characteristic 2, gives Canaday's factored form

    sigma(P^e) = (1 + P)^(2^t - 1) * prod_{d | s, d > 1} Phi_d(P)^(2^t),

which the search layer leans on: it turns divisor sums of huge prime
powers into data about small ones.  It is the one evaluation route,
_sigma_pp: Horner over the odd part s, then t steps of squaring and
multiplying by 1 + P.  It is the one factoring route too,
_divisor_sum_factors: each Phi_d(P) once per bar pair {P, bar P} and
d, piece by piece; bar is a ring automorphism that keeps degrees, so
Phi_d(bar P) = bar Phi_d(P) prime by prime.

The second half of the module is the exponent calculus.  A candidate
perfect polynomial is an exponent vector over _SLOT_PRIMES, the one
slot layout: x, x+1, M1..M5 and S1..S8.  sigma is multiplicative, so
the exponent of each slot prime in sigma of a candidate is a sum of
one slot term per prime power; slot_term computes each term once from
_divisor_sum_factors, under the paper's rule for odd parts outside
the domain, and sigma_exponents sums them.  The sieve then works on
bare ints: a few dozen small factorizations, cached, instead of one
per candidate.  The shape parameters of the Mersenne and 2-Mersenne
primes live here too, and with them DOMAIN, the one table of the
search domain: the (t range, s values) of each slot, which
slot_term's rule reads and the sieve in search iterates.  Nothing
here needs the catalog layer above.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .factorize import FactorMap, factor_full, is_irreducible
from .gf2poly import Poly, X, X1, _bar, _divmod, _gcd, _linear, _mul, _pow, _product, _square

__all__ = [
    "assemble",
    "is_indecomposable_perfect",
    "is_perfect",
    "mersenne",
    "sigma",
    "sigma_exponents",
    "sigma_of_factor_map",
    "sigma_prime_power",
    "trivial_perfect",
    "two_mersenne",
]

US = (1, 3, 5, 7, 9, 13, 15)
U1S = (1, 3, 5, 7, 15)
U23S = (1, 3)


def decompose_exponent(e: int) -> tuple[int, int]:
    """Write e = 2^t * s - 1 with s odd; return (t, s).

    This is the 2-adic valuation of e + 1 and its odd part, computed
    with bit arithmetic so it stays exact for any size.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    k = e + 1
    t = (k & -k).bit_length() - 1
    return t, k >> t


# Largest exponent the checked prime-power sums accept; the library
# itself asks for at most 256 (is_admissible at MAX_H_BUDGET).
MAX_PRIME_POWER_EXP = 1 << 14

# Largest degree deg(p) * e of sigma(p^e) they accept.  The work grows
# with the square of that degree, so a bound on e alone leaves minutes
# of work for a high-degree p.  This one holds every catalog prime up
# to MAX_PRIME_POWER_EXP (S3, degree 12: 196,608, about 1.4 s), far
# above the 480 the tests and benchmark ask for.
MAX_SIGMA_DEGREE = 1 << 18


def _check_prime_power(p: Poly, e: int) -> None:
    if not 0 <= e <= MAX_PRIME_POWER_EXP:
        raise ValueError(f"exponent must be between 0 and {MAX_PRIME_POWER_EXP}")
    if (p.bits.bit_length() - 1) * e > MAX_SIGMA_DEGREE:
        raise ValueError(f"deg(p) * e must be at most {MAX_SIGMA_DEGREE}")
    if not is_irreducible(p):
        raise ValueError(f"{p.text()} is not irreducible")


def _sigma_pp(p: int, e: int) -> int:
    """sigma(p^e) on bits, unchecked: Horner over sigma(p^(s-1)), then
    t steps of sigma(p^(2k+1)) = (1 + p) sigma(p^k)^2."""
    t, s = decompose_exponent(e)
    acc = 1
    for _ in range(s - 1):
        acc = _mul(acc, p) ^ 1
    for _ in range(t):
        acc = _mul(_square(acc), p ^ 1)
    return acc


def sigma_prime_power(p: Poly, e: int) -> Poly:
    """sigma(p^e) = 1 + p + ... + p^e for irreducible p."""
    _check_prime_power(p, e)
    return Poly(_sigma_pp(p.bits, e))


# Holds every d = 2h + 1 of an explicit budget, h <= catalog.MAX_H_BUDGET =
# 128; the catalog's degree rule reaches d = 185, past the 41 entries below.
@lru_cache(maxsize=128)
def _order2(d):
    """ord_d(2), the least k with d | 2^k - 1, for odd d >= 1."""
    order, r = 1, 2 % d
    while r > 1:
        order, r = order + 1, 2 * r % d
    return order


# d = 1 for the slot terms, and the odd d in 3..81 dividing some 2h + 1,
# h <= search.MAX_SCAN_H = 40, for the conjecture scans: 41 values in all.
@lru_cache(maxsize=41)
def _cyclotomic_factors(d):
    """(ord_d(2), the prime factors of Phi_d(Y) over GF(2) on bits), for
    odd d >= 1.  Y^d - 1 is square-free and the product of Phi_e(Y) over
    e | d, so dividing out its gcd with Y^e - 1 for each proper divisor
    e leaves Phi_d(Y); each of its primes has degree ord_d(2)."""
    phi = (1 << d) | 1
    for e in range(1, d):
        if d % e == 0:
            phi = _divmod(phi, _gcd(phi, (1 << e) | 1))[0]
    return _order2(d), tuple(q.bits for q, _ in factor_full(Poly(phi), _order2(d)))


def _cyclotomic_pieces(p: int, d: int) -> tuple[int, tuple[int, ...]]:
    """(ord_d(2), the pieces R_i(p) of Phi_d(p) on bits, one per prime
    factor R_i of Phi_d(Y), each by Horner), for odd d >= 1 and any p.

    For even e, n = e + 1 is odd and sigma(P^e) = (P^n - 1) / (P - 1)
    is the product of Phi_d(P) over d | n, d > 1 (Canaday's
    decomposition), so of all these pieces.  They are pairwise coprime:
    a common root beta would make P(beta) a root of two of the
    distinct primes of the square-free Y^n - 1.  A root beta of a prime
    of R_i(P) makes P(beta) a root of R_i, a primitive d-th root of
    unity; it lies in GF(2)(beta) and generates GF(2^ord_d(2)), so
    ord_d(2) divides the prime's degree [GF(2)(beta) : GF(2)], the
    degree step factor_full may be promised.  Nothing here asks P to
    be irreducible.  (Lidl and Niederreiter, Finite Fields, Thm 2.47.)
    """
    order, factors = _cyclotomic_factors(d)
    pieces = []
    for r in factors:
        acc = 0
        for i in range(order, -1, -1):
            acc = _mul(acc, p) ^ (r >> i & 1)
        pieces.append(acc)
    return order, tuple(pieces)


# Keyed by the smaller of each bar pair.  Shared within one call (a scan's
# (base, d) over h, the slot table's (q, d) over t: at most 40 and 22 keys),
# not across calls: conjecture M1..M13 --hmax 20 asks 140 keys (260 unshared),
# which a sweep repeating the verb would memoize.
@lru_cache(maxsize=64)
def _phi_factors(p, d):
    """The (prime bits, exponent) pairs of Phi_d(p), odd d >= 1: each
    piece of _cyclotomic_pieces factored with its step ord_d(2)."""
    step, pieces = _cyclotomic_pieces(p, d)
    return tuple((r.bits, k) for w in pieces for r, k in factor_full(Poly(w), step))


def _divisor_sum_factors(q: int, e: int) -> FactorMap:
    """The factorization of sigma(q^e) = 1 + q + ... + q^e, q on bits,
    by Canaday's form above, reading the larger of q and bar q through
    bar; Phi_1(q) drops out when t = 0."""
    t, s = decompose_exponent(e)
    key = min(q, _bar(q))
    return FactorMap(
        (r if key == q else _bar(r), k << t if d > 1 else k * ((1 << t) - 1))
        for d in range(1 if t else 3, s + 1, 2) if s % d == 0
        for r, k in _phi_factors(key, d)
    )


def sigma(a: Poly) -> Poly:
    """Sum of all divisors; multiplicative over the factorization."""
    if a.bits == 0:
        raise ValueError("sigma of the zero polynomial")
    return sigma_of_factor_map(factor_full(a))


def sigma_of_factor_map(fm: FactorMap) -> Poly:
    """Sum of divisors straight from a known factorization."""
    return Poly(_sigma_of_powers((prime.bits, exp) for prime, exp in fm))


def _sigma_of_powers(powers) -> int:
    """sigma on bits of the product of the (prime bits, exponent) pairs
    powers, distinct primes: the product of their divisor sums."""
    bits = 1
    for q, e in powers:
        bits = _mul(bits, _sigma_pp(q, e))
    return bits


def is_perfect(a: Poly) -> bool:
    """True when sigma(a) + a = 0."""
    if a.bits == 0:
        raise ValueError("perfection of the zero polynomial")
    return sigma(a).bits == a.bits


MAX_OMEGA_FOR_DECOMPOSITION = 30


def is_indecomposable_perfect(a: Poly) -> bool:
    """True when no coprime bipartition of a splits it into two perfects.

    Requires a perfect input.  Decides by walking every bipartition of
    the prime-power factors; both sides of a bipartition are coprime
    and nonconstant by construction, so each check is a plain sigma
    fixed-point test on the side's known factorization.
    """
    entries = factor_full(a).entries
    sigmas = [_sigma_pp(p.bits, e) for p, e in entries]
    if reduce(_mul, sigmas, 1) != a.bits:
        raise ValueError("input is not perfect")
    w = len(entries)
    if w > MAX_OMEGA_FOR_DECOMPOSITION:
        raise ValueError(f"too many distinct factors ({w}) for bipartition search")
    if w < 2:
        return True
    powers = [_pow(p.bits, e) for p, e in entries]
    # Fix factor 0 on the left side so each unordered bipartition is
    # visited once; the last mask would leave the right side empty, and
    # mask 0 would put factor 0 alone on the left, where it is never
    # perfect: sigma(q^e) = 1 mod q.  sigma(L) sigma(R) = sigma(a) = a
    # = L R, so the right side is perfect exactly when the left side is,
    # and only the left is tested.
    for mask in range(1, (1 << (w - 1)) - 1):
        left = sleft = 1
        for i in range(w):
            if i == 0 or (mask >> (i - 1)) & 1:
                left = _mul(left, powers[i])
                sleft = _mul(sleft, sigmas[i])
        if left == sleft:
            return False
    return True


# ---------------------------------------------------------------------------
# symbolic exponent calculus

# Shape parameters (a, b) with Mi = 1 + x^a (x+1)^b.
MERSENNE_AB = {
    1: (1, 1),
    2: (1, 2),
    3: (2, 1),
    4: (1, 3),
    5: (3, 1),
    6: (3, 2),
    7: (3, 4),
    8: (6, 1),
    9: (2, 3),
    10: (4, 3),
    11: (1, 6),
    12: (1, 8),
    13: (8, 1),
}

# Shape parameters (a, b, c) with Sj = 1 + x^a (x+1)^b M1^c.
TWO_MERSENNE_ABN = {
    1: (1, 1, 1),
    2: (2, 2, 1),
    3: (1, 3, 4),
    4: (3, 1, 1),
    5: (1, 3, 1),
    6: (3, 1, 4),
    7: (1, 1, 3),
    8: (3, 3, 1),
    9: (1, 1, 5),
    10: (4, 1, 1),
    11: (1, 2, 1),
    12: (2, 1, 2),
    13: (1, 4, 1),
    14: (2, 1, 1),
    15: (1, 2, 2),
}


# M1 = x^2 + x + 1, on bits.
_M1_BITS = 0b111


def _shape(a: int, b: int, c: int = 0) -> Poly:
    """1 + x^a (x+1)^b M1^c."""
    return Poly(1 ^ _mul(_linear(a, b), _pow(_M1_BITS, c)))


def mersenne(i: int) -> Poly:
    return _shape(*MERSENNE_AB[i])


def two_mersenne(j: int) -> Poly:
    return _shape(*TWO_MERSENNE_ABN[j])


# The search domain (Gallardo and Rahavandrainy), one (t range, s values)
# pair per slot of _SLOT_PRIMES, x, x+1, M1..M5, S1..S8: the slot's
# exponent is 2^t s - 1.
DOMAIN = (
    (range(5), US), (range(5), US),
    (range(5), U1S), (range(4), U23S), (range(4), U23S),
    (range(6), (1,)), (range(6), (1,)),
    (range(4), U23S), *((range(2), (1,)),) * 7,
)

# The primes of a candidate's exponent vector (a, b, c1..c5, d1..d8), on
# bits: x, x+1, M1..M5, S1..S8.
_SLOT_PRIMES = (X.bits, X1.bits, *(mersenne(i).bits for i in range(1, 6)),
                *(two_mersenne(j).bits for j in range(1, 9)))


# The domain's 145 (slot, exponent) pairs and 42 more S2..S8 ones stage 2 admits.
@lru_cache(maxsize=256)
def slot_term(k: int, e: int) -> tuple[int, ...]:
    """The exponent vector over _SLOT_PRIMES of sigma(q^e), q the prime
    of slot k, under the paper's rule.

    With e = 2^t s - 1, sigma(q^e) = (1 + q)^(2^t - 1) sigma(q^(s-1))^(2^t)
    (Canaday).  When s is not among the values DOMAIN gives slot k, the
    rule keeps only (1 + q)^(2^t - 1), whose primes are x, x+1 and, for
    S1..S8, M1.  Raises ValueError when a prime outside the 15 slots
    divides what is kept.
    """
    t, s = decompose_exponent(e)
    q = _SLOT_PRIMES[k]
    kept = e if s in DOMAIN[k][1] else (1 << t) - 1
    exps = {p.bits: n for p, n in _divisor_sum_factors(q, kept)}
    if not exps.keys() <= set(_SLOT_PRIMES):
        raise ValueError(f"sigma(({Poly(q).text()})^{e}) has a prime outside the slots")
    return tuple(exps.get(b, 0) for b in _SLOT_PRIMES)


def sigma_exponents(pairs, components) -> tuple[int, ...]:
    """The given components of the summed slot terms of the (slot,
    exponent) pairs, one pair per slot: those exponents in sigma of the
    product of the pairs' prime powers.  The sieve's one sum of terms."""
    terms = [slot_term(k, e) for k, e in pairs]
    return tuple(sum(term[i] for term in terms) for i in components)


def assemble(a: int, b: int, c: tuple, d: tuple) -> Poly:
    """Materialize the candidate x^a (x+1)^b prod Mi^ci prod Sj^dj from
    the exponents a, b, c = (c1..c5) and d = (d1..d8)."""
    return Poly(_mul(_linear(a, b), _product(zip(_SLOT_PRIMES[2:], (*c, *d)))))


def _sigma_of_vector(exps):
    """sigma on bits of the candidate with exponent vector exps."""
    return _sigma_of_powers((q, e) for q, e in zip(_SLOT_PRIMES, exps) if e)


def trivial_perfect(n: int) -> Poly:
    """The splitting perfect x^(2^n - 1) (x+1)^(2^n - 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    e = 2**n - 1
    return Poly(_linear(e, e))

