"""Irreducibility, square-freeness and factorization over GF(2).

The complete factoring pipeline is classical: peel off square roots
while the derivative vanishes, split into square-free parts, separate
those by factor degree with gcd(x^(2^k) - x, f), then break same-degree
products with random trace polynomials.  The randomness is drawn from a
generator seeded by the input bits, so every run factors a given
polynomial identically.  A factorization is a FactorMap, the sorted
tuple of its (prime, exponent) pairs.

The time goes into reducing, multiplying and taking gcds modulo a
fixed polynomial, in the distinct-degree walk and the trace map; each
of those loops works through one gf2poly._reducer table built for its
modulus.  The distinct-degree gcds are blocked: one gcd decides a run
of degrees, whose product the walk takes with the reducer's fused
modular product, and a run that holds a factor is split by the same
walk, one degree at a time.  The walk also tests irreducibility: a
degree-d input is prime exactly when it has no prime factor of degree
at most d/2, repeated or not, so its first find is the whole input.
Most reducible inputs have a prime of degree 1 to 4 and are rejected
by the first block, after 4 squarings; a prime costs d/2 of them.  A
caller that knows a step s dividing every prime
factor's degree (each cyclotomic piece sigma._divisor_sum_factors
factors) saves gcds: the walk squares through every degree as before
but multiplies in and tests the multiples of s only, and a block
without one takes no gcd.  The plain walk is the same loop with s = 1.

`factor_over_family` is deliberately weaker than `factor_full`: it only
divides by members of a supplied family and reports failure instead of
falling back to general factoring.  Several classification routines
depend on that distinction.  Each family is checked once and its
product kept; an input is screened by dividing out its gcd with that
product until 1 (it splits) or a gcd of 1 (it does not), and only the
inputs that split are divided member by member for their exponents.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .gf2poly import (
    Poly,
    _degree,
    _derivative,
    _divmod,
    _gcd,
    _product,
    _reducer,
    _sqrt,
    _square,
    _strip,
)

__all__ = [
    "FactorMap",
    "factor_full",
    "factor_over_family",
    "is_irreducible",
]


# Consecutive degrees k whose gcds _distinct_degree folds into one, and
# the degree of f from which a block pays; irreducibility tests and
# factoring share both.  Timed per call on random square-free inputs,
# blocks of 16 cost 1.05-1.2x one degree per block at degree 28-40 and
# win from 44 (0.94-0.99x at 44-48, 0.85-0.92x at 56, 0.69x at 250,
# 0.43-0.48x at 500-1,000).  Blocks of 8 match or beat 16 up to degree
# 250 (0.55-0.93x) but lose at 500-1,000 (0.55-0.56x).
# Blocks multiply through the fused product, which _reducer builds
# from gf2poly._REDUCE_WIDE_MIN_DEGREE <= _DDF_BLOCK_MIN_DEGREE up.
_DDF_BLOCK = 16
_DDF_BLOCK_MIN_DEGREE = 44
# Most inputs have a prime of degree 1 to 4, where an irreducibility
# test ends: a narrow first block took the bench's degree-128 tests
# from 6,000 to 10,400 a second, factoring at degree 250-1,000 level.
_DDF_FIRST_BLOCK = 4


# Bounded so long sweeps cannot grow it without limit; the working set
# of the exploratory sweeps is under a thousand entries.
@lru_cache(maxsize=4096)
def _is_irreducible_bits(a):
    # a of degree d is prime exactly when the walk finds no prime factor
    # of degree at most d/2, a repeated one included; its first output
    # is then (a, d), and any earlier find has a degree k <= d/2.
    return next(_distinct_degree(a)) == (a, _degree(a))


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over GF(2); constant input is an error."""
    if _degree(p.bits) < 1:
        raise ValueError("irreducibility is a question for degree >= 1")
    return _is_irreducible_bits(p.bits)


class FactorMap(tuple):
    """A factorization as the tuple of its (irreducible, exponent) pairs.

    Pairs are kept sorted by (degree, little-endian coefficient
    value), which for the integer packing is plain integer order.  The
    product over pairs reconstructs the factored polynomial.  Like the
    NamedTuple records, a FactorMap equals the plain tuple of its pairs
    and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, pairs):
        merged = {}
        for prime, exp in pairs:
            if not isinstance(prime, Poly):
                prime = Poly(prime)
            if exp < 1:
                raise ValueError("factor exponents must be positive")
            _, total = merged.get(prime.bits, (prime, 0))
            merged[prime.bits] = prime, total + exp
        return super().__new__(cls, (merged[bits] for bits in sorted(merged)))

    def __setattr__(self, name, value):
        raise AttributeError("FactorMap is immutable")

    @property
    def entries(self):
        """The pairs as a plain tuple."""
        return tuple(self)

    def __repr__(self):
        inner = ", ".join(f"{p.text()}:{e}" for p, e in self)
        return f"FactorMap({{{inner}}})"

    def exponent(self, prime: Poly) -> int:
        """Exponent of a given prime, 0 when absent."""
        for p, e in self:
            if p.bits == prime.bits:
                return e
        return 0

    def product(self) -> Poly:
        return Poly(_product((p.bits, e) for p, e in self))

    def factors_json(self) -> list:
        return [{"prime": p.text(), "exp": e} for p, e in self]

    def to_json(self) -> dict:
        return {"poly": self.product().text(), "factors": self.factors_json()}

    def text(self) -> str:
        if not self:
            return "1"
        parts = []
        for p, e in self:
            body = p.text()
            if len(self) > 1 or e > 1:
                body = f"({body})"
            parts.append(body if e == 1 else f"{body}^{e}")
        return " * ".join(parts)


def _squarefree_parts(a):
    """Square-free decomposition: dict {square-free factor bits: exponent}."""
    out = {}
    mult = 1
    while a != 1:
        d = _derivative(a)
        if d == 0:
            # a is a perfect square; halve it and double multiplicities.
            a, mult = _sqrt(a), 2 * mult
            continue
        g = _gcd(a, d)
        w = _divmod(a, g)[0]
        i = 1
        while w != 1:
            y = _gcd(w, g)
            z = _divmod(w, y)[0]
            if z != 1:
                out[z] = out.get(z, 0) + i * mult
            w = y
            g = _divmod(g, y)[0]
            i += 1
        # What is left is a perfect square, or 1.
        a = g
    return out


def _distinct_degree(f, step=1, h=2, k=0, last=None):
    """Yield (product of the degree-k primes of square-free f, k), k up.

    h_k = x^(2^k) mod f, and gcd(h_k - x, f) is the product of the
    primes of f whose degree divides k; taking k = 1, 2, ... in turn
    and dividing each gcd out of f leaves exactly the degree-k primes
    in the k-th gcd.  The walk stops once 2k exceeds deg f: what is
    left of f is then 1 or a single prime.

    One gcd per k costs more than the squarings themselves, so the
    gcds are blocked (von zur Gathen and Shoup): the values h_k - x of
    _DDF_BLOCK consecutive k (_DDF_FIRST_BLOCK in the first block) are
    multiplied together modulo f by the reducer's fused product, and
    one gcd of that product with f, found, decides the block.  When
    found is 1, no prime of f has its degree in the block.  Otherwise
    the walk splits found by running itself on it, then divides it out
    of f.  While deg f is below _DDF_BLOCK_MIN_DEGREE a block is one k,
    and the walk is the plain one-gcd-per-degree loop, which never
    multiplies.  Each block reads its size and the walk's stop from
    what is left of f then.

    The caller may promise that every prime of f has a degree divisible
    by step.  The walk still squares through every k, but only the
    multiples of step enter a block's product, and the walk stops once
    twice the next multiple exceeds deg f.  A block's product starts at
    1, and one still 1 at the block's end, as in a block without a
    multiple of step, takes no gcd, for gcd(1, f) = 1.  Step 1, the
    default, makes every k a multiple.

    Only the walk passes h, k and last, to start a split: the block's
    first h_k modulo the walk's f, which found divides; the degree k
    before the block; and the block's last degree a prime may have.  A
    split takes one degree per block and stops by last - step, as what
    is left then has only primes of degree last; so the split of a
    one-degree block's find yields it at once, with no gcd.
    """
    reduce = None  # built at the first block, and after each division
    while True:
        d = _degree(f)
        top = d // 2 // step * step  # past it, f is 1 or one prime
        if last is not None:
            top = min(top, last - step)
        if k >= top:
            break
        if reduce is None:
            reduce, mulmod = _reducer(f)
            h = reduce(h)
        first, h_first = k + 1, h
        wide = last is None and d >= _DDF_BLOCK_MIN_DEGREE
        k = min(k + ((_DDF_BLOCK if k else _DDF_FIRST_BLOCK) if wide else 1), top)
        prod = 1  # this block: degrees first..k
        for j in range(first, k + 1):
            h = reduce(_square(h))
            if j % step == 0:  # 1 * (h - x) needs no product or reduction
                prod = h ^ 2 if prod == 1 else mulmod(prod, h ^ 2)
        if prod == 1:
            continue  # gcd(1, f) = 1
        found = _gcd(prod, f)
        if found == 1:
            continue
        yield from _distinct_degree(found, step, h_first, first - 1, k - k % step)
        f = _divmod(f, found)[0]
        reduce = None
    if f != 1:
        yield f, d if last is None else min(d, last)


# Random splits _equal_degree tries on one product.  A product of two or
# more degree-k primes survives a try with probability at most 1/2, so
# only a product that breaks the degree promise of factor_full's
# degree_step (a prime of another degree, which no try splits off)
# comes near the bound; it raises instead of looping forever.
_SPLIT_TRIES = 64


def _equal_degree(g, k, rng):
    """Split g, a product of distinct degree-k primes, into those primes."""
    d = _degree(g)
    if d == k:
        return [g]
    # Trace map into GF(2): T(r) = r + r^2 + ... + r^(2^(k-1)) takes a
    # value in {0,1} modulo each prime factor, so gcd(T(r), g) cuts g
    # roughly in half for random r.
    reduce = _reducer(g)[0]
    for _ in range(_SPLIT_TRIES):
        r = rng.getrandbits(d)
        t = 0
        s = reduce(r)
        for _ in range(k):
            t ^= s
            s = reduce(_square(s))
        split = _gcd(t, g)
        if split not in (1, g):
            left = split
            right = _divmod(g, split)[0]
            return _equal_degree(left, k, rng) + _equal_degree(right, k, rng)
    raise ValueError(f"no split of a degree-{d} product into degree-{k} primes")


def factor_full(p: Poly, degree_step=1) -> FactorMap:
    """Complete factorization of a nonzero polynomial.

    degree_step is the caller's promise that every prime factor of p
    has a degree divisible by it (sigma._phi_factors gives ord_d(2) for
    each piece of Phi_d(q) in a divisor sum); the distinct-degree walk
    then looks only at those degrees.  A broken promise gives a wrong
    factorization or raises ValueError.
    """
    a = p.bits
    if a == 0:
        raise ValueError("cannot factor the zero polynomial")
    if degree_step < 1:
        raise ValueError("degree_step must be at least 1")
    if a == 1:
        return FactorMap([])
    rng = random.Random(a)
    pairs = []
    for part, mult in _squarefree_parts(a).items():
        for prod, k in _distinct_degree(part, degree_step):
            for prime in _equal_degree(prod, k, rng):
                pairs.append((prime, mult))
    return FactorMap(pairs)


# Bounded: callers use a handful of fixed families (the 28 odd primes,
# an admissibility family and that family with x and x+1).
@lru_cache(maxsize=32)
def _family(bits):
    """(sorted members, product) of a family given as member bits in
    the caller's order, after the checks factor_over_family documents."""
    seen = set()
    for q in bits:
        if not is_irreducible(Poly(q)):
            raise ValueError(f"family member {Poly(q).text()} is not irreducible")
        if q in seen:
            raise ValueError(f"family member {Poly(q).text()} listed twice")
        seen.add(q)
    members = tuple(sorted(bits))
    return members, _product((q, 1) for q in members)


def factor_over_family(p: Poly, family) -> FactorMap | None:
    """Factor p using only the given irreducibles, or report failure.

    Every member must be irreducible and listed once; a constant member
    raises as is_irreducible does.  The family is checked once and its
    product kept.  p splits over the family exactly when dividing out
    gcd(p, product) again and again reaches 1, so a p with a prime
    outside the family costs a few gcds and returns None.  Only a p
    that splits is divided by each member in canonical order, to read
    off the exponents.  Never invokes general factoring.
    """
    members, product = _family(
        tuple(q.bits if isinstance(q, Poly) else Poly(q).bits for q in family)
    )
    a = p.bits
    if a == 0:
        raise ValueError("cannot factor the zero polynomial")
    r = a
    while r != 1:
        g = _gcd(r, product)
        if g == 1:
            return None
        r = _divmod(r, g)[0]
    pairs = []
    for q in members:
        a, e = _strip(a, q)
        if e:
            pairs.append((q, e))
    return FactorMap(pairs)
