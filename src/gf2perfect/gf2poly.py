"""Dense arithmetic for polynomials over the two-element field.

A polynomial is stored as a nonnegative Python integer: bit i of the
integer is the coefficient of x^i, so the constant term sits in bit 0
and the integer 0b111 = 7 is x^2 + x + 1.  With this little-endian
packing, addition is XOR, squaring spreads the bits apart, the
valuation at x is a trailing-zero count and the reciprocal is a plain
bit reversal.

The public type is the immutable :class:`Poly`.  Raw-integer helpers
(prefixed with an underscore) carry the hot loops; they are shared by
the factoring and search layers, which sometimes work on bare ints to
avoid wrapper churn.  They run in C-level big-int and bytes work, not
Python loops over bits (after Brent, Gaudry, Thome and Zimmermann,
"Faster Multiplication in GF(2)[x]", 2008): squaring, its inverse and
bit reversal go through 256-entry byte tables (bytes.translate), and
_gcd is Euclid with each remainder taken by inline shift-XOR steps.
_reducer serves repeated work modulo one f, _mod the one-off
remainder; from degree 44 up its table of multiples of f also drives a
fused modular product, _mul's loop reduced after every byte.
_pow and _product build powers and products of prime powers, and
_strip divides a prime out as often as it goes.
Poly.text selects its terms with compress from a list of term
strings, extended on first need up to a cap of 4,097 entries (about
0.25 MB); higher exponents are formatted per call.

Two structural maps beyond ring arithmetic appear throughout the
package: ``bar`` substitutes x by x+1 (an involutive automorphism) and
``star`` reverses the coefficient string (the reciprocal polynomial).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count

__all__ = [
    "ONE",
    "Poly",
    "PolyParseError",
    "X",
    "X1",
    "bar",
    "derivative",
    "gcd",
    "is_even",
    "is_odd",
    "star",
]

NEG_INF = float("-inf")

# Largest k that Poly.parse accepts in a term x^k (7 decimal digits).
# The packed form of x^k takes k bits, so this bounds what a short
# string can allocate.
MAX_PARSE_EXPONENT = 1 << 20


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the bad offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# raw-integer kernels


def _degree(a):
    return a.bit_length() - 1 if a else NEG_INF


# Below this many bits in the shorter operand the shift-XOR loop is
# faster than the windowed product, whose 16-entry table does not pay
# for itself: against a 64- to 1,000-bit operand the table costs
# 1.24-1.59x the loop at 8-10 bits and 1.06-1.09x at 14, then
# 0.90-0.99x at 16 and 0.67-0.91x at 18-24 bits.
_MUL_WINDOW_MIN = 16


def _nibbles(a):
    """The 16 multiples of a by every polynomial of degree below 4."""
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a6, a12 = a2 ^ a, a4 ^ a2, a8 ^ a4
    return [0, a, a2, a3, a4, a4 ^ a, a6, a6 ^ a,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3]


def _mul(a, b):
    # Carry-less product.  A short operand is added bit by bit
    # (shift-XOR); otherwise the shorter operand is read a byte, that
    # is two 4-bit windows, at a time, Horner fashion, against the
    # _nibbles table of the longer one.
    # The smaller int is never the longer operand, and one comparison
    # costs less than two bit_length calls (0.05-0.1 us of a 0.2-0.8 us
    # product below 16 bits).
    if a < b:
        a, b = b, a
    if b.bit_length() < _MUL_WINDOW_MIN:
        c = 0
        while b:
            if b & 1:
                c ^= a
            a <<= 1
            b >>= 1
        return c
    table = _nibbles(a)
    c = 0
    for byte in b.to_bytes((b.bit_length() + 7) >> 3, "big"):
        c = (c << 8) ^ (table[byte >> 4] << 4) ^ table[byte & 15]
    return c


def _divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.bit_length()
    q = 0
    m = a.bit_length()
    while m >= n:
        shift = m - n
        a ^= b << shift
        q |= 1 << shift
        m = a.bit_length()
    return q, a


def _mod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.bit_length()
    m = a.bit_length()
    while m >= n:
        a ^= b << (m - n)
        m = a.bit_length()
    return a


# Below this modulus degree a table does not pay for itself within a
# pass of deg f squarings, and _reducer hands back plain _mod.  Timed
# as one table build plus deg f reduced squarings, the table costs
# 1.04-1.59x _mod at degree 4-14, 0.89-0.94x at 16-24 and 0.73-0.79x
# at 32-40.
_REDUCE_TABLE_MIN_DEGREE = 16
# From this modulus degree up, where the distinct-degree walk multiplies
# (factorize._DDF_BLOCK_MIN_DEGREE), the table clears 8 bits a step and
# _reducer also hands back the fused product.
_REDUCE_WIDE_MIN_DEGREE = 44


def _reducer(f):
    """(reduce, mulmod) for working many times modulo the same f.

    reduce(a) is a mod f.  It tabulates the 2**k multiples of f of
    degree below n + k (n = deg f), indexed by their bits n..n+k-1,
    which tell them apart; one step XORs the multiple that matches the
    top k bits of the dividend and so clears k bits at once.  k is 8
    from degree _REDUCE_WIDE_MIN_DEGREE up; below it the table keeps
    within 2**k <= n entries, no more work to build than one
    bit-at-a-time _mod of a square.

    mulmod(a, b), None below that degree, is a * b mod f for reduced a
    and b: _mul's byte loop, with the top 8 bits cleared through the
    table after each byte, so the running value stays within n + 8
    bits and no 2n-bit product is built (Blakley's interleaved product).
    """
    if f == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = f.bit_length() - 1
    if n < _REDUCE_TABLE_MIN_DEGREE:
        return (lambda a: _mod(a, f)), None
    k = 8 if n >= _REDUCE_WIDE_MIN_DEGREE else n.bit_length() - 1
    table = [0]
    # multiple has bit n + i and no other bit from n to n + k - 1.
    multiple = f
    for _ in range(k):
        table += [multiple ^ m for m in table]
        multiple <<= 1
        if multiple >> n & 1:
            multiple ^= f
    width = n + k

    def reduce(a):
        s = a.bit_length() - width
        while s > 0:
            a ^= table[a >> (n + s)] << s
            s = a.bit_length() - width
        # Now deg a < n + k: one last lookup on the bits above n.
        return a ^ table[a >> n]

    if k < 8:
        return reduce, None

    def mulmod(a, b):
        nibbles = _nibbles(a)
        c = 0
        for byte in b.to_bytes((b.bit_length() + 7) >> 3, "big"):
            c = (c << 8) ^ (nibbles[byte >> 4] << 4) ^ nibbles[byte & 15]
            c ^= table[c >> n]
        return c

    return reduce, mulmod


def _gcd(a, b):
    # Euclid, each remainder taken in place by shift-XOR steps: a call
    # to _mod per quotient costs more than the steps themselves.
    while b:
        n = b.bit_length()
        m = a.bit_length()
        while m >= n:
            a ^= b << (m - n)
            m = a.bit_length()
        a, b = b, a
    return a


# Byte tables for squaring, its inverse and bit reversal.
# _SQUARE_BYTE[v] is the square of a byte v: a 0 between every two of
# its binary digits.  _square spreads each byte into two through
# _SPREAD_LOW and _SPREAD_HIGH (its low and high nibble), _sqrt packs
# the even bits of a byte into a nibble through _PACK_LOW and
# _PACK_HIGH, and _reverse mirrors each byte.
_SQUARE_BYTE = tuple(int("0".join(f"{v:b}"), 2) for v in range(256))
_SPREAD_LOW = bytes(_SQUARE_BYTE[v & 15] for v in range(256))
_SPREAD_HIGH = bytes(_SQUARE_BYTE[v >> 4] for v in range(256))
_PACK_LOW = bytes(v & 1 | v >> 1 & 2 | v >> 2 & 4 | v >> 3 & 8 for v in range(256))
_PACK_HIGH = bytes(c << 4 for c in _PACK_LOW)
_REVERSE_BYTE = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def _square(a):
    # Squaring spreads the bits apart: a zero between every two digits.
    # Per call, two lookups take 0.05-0.16 us below 2**16 and two such
    # halves 0.4-0.7 us below 2**32, where the bytes path takes 1.1-1.7
    # us (from 9 to 64 bits; 3 us at 1,000 bits).
    if a < 1 << 16:
        return _SQUARE_BYTE[a >> 8] << 16 | _SQUARE_BYTE[a & 255]
    if a < 1 << 32:
        return _square(a >> 16) << 32 | _square(a & 0xFFFF)
    n = (a.bit_length() + 7) >> 3
    b = a.to_bytes(n, "little")
    out = bytearray(2 * n)
    out[::2] = b.translate(_SPREAD_LOW)
    out[1::2] = b.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _sqrt(a):
    # Inverse of _square: keep the even positions.  Valid only when all
    # set bits sit at even positions (callers check via the derivative).
    b = a.to_bytes((a.bit_length() + 15) >> 4 << 1, "little")
    low = b[::2].translate(_PACK_LOW)
    high = b[1::2].translate(_PACK_HIGH)
    return int.from_bytes(low, "little") | int.from_bytes(high, "little")


def _derivative(a):
    n = a.bit_length()
    if n & 1:
        n += 1
    mask = ((1 << n) - 1) // 3  # 0b0101...01
    return (a >> 1) & mask


def _pow(a, e):
    # a^e by square-and-multiply over the bits of e, low bit first.
    result = 1
    while e:
        if e & 1:
            result = _mul(result, a)
        e >>= 1
        if e:
            a = _square(a)
    return result


def _product(pairs):
    """The product of q^e over the (q, e) pairs, on bits."""
    bits = 1
    for q, e in pairs:
        bits = _mul(bits, _pow(q, e))
    return bits


def _strip(a, q):
    """(cofactor, count): a != 0 with q divided out as often as it goes."""
    count = 0
    while True:
        quo, rem = _divmod(a, q)
        if rem:
            return a, count
        a = quo
        count += 1


# A handful of widths covers every call; each entry holds log2(width)
# masks of 2**log2(width) bits, at most twice the width asked for.
@lru_cache(maxsize=16)
def _bar_masks(log_width):
    """Mask j keeps the positions whose index has bit j clear: runs of
    2**j ones and 2**j zeros from bit 0, over 2**log_width bits."""
    ones = (1 << (1 << log_width)) - 1
    masks = []
    for j in range(log_width):
        run = 1 << j
        period = (1 << (2 * run)) - 1
        masks.append(ones // period * ((1 << run) - 1))
    return tuple(masks)


def _bar(a):
    # Substitute x by x+1.  (x+1)^i = sum of x^j over the j whose set
    # bits are a subset of i's (Lucas), so coefficient j of bar(a) is
    # the XOR of a's coefficients at every superset i of j: a superset
    # sum, one pass per index bit.
    n = a.bit_length()
    if n < 2:
        return a
    for j, mask in enumerate(_bar_masks((n - 1).bit_length())):
        a ^= (a >> (1 << j)) & mask
    return a


def _reverse(a):
    n = (a.bit_length() + 7) >> 3
    b = a.to_bytes(n, "big").translate(_REVERSE_BYTE)
    return int.from_bytes(b, "little") >> (8 * n - a.bit_length())


def _linear(i, j):
    # x^i (x+1)^j: (x+1)^j is the conjugate of x^j.
    return _bar(1 << j) << i


def _split_linear(a):
    """(i, j, c) with a = x^i (x+1)^j c and c(0) = c(1) = 1, for a != 0.

    Strips x by a shift, then conjugates, so that x+1 becomes x, strips
    x again and conjugates back: no power of x+1 and no division.
    """
    i = (a & -a).bit_length() - 1
    b = _bar(a >> i)
    j = (b & -b).bit_length() - 1
    return i, j, _bar(b >> j)


# Term strings by exponent, at most _TERMS_CAP of them (about 0.25 MB).
# Growth binds a longer copy, never extends in place, so a reader always
# holds a whole list.  _BINARY maps the digits b"0" and b"1" to 0 and 1.
_TERMS_CAP = 4097
_TERMS = ["1", "x"]
_BINARY = bytes.maketrans(b"01", b"\0\1")


def _terms(n):
    """The term list, with at least min(n, _TERMS_CAP) entries."""
    global _TERMS
    terms = _TERMS
    if len(terms) < min(n, _TERMS_CAP):
        size = min(max(n, 2 * len(terms)), _TERMS_CAP)
        terms = _TERMS = terms + list(map("x^{}".format, range(len(terms), size)))
    return terms


# ---------------------------------------------------------------------------
# the value type


class Poly:
    """An immutable polynomial over GF(2), packed into an int."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        if isinstance(bits, Poly):
            bits = bits.bits
        if not isinstance(bits, int) or bits < 0:
            raise TypeError("Poly wants a nonnegative int bit-vector")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.bits,)  # pickle and copy: __init__, not __setattr__

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Read a polynomial from canonical text or from hex form.

        The grammar is a '+'-separated sum of terms "1", "x" or "x^k"
        with decimal 2 <= k <= MAX_PARSE_EXPONENT; repeated terms
        cancel in pairs.  A string starting with "0x" is read as the
        coefficient bits instead, so "0x13" is x^4+x+1.  The single
        term "0" denotes the zero polynomial.
        """
        if not isinstance(text, str):
            raise PolyParseError("polynomial text must be a string", 0)
        stripped = text.strip()
        if not stripped:
            raise PolyParseError("empty polynomial text", 0)
        if stripped.lower().startswith("0x"):
            # ASCII hex digits only: int() also takes "_" and other digits.
            digits = stripped[2:]
            if not digits or digits.strip("0123456789abcdefABCDEF"):
                offset = len(text) - len(text.lstrip())
                raise PolyParseError("malformed hex polynomial", offset)
            return cls(int(digits, 16))
        if stripped == "0":
            return cls(0)
        bits = 0
        pos = 0
        for piece in text.split("+"):
            term = piece.strip()
            offset = pos + piece.index(term) if term else pos
            if not term:
                raise PolyParseError("empty term", offset)
            if term == "1":
                exponent = 0
            elif term == "x":
                exponent = 1
            elif term.startswith("x^"):
                digits = term[2:]
                if not (digits.isascii() and digits.isdigit()):
                    raise PolyParseError(f"malformed exponent {digits!r}", offset + 2)
                # Bound the length before int(), which refuses overlong
                # digit strings, and the value before the shift below.
                digits = digits.lstrip("0") or "0"
                if len(digits) > 7 or int(digits) > MAX_PARSE_EXPONENT:
                    raise PolyParseError(f"exponent exceeds {MAX_PARSE_EXPONENT}", offset + 2)
                exponent = int(digits)
                if exponent < 2:
                    raise PolyParseError("exponents below 2 must be written as 1 or x", offset + 2)
            else:
                raise PolyParseError(f"malformed term {term!r}", offset)
            bits ^= 1 << exponent
            pos += len(piece) + 1
        return cls(bits)

    # -- rendering ---------------------------------------------------------

    def text(self):
        """Canonical text: strictly decreasing exponents, "0" for zero.

        The binary digits, lowest first, select the set terms: below
        _TERMS_CAP from the term list, from it up formatted per call.
        """
        digits = bin(self.bits)[:1:-1].encode().translate(_BINARY)
        terms = [*compress(_terms(len(digits)), digits),
                 *map("x^{}".format, compress(count(_TERMS_CAP), digits[_TERMS_CAP:]))]
        terms.reverse()
        return "+".join(terms) or "0"

    def hex(self):
        """Compact coefficient-bits form, e.g. "0x7" for x^2+x+1."""
        return hex(self.bits)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Poly({self.text()!r})"

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return _degree(self.bits)

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.bits == other.bits

    def __hash__(self):
        return hash(("gf2perfect.Poly", self.bits))

    def __lt__(self, other):
        # Degree first, then little-endian coefficient value; for this
        # packing both collapse to plain integer comparison.
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits < other.bits

    def __le__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits <= other.bits

    # -- arithmetic ----------------------------------------------------------

    # Foreign operands get NotImplemented, so Python raises TypeError.

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_mul(self.bits, other.bits))

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        q, r = _divmod(self.bits, other.bits)
        return Poly(q), Poly(r)

    def __floordiv__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_divmod(self.bits, other.bits)[0])

    def __mod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_mod(self.bits, other.bits))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e == 0 and self.bits == 0:
            raise ValueError("0**0 is undefined here")
        return Poly(_pow(self.bits, e))


# ---------------------------------------------------------------------------
# module-level operations (the names the rest of the package uses)


def gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor (monic for free over GF(2))."""
    return Poly(_gcd(a.bits, b.bits))


def derivative(a: Poly) -> Poly:
    """Formal derivative; in characteristic 2 even-power terms vanish."""
    return Poly(_derivative(a.bits))


def bar(a: Poly) -> Poly:
    """Substitute x by x+1.  An involution and a ring automorphism."""
    return Poly(_bar(a.bits))


def star(a: Poly) -> Poly:
    """The reciprocal x^deg(a) * a(1/x): reverse the coefficient string."""
    if a.bits == 0:
        raise ValueError("the zero polynomial has no reciprocal")
    return Poly(_reverse(a.bits))


def is_even(a: Poly) -> bool:
    """True when x or x+1 divides a (a has a linear factor)."""
    if a.bits == 0:
        raise ValueError("parity of the zero polynomial")
    # x divides a iff the constant term is 0; x+1 divides a iff a(1) = 0,
    # i.e. the number of set bits is even.
    return (a.bits & 1) == 0 or (a.bits.bit_count() & 1) == 0


def is_odd(a: Poly) -> bool:
    """True when a has no linear factor."""
    return not is_even(a)


ONE = Poly(1)
X = Poly(2)
X1 = Poly(3)  # x + 1
