"""Fixed prime catalog and the classification tools built around it.

The catalog holds three families.  Thirteen Mersenne primes (M1..M13)
of the shape 1 + x^a (x+1)^b, fifteen primes (S1..S15) of the shape
1 + x^a (x+1)^b M1^c built over the smallest Mersenne prime, and the
eleven known nontrivial perfect polynomials (T1..T11).  Every entry is
rebuilt from its defining parameters at first use and self-checked:
the primes must pass irreducibility, the perfect entries must be fixed
points of the divisor sum, and conjugation must permute each family
exactly the way the partner tables say.

On top of the catalog sit the representation chain of an odd
polynomial, the k-step classification it induces, and the
admissibility test for families of odd primes.  Its scans ask, h by h,
whether sigma(S^2h) splits over a family.  Every prime of its factor
Phi_(2h+1)(S) has a degree divisible by ord_(2h+1)(2), so a row where no
member's degree is cannot split, and it is skipped before any gcd.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .factorize import factor_over_family, is_irreducible
from .gf2poly import ONE, Poly, X, X1, _product, _split_linear, bar, is_odd, star
from .sigma import (
    MAX_SIGMA_DEGREE,
    MERSENNE_AB,
    TWO_MERSENNE_ABN,
    _order2,
    _shape,
    is_perfect,
    sigma_prime_power,
)

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "Classification",
    "Representation",
    "by_name",
    "catalog_constants",
    "chain_length",
    "classify",
    "family_degree_sum",
    "is_admissible",
    "mersenne_family",
    "name_of",
    "prime_family",
    "representation",
    "two_mersenne_family",
]

# Odd-index perfect entries as (a, b, catalog prime powers); the even
# index in each pair is the conjugate of its predecessor, which is how
# the family is defined in the first place.
PERFECT_SHAPES = {
    1: (2, 1, (("M1", 1),)),
    3: (4, 3, (("M4", 1),)),
    5: (4, 4, (("M4", 1), ("M5", 1))),
    6: (6, 3, (("M2", 1), ("M3", 1))),
    8: (4, 6, (("M2", 1), ("M3", 1), ("M4", 1))),
    10: (2, 1, (("M1", 2), ("S1", 1))),
}

BAR_MERSENNE = {
    1: 1, 2: 3, 3: 2, 4: 5, 5: 4, 6: 9, 9: 6,
    7: 10, 10: 7, 8: 11, 11: 8, 12: 13, 13: 12,
}
BAR_TWO_MERSENNE = {
    1: 1, 2: 2, 7: 7, 8: 8, 9: 9, 3: 6, 6: 3,
    4: 5, 5: 4, 10: 13, 13: 10, 11: 14, 14: 11, 12: 15, 15: 12,
}
BAR_PERFECT = {
    1: 2, 2: 1, 3: 4, 4: 3, 5: 5,
    6: 7, 7: 6, 8: 9, 9: 8, 10: 11, 11: 10,
}


class CatalogEntry(NamedTuple):
    name: str
    poly: Poly
    kind: str  # "mersenne" | "two_mersenne" | "perfect"
    params: tuple[int, ...] | None  # (a, b) or (a, b, c) of a prime's shape
    bar_partner: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "poly": self.poly.text(),
            "kind": self.kind,
            "params": list(self.params) if self.params is not None else None,
            "bar_partner": self.bar_partner,
        }


def _perfect_poly(k: int, primes: dict[str, Poly]) -> Poly:
    if k in PERFECT_SHAPES:
        a, b, powers = PERFECT_SHAPES[k]
        pairs = ((primes[name].bits, exp) for name, exp in powers)
        return Poly(_product(((X.bits, a), (X1.bits, b), *pairs)))
    return bar(_perfect_poly(BAR_PERFECT[k], primes))


class CatalogError(RuntimeError):
    """A self-check of the built-in catalog failed; the build is broken."""


@lru_cache(maxsize=1)
def catalog_constants() -> tuple[CatalogEntry, ...]:
    """All 39 catalog entries, rebuilt from parameters and self-checked."""
    entries: list[CatalogEntry] = []
    primes: dict[str, Poly] = {}
    for prefix, kind, shapes, bars in (
        ("M", "mersenne", MERSENNE_AB, BAR_MERSENNE),
        ("S", "two_mersenne", TWO_MERSENNE_ABN, BAR_TWO_MERSENNE),
    ):
        for i, params in shapes.items():
            name, p = f"{prefix}{i}", _shape(*params)
            if not is_irreducible(p):
                raise CatalogError(f"{name} = {p.text()} is not irreducible")
            primes[name] = p
            entries.append(CatalogEntry(name, p, kind, params, f"{prefix}{bars[i]}"))
    for k in range(1, 12):
        p = _perfect_poly(k, primes)
        if not is_perfect(p):
            raise CatalogError(f"T{k} = {p.text()} is not a divisor-sum fixed point")
        entries.append(CatalogEntry(f"T{k}", p, "perfect", None, f"T{BAR_PERFECT[k]}"))
    by = {e.name: e for e in entries}
    for e in entries:
        if bar(e.poly) != by[e.bar_partner].poly:
            raise CatalogError(f"conjugate of {e.name} is not {e.bar_partner}")
    total = sum(e.poly.degree for e in entries if e.kind != "perfect")
    if total != 184:
        raise CatalogError(f"prime degree sum is {total}, expected 184")
    return tuple(entries)


def by_name(name: str) -> CatalogEntry:
    for e in catalog_constants():
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def name_of(p: Poly) -> str | None:
    """Catalog name of p, or None when p is not a catalog member."""
    return _bits_to_name().get(p.bits)


def label(p: Poly) -> str:
    """Catalog name of p, or its canonical text when it has none."""
    return name_of(p) or p.text()


@lru_cache(maxsize=1)
def _bits_to_name() -> dict[int, str]:
    return {e.poly.bits: e.name for e in catalog_constants()}


def mersenne_family() -> tuple[Poly, ...]:
    return tuple(e.poly for e in catalog_constants() if e.kind == "mersenne")


def two_mersenne_family() -> tuple[Poly, ...]:
    return tuple(e.poly for e in catalog_constants() if e.kind == "two_mersenne")


def prime_family() -> tuple[Poly, ...]:
    return tuple(e.poly for e in catalog_constants() if e.kind != "perfect")


def family_degree_sum() -> int:
    return sum(p.degree for p in prime_family())


def catalog_json() -> list[dict]:
    return [e.to_json() for e in catalog_constants()]


# ---------------------------------------------------------------------------
# representation chains


class Representation(NamedTuple):
    """Valuation chain of an odd polynomial.

    Pair j holds the x- and (x+1)-valuations of 1 + P_j, and P_{j+1}
    is the remaining cofactor; the chain stops when that cofactor is
    the constant 1.  The degrees telescope, so the pair entries sum to
    the degree of the original polynomial.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.pairs)

    def text(self) -> str:
        inner = ",".join(f"[{a},{b}]" for a, b in self.pairs)
        return f"[{inner}] length={self.length}"


def representation(p: Poly) -> Representation:
    """Iterated extraction of linear-prime valuations from 1 + P."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no representation")
    if not is_odd(p):
        raise ValueError("even polynomial has no representation")
    pairs = []
    q = p.bits
    while q != 1:
        a, b, q = _split_linear(q ^ 1)
        pairs.append((a, b))
    return Representation(tuple(pairs))


def chain_length(p: Poly) -> int:
    return representation(p).length


class Classification(NamedTuple):
    """Chain length of an odd polynomial plus its shape parameters.

    k = 1 means the Mersenne shape 1 + x^a (x+1)^b, reported as
    (a, b).  k = 2 means a two-step chain; when the cofactor after the
    first step is a power of a single Mersenne prime M, the shape
    1 + x^a (x+1)^b M^c is reported as (a, b, M, c), otherwise the
    shape parameters are withheld and only k is reported.
    """

    k: int
    mersenne_params: tuple[int, int] | None = None
    two_mersenne_params: tuple[int, int, Poly, int] | None = None

    def text(self) -> str:
        if self.k == 1:
            a, b = self.mersenne_params
            return f"1-step (mersenne) a={a} b={b}"
        if self.k == 2 and self.two_mersenne_params is not None:
            a, b, m, c = self.two_mersenne_params
            return f"2-step over {m.text()}: a={a} b={b} c={c}"
        return f"{self.k}-step"


def classify(p: Poly) -> Classification:
    """Chain classification with recovered shape parameters.

    1 + x^a (x+1)^b M^c, M = 1 + w, w = x^a0 (x+1)^b0, a, b, a0, b0 >= 1,
    has length 2^popcount(c), M prime or not: step 1 strips x^a (x+1)^b,
    as M(0) = M(1) = 1, and leaves M^c, by Lucas' theorem the sum of the
    w^i whose i has its 1 bits among c's; each later step takes off the
    least w^m, m > 0, as (sum - 1) / w^m is 1 at x = 0 and at x = 1.
    """
    rep = representation(p)
    if rep.length == 1:
        return Classification(k=1, mersenne_params=rep.pairs[0])
    if rep.length == 2:
        a, b = rep.pairs[0]
        a2, b2 = rep.pairs[1]
        # The cofactor is 1 + x^a2 (x+1)^b2.  It is a prime power only
        # when pulling out the full 2-power of gcd(a2, b2) leaves an
        # irreducible core: an irreducible 1 + x^r (x+1)^s never has r
        # and s both even, so no smaller root can work.
        t = ((a2 | b2) & -(a2 | b2)).bit_length() - 1
        base = _shape(a2 >> t, b2 >> t)
        if is_irreducible(base):
            return Classification(k=2, two_mersenne_params=(a, b, base, 1 << t))
        return Classification(k=2)
    return Classification(k=rep.length)


# ---------------------------------------------------------------------------
# admissibility


class ConditionReport(NamedTuple):
    holds: bool
    detail: tuple[str, ...]


class AdmissibilityReport(NamedTuple):
    admissible: bool
    closure: ConditionReport
    linear_tables: ConditionReport
    member_feedback: ConditionReport
    budget_note: str

    # (JSON key, text label) of each condition, in report order; the key
    # is also the attribute that holds the condition.
    _CONDITIONS = (
        ("closure", "closure under conjugate/reciprocal"),
        ("linear_tables", "linear-prime divisor sums factor over family"),
        ("member_feedback", "member feedback through 1+T or divisor sums"),
    )

    def text(self) -> str:
        lines = [f"admissible: {str(self.admissible).lower()}", self.budget_note]
        for key, label in self._CONDITIONS:
            cond = getattr(self, key)
            lines.append(f"[{'ok' if cond.holds else 'fail'}] {label}")
            lines.extend(f"    {d}" for d in cond.detail)
        return "\n".join(lines)

    def to_json(self) -> dict:
        conditions = {}
        for key, _label in self._CONDITIONS:
            cond = getattr(self, key)
            conditions[key] = {"holds": cond.holds, "detail": list(cond.detail)}
        return {
            "admissible": self.admissible,
            "budget": self.budget_note,
            "conditions": conditions,
        }


# Largest explicit scan budget is_admissible accepts.  The degree rule
# gives 92 for the linear bases and the catalog family.
MAX_H_BUDGET = 128

# Largest total degree of the distinct members is_admissible accepts.
# The degree rule scans each member T up to h = (total degree) / (2 deg T),
# so many small members cost most.  The worst case measured at the cap:
# 170 of the 335 irreducibles of degree 12 (total 2,040) take 1.4 s, and
# x^2044+x^45+1 alone 0.5 s (2-vCPU Xeon, CPython 3.11).  All 335, total
# 4,020, take 7.0 s.
MAX_FAMILY_DEGREE = 2048


def admissibility_budget(family: tuple[Poly, ...], s: Poly) -> int:
    """Scan bound for divisor sums of s: degrees of family and catalog
    primes combined, divided by the degree of s^2."""
    seen = {q.bits for q in prime_family()} | {q.bits for q in family}
    total = sum(b.bit_length() - 1 for b in seen)
    return max(1, total // (2 * s.degree))


def split_divisor_sums(s: Poly, h_max: int, family):
    """Yield (h, FactorMap) for each h <= h_max, h up, where sigma(s^2h)
    factors completely over family.

    A row that cannot split takes no gcd: with n = 2h + 1, the
    nonconstant Phi_n(s) divides sigma(s^2h), and each of its primes has
    a degree divisible by ord_n(2) (sigma._phi_factors' step).  When no
    member's degree is, a prime outside the family divides the row.  The
    other Phi_d(s), d | n, rule out no more: ord_d(2) divides ord_n(2).
    """
    degrees = {p.degree for p in family}
    for h in range(1, h_max + 1):
        order = _order2(2 * h + 1)
        if all(k % order for k in degrees):
            continue
        fm = factor_over_family(sigma_prime_power(s, 2 * h), family)
        if fm is not None:
            yield h, fm


def is_admissible(
    family, h_budget: int | None = None
) -> tuple[bool, AdmissibilityReport]:
    """Closure test for a family of odd primes.

    The family passes when any one of three conditions holds: (i) each
    member keeps its conjugate or its reciprocal inside the family,
    (ii) some divisor sum x^2h or (x+1)^2h factors entirely over the
    family, (iii) every member T feeds back into the family extended
    by the linear primes, through 1+T or through some divisor sum
    sigma(T^2h).  The existential h in (ii) and (iii) is scanned up to
    a degree-based budget unless an explicit h_budget, from 1 to
    MAX_H_BUDGET, overrides it.  The members' degrees may sum to at
    most MAX_FAMILY_DEGREE.
    """
    if h_budget is not None and not 1 <= h_budget <= MAX_H_BUDGET:
        raise ValueError(f"h_budget must be between 1 and {MAX_H_BUDGET}")
    members = {p.bits: p for p in family}
    if not members:
        raise ValueError("family is empty")
    # The caps come before any work: the scan's last divisor sum,
    # sigma(p^(2 h_budget)), must stay within the cap sigma_prime_power
    # enforces, and the family within MAX_FAMILY_DEGREE.
    for p in members.values():
        if h_budget is not None and 2 * h_budget * p.degree > MAX_SIGMA_DEGREE:
            raise ValueError(
                f"family member {p.text()}: 2 * budget * degree "
                f"{2 * h_budget * p.degree} exceeds {MAX_SIGMA_DEGREE}"
            )
    degree = sum(p.degree for p in members.values())
    if degree > MAX_FAMILY_DEGREE:
        raise ValueError(f"family degree {degree} exceeds {MAX_FAMILY_DEGREE}")
    for p in members.values():
        if not is_irreducible(p):
            raise ValueError(f"family member {p.text()} is reducible")
        if not is_odd(p):
            raise ValueError(f"family member {p.text()} is even")
    fam = tuple(members.values())
    extended = fam + (X, X1)

    def budget(s: Poly) -> int:
        return h_budget if h_budget is not None else admissibility_budget(fam, s)

    def each_member(check) -> ConditionReport:
        """Holds when check(t), a pair (holds, detail), holds for each t."""
        results = [check(t) for t in fam]
        return ConditionReport(
            all(holds for holds, _ in results),
            tuple(f"{label(t)}: {detail}" for t, (_, detail) in zip(fam, results)),
        )

    def keeps_partner(t: Poly) -> tuple[bool, str]:
        if bar(t).bits in members:
            return True, "conjugate stays in family"
        if star(t).bits in members:
            return True, "reciprocal stays in family"
        return False, "neither conjugate nor reciprocal"

    def feeds_back(t: Poly) -> tuple[bool, str]:
        if factor_over_family(t + ONE, extended) is not None:
            return True, "1+T factors over extended family"
        hit = next(split_divisor_sums(t, budget(t), extended), None)
        if hit is None:
            return False, "no feedback within budget"
        return True, f"sigma(T^{2 * hit[0]}) factors over extended family"

    closure = each_member(keeps_partner)
    linear_hit = next(
        ((s, h) for s in (X, X1) for h, _ in split_divisor_sums(s, budget(s), fam)),
        None,
    )
    linear_detail = "no divisor sum of x or x+1 factors within budget"
    if linear_hit is not None:
        s, h = linear_hit
        base = s.text() if s == X else f"({s.text()})"
        linear_detail = f"sigma({base}^{2 * h}) factors over the family"
    linear = ConditionReport(linear_hit is not None, (linear_detail,))
    feedback = each_member(feeds_back)

    if h_budget is not None:
        note = f"budget: fixed h <= {h_budget}"
    else:
        note = "budget: degree rule, h <= (combined degree)/(2 deg S) per base S"
    report = AdmissibilityReport(
        admissible=closure.holds or linear.holds or feedback.holds,
        closure=closure,
        linear_tables=linear,
        member_feedback=feedback,
        budget_note=note,
    )
    return report.admissible, report
