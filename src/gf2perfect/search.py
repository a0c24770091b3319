"""Exhaustive searches built on the exponent calculus and the catalog.

The centerpiece is a three-stage sieve over candidate shapes

    x^a (x+1)^b M1^c1 ... M5^c5 S1^d1 ... S8^d8

(slot layout sigma._SLOT_PRIMES, domain sigma.DOMAIN) on the ints
sigma.sigma_exponents sums from slot terms, then a fixed-point test on
the factorization each survivor was assembled from, confirmed by an
independent sigma.  Stages 1 and 2 pass (heads, blocks): a list of
tuples of parts, and the kept prefixes (n, u, m, v) in domain order,
each with the index of its block; a flat row is head + part.  A part
reads its head only through the summed x and x+1 slot terms, so the
595 heads point into 230 blocks, each built (stage 1), filtered (stage
2) and given its linear-prime valuations (stage 3) once per run, at
one index throughout.  Stage 3 keeps the rows the free M3..M5 slots
balance; M3 takes its exponent from (n2, u2), the rule that reproduces
the reference count of 44.  run_search walks the stage table _STAGES;
a stage count that misses its reference is reported with the counts of
the documented filter variants.

The module also holds the smaller sweeps: divisor-sum factor tables
over the fixed prime family, the reciprocal-polynomial exploration,
verification of the split identities used throughout the exponent
bookkeeping, and the chain-length scan behind the conjecture tooling.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import add
from typing import NamedTuple

from .catalog import (
    admissibility_budget,
    chain_length,
    label,
    name_of,
    mersenne_family,
    prime_family,
    split_divisor_sums,
    two_mersenne_family,
)
from .factorize import FactorMap, is_irreducible
from .gf2poly import Poly, X, X1, _bar, _linear, _mul, _split_linear, _strip, star
from .sigma import (
    DOMAIN,
    _M1_BITS,
    _divisor_sum_factors,
    _shape,
    _sigma_of_vector,
    assemble,
    decompose_exponent,
    sigma,
    sigma_exponents,
)

# Counts the three sieve stages are calibrated against, and the names
# of the catalog entries the confirmed survivors must match.  The
# final set is stated up to the bar symmetry: representatives with
# a <= b only.
REFERENCE_STAGE_COUNTS = {"1": 10944, "2": 4484, "3": 44}
FINAL_REFERENCE_NAMES = ("T2", "T4", "T5", "T7", "T8", "T11")


def _slot_exponents(k):
    """The exponents 2^t s - 1 that DOMAIN allows slot k."""
    return frozenset((s << t) - 1 for t, s in product(*DOMAIN[k]))


# The exponents the M2 slot allows, the same as S1's: the room stage 1
# gives M2 and stage 2 gives S1.  _SHAPES maps each to its 2-adic shape
# (t, s), e = 2^t s - 1.
REPRESENTABLE_EXPONENTS = _slot_exponents(3)
_SHAPES = {e: decompose_exponent(e) for e in REPRESENTABLE_EXPONENTS}

# The stage-2 slot rules: the exponents each allows S2..S8 in sigma of
# a surviving candidate.  "uniform" applies S1's set to every slot,
# "strict" is the set DOMAIN gives S2..S8.
STAGE2_RULES = {
    "uniform": REPRESENTABLE_EXPONENTS,
    "strict": _slot_exponents(8),
}

# Largest inputs the sweeps accept; each one takes a few seconds at
# most on a current CPU, and the cost grows steeply past it.
MAX_RECIPROCAL_ABC = 16
MAX_IDENTITY_EXP = 256
MAX_SCAN_H = 40
# Largest 2 * h_max * deg(base) a conjecture scan accepts: the degree
# of its last divisor sum.  Near the cap a scan takes 0.08-0.4 s (base
# degree 25 at h_max 40, 51 at 20, 256 at 4, 512 at 2; 2-vCPU Xeon,
# CPython 3.11), and doubling it costs about 10x (x^127+x+1 at h_max 8
# and 16: 0.11-0.14 and 1.3-1.4 s).  The Mersenne family stays at 720
# or below up to MAX_SCAN_H.
MAX_SCAN_DEGREE = 2048

# ---------------------------------------------------------------------------
# Sieve stages.  Each returns its rows in domain order.


@lru_cache(maxsize=1)
def _stage1_terms():
    """For each of the x, x+1 and M1 slots, (t, s) -> the M2 and S1..S8
    components of its slot term, in domain order; stage 1 sums them."""
    return [{(t, s): sigma_exponents([(k, (s << t) - 1)], (3, *range(7, 15)))
             for t, s in product(*DOMAIN[k])} for k in range(3)]


def _stage1_groups():
    """(heads, blocks): blocks holds one tuple of parts (n1, u1, n2, u2,
    d1, ..., d8) per summed x and x+1 term vector, in first-seen order,
    a part per (n1, u1) whose M2 exponent 2^n2 u2 - 1 is representable,
    d1..d8 the S1..S8 exponents in sigma; heads lists ((n, u, m, v), i),
    1 <= a <= b, in domain order, i the index of the head's block."""
    x_terms, x1_terms, m1_terms = _stage1_terms()
    index, heads, blocks = {}, [], []
    for n, u, m, v in product(*DOMAIN[0], *DOMAIN[1]):
        a = (u << n) - 1
        if a < 1 or a > (v << m) - 1:
            continue
        p = tuple(map(add, x_terms[n, u], x1_terms[m, v]))
        i = index.setdefault(p, len(blocks))
        if i == len(blocks):
            p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
            blocks.append(tuple(
                (n1, u1, *shape, p1 + d1, p2 + d2, p3 + d3, p4 + d4, p5 + d5,
                 p6 + d6, p7 + d7, p8 + d8)
                for (n1, u1), (g, d1, d2, d3, d4, d5, d6, d7, d8) in m1_terms.items()
                if (shape := _SHAPES.get(p0 + g)) is not None
            ))
        heads.append(((n, u, m, v), i))
    return heads, blocks


def _stage2_groups(groups, rule):
    """(heads, blocks) with each block cut to the parts whose first slot
    is representable and later slots in the rule's set, the first slot's
    (n, u) appended once: the list keeps its length and every index,
    and only the heads whose block kept a part stay."""
    heads, blocks = groups
    allowed = STAGE2_RULES[rule].issuperset
    blocks = [tuple(p[:12] + _SHAPES[p[4]] for p in block
                    if p[4] in REPRESENTABLE_EXPONENTS and allowed(p[5:12]))
              for block in blocks]
    return [head for head in heads if blocks[head[1]]], blocks


def _size(groups):
    """The number of flat rows in groups."""
    heads, blocks = groups
    return sum(len(blocks[i]) for _head, i in heads)


@lru_cache(maxsize=1)
def _free_slot_witness():
    """The first free-slot witness (n3, n4, n5), in loop order, for each
    degree contribution (a, b) the M3, M4 and M5 slots left free at stage
    3 can make: 144 witnesses, one lookup per row."""
    table = {}
    for w in product(*(t for t, _s in DOMAIN[4:7])):
        need = sigma_exponents(zip((4, 5, 6), [(1 << n) - 1 for n in w]), (0, 1))
        table.setdefault(need, w)
    return table


def _stage3_rows(groups):
    """(bits, stage-2 row, free-slot witness, Mersenne exponents) of each
    candidate whose linear-prime valuations a free-slot witness balances.

    The exponents of x and x+1 in sigma of a row's candidate sum the slot
    terms of its head, once per (n, m), and of its part, once per block
    into a tuple at its index (empty blocks share ()), each sum once per
    call.  x and x+1 divide no sigma(q^(s-1)) with s odd (its value at 0
    and at 1 is odd), so a slot's linear part reads only its t.  M1 takes
    its exponent in sigma of the row with M3..M5 empty, M3 that of M2.
    """
    witnesses = _free_slot_witness()
    linear = lru_cache(maxsize=None)(lambda slots, e: sigma_exponents(zip(slots, e), (0, 1)))
    heads, blocks = groups
    terms = [tuple((*map(add, linear((2, 3), ((1 << p[0]) - 1, (1 << p[2]) - 1)),
                         linear(range(7, 15), p[4:12])), p) for p in block) for block in blocks]
    out = []
    for head, i in heads:
        n, u, m, v = head
        a, b = (u << n) - 1, (v << m) - 1
        ha, hb = linear((0, 1), ((1 << n) - 1, (1 << m) - 1))
        for pa, pb, part in terms[i]:
            witness = witnesses.get((a - ha - pa, b - hb - pb))
            if witness is None:
                continue
            n1, u1, n2, u2, *tail = part[:12]
            c1, c2 = (u1 << n1) - 1, (u2 << n2) - 1
            gamma1 = sigma_exponents(zip((0, 1, 2, 3, *range(7, 15)), (a, b, c1, c2, *tail)), (2,))
            c = (*gamma1, c2, c2, (1 << witness[1]) - 1, (1 << witness[2]) - 1)
            out.append((assemble(a, b, c, tail).bits, head + part, witness, c))
    return out


def _stage3_candidates(groups2):
    """The distinct stage-3 candidates in domain order, each bits -> its
    exponent vector (a, b, c1..c5, d1..d8) over sigma._SLOT_PRIMES."""
    return {bits: ((row[1] << row[0]) - 1, (row[3] << row[2]) - 1, *c, *row[8:16])
            for bits, row, _witness, c in _stage3_rows(groups2)}


def _fixed_points(candidates):
    """The sorted sigma fixed points among the stage-3 candidates, given
    as bits -> exponent vector.  Candidates that split into the two
    linear primes alone (c and d all zero) are not of interest.  Each
    survivor of the product test is confirmed by sigma, which factors
    it afresh; a disagreement is an error, not a dropped candidate."""
    points = tuple(
        Poly(bits)
        for bits, exps in sorted(candidates.items())
        if any(exps[2:]) and _sigma_of_vector(exps) == bits
    )
    for p in points:
        if sigma(p) != p:
            raise AssertionError(
                f"{p.text()}: fixed by the divisor sums of its exponent vector "
                f"{candidates[p.bits]}, not by sigma"
            )
    return points


# The sieve's stages in order, each mapping (the rows of the stage
# before, the stage-2 rule) to its own rows: (heads, blocks) for 1 and 2.
_STAGES = {
    "1": lambda _rows, _rule: _stage1_groups(),
    "2": _stage2_groups,
    "3": lambda groups2, _rule: _stage3_candidates(groups2),
    "final": lambda candidates, _rule: _fixed_points(candidates),
}


# ---------------------------------------------------------------------------
# The sieve driver.


class StageResult(NamedTuple):
    """Outcome of running the sieve up to one stage.

    tuples holds the requested stage's rows (integer tuples for stages
    1 and 2, candidate polynomials for stage 3 and final); stage_counts
    records every count computed on the way, and filter_diff carries,
    for each stage whose count missed its reference, the counts of the
    documented filter variants.
    """

    stage: str
    tuples: tuple
    count: int
    stage_counts: dict
    filter_diff: dict | None

    def matches_reference(self):
        """No stage count missed its reference (run_search records each
        miss in filter_diff), and a final stage found the reference names."""
        if self.filter_diff:
            return False
        if self.stage != "final":
            return True
        return sorted(map(label, self.tuples)) == sorted(FINAL_REFERENCE_NAMES)

    def to_json(self):
        if self.stage in ("3", "final"):
            rows = [p.text() for p in self.tuples]
        else:
            rows = [list(r) for r in self.tuples]
        body = {
            "stage": self.stage,
            "count": self.count,
            "stage_counts": dict(self.stage_counts),
            "matches_reference": self.matches_reference(),
            "rows": rows,
        }
        if self.stage == "final":
            body["names"] = [label(p) for p in self.tuples]
        if self.filter_diff:
            body["filter_diff"] = self.filter_diff
        return body

    def text(self):
        """Every stage count, then the candidates of stage 3 or final,
        catalog members tagged with their name."""
        lines = [f"stage={k} count={n}" for k, n in self.stage_counts.items()]
        if self.stage in ("3", "final"):
            for p in self.tuples:
                name = name_of(p)
                lines.append(p.text() + (f"  [{name}]" if name else ""))
        return "\n".join(lines)

    def notes(self):
        """Each divergent stage count with its filter variants' counts."""
        lines = []
        for key, d in (self.filter_diff or {}).items():
            lines.append(
                f"stage {key}: count {d['count']} differs from "
                f"reference {d['reference']}"
            )
            lines += [f"  variant {v}: {n}" for v, n in d.get("variants", {}).items()]
        return tuple(lines)


def run_search(stage, stage2_rule="uniform", jobs=1) -> StageResult:
    """Run the sieve through the requested stage ("1", "2", "3", "final").

    Stage 2 filters the slot exponents stage 1 computed, under the
    rule stage2_rule names in STAGE2_RULES: "uniform" bounds every
    divisor-sum slot the way the first one is bounded, "strict" holds
    the later slots to their own domain, exponents 0 and 1.
    Counts for each computed stage are recorded and compared against
    REFERENCE_STAGE_COUNTS by matches_reference; a divergent stage gets
    the counts of its filter variants spelled out in filter_diff.

    The stages run one after another in the calling process.  jobs is
    accepted only so existing callers keep working; it is ignored.
    """
    key = str(stage).lower()
    if key not in _STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    if stage2_rule not in STAGE2_RULES:
        raise ValueError(f"unknown stage-2 rule {stage2_rule!r}")
    counts, diff, rows = {}, {}, None
    for name, step in _STAGES.items():
        previous, rows = rows, step(rows, stage2_rule)
        counts[name] = _size(rows) if name in ("1", "2") else len(rows)
        reference = REFERENCE_STAGE_COUNTS.get(name)
        if reference is not None and counts[name] != reference:
            diff[name] = {"reference": reference, "count": counts[name]}
            if name == "2":
                diff[name]["rule"] = stage2_rule
                # A rule no wider than stage2_rule keeps a subset of its rows.
                within = STAGE2_RULES[stage2_rule].issuperset
                diff[name]["variants"] = {
                    rule: counts[name] if rule == stage2_rule else _size(_stage2_groups(
                        rows if within(STAGE2_RULES[rule]) else previous, rule))
                    for rule in STAGE2_RULES
                }
        previous = None  # only stage 2's variant count reads the rows before it
        if name == key:
            break
    if key in ("1", "2"):
        heads, blocks = rows
        rows = (head + part[:4 if key == "1" else None] for head, i in heads for part in blocks[i])
    elif key == "3":
        rows = map(Poly, rows)
    return StageResult(key, tuple(rows), counts[key], counts, diff or None)


# ---------------------------------------------------------------------------
# Divisor-sum factor tables over the fixed prime family.


class SigmaTable(NamedTuple):
    """Rows (h, factors) where sigma(base^(2h)) splits over the family."""

    base: Poly
    h_max: int
    rows: tuple

    def to_json(self):
        return {
            "base": label(self.base),
            "h_max": self.h_max,
            "rows": [
                {"h": h, "factors": fm.factors_json()}
                for h, fm in self.rows
            ],
        }

    def text(self):
        lines = [f"base {label(self.base)}  (h up to {self.h_max})"]
        if not self.rows:
            lines.append("  no rows")
        for h, fm in self.rows:
            lines.append(f"  h={h}: {fm.text()}")
        return "\n".join(lines)


_BASE_SETS = {
    "linear": lambda: (X, X1),
    "mersenne": mersenne_family,
    "two-mersenne": two_mersenne_family,
}


def sigma_factor_tables(base_set):
    """One SigmaTable per base in the named set.

    base_set is "linear", "mersenne" or "two-mersenne".  For each base
    S the scan covers 1 <= h <= floor(D / (2 deg S)) with D the total
    degree of the odd prime family, keeping the rows where
    sigma(S^(2h)) factors completely over that family.  A base whose
    bar partner came first takes the partner's rows through bar: the
    family is closed under bar, and the budget reads only degrees.
    """
    key = base_set.replace("_", "-").lower()
    if key not in _BASE_SETS:
        raise ValueError(f"unknown base set {base_set!r}")
    family = prime_family()
    tables, scanned = [], {}
    for base in _BASE_SETS[key]():
        h_max = admissibility_budget(family, base)
        partner = scanned.get(_bar(base.bits))
        if partner is None:
            rows = tuple(split_divisor_sums(base, h_max, family))
        else:
            rows = tuple((h, FactorMap((_bar(p.bits), k) for p, k in fm)) for h, fm in partner)
        scanned[base.bits] = rows
        tables.append(SigmaTable(base, h_max, rows))
    return tuple(tables)


# ---------------------------------------------------------------------------
# Reciprocal exploration.


class ReciprocalEntry(NamedTuple):
    """One irreducible 1 + x^a (x+1)^b M1^c and where its reciprocal lands."""

    a: int
    b: int
    c: int
    poly: Poly
    name: str | None
    star_kind: str
    star: Poly
    star_name: str | None

    def text(self):
        return (
            f"(a={self.a}, b={self.b}, c={self.c}) {label(self.poly)}: "
            f"reciprocal is {label(self.star)} [{self.star_kind}]"
        )


class ReciprocalReport(NamedTuple):
    max_abc: int
    entries: tuple

    def of_kind(self, kind):
        return tuple(e for e in self.entries if e.star_kind == kind)

    def star_mersenne_map(self):
        """Entries whose reciprocal drops the M1 power, as a name map."""
        return {label(e.poly): label(e.star) for e in self.of_kind("mersenne")}

    def self_reciprocal_names(self):
        return tuple(label(e.poly) for e in self.of_kind("self"))

    def star_pairs(self):
        """Unordered pairs swapped by the reciprocal, by name."""
        swapped = self.of_kind("two_mersenne")
        pairs = {tuple(sorted((label(e.poly), label(e.star)))) for e in swapped}
        return tuple(sorted(pairs))

    def text(self):
        drops = self.star_mersenne_map().items()
        return "\n".join(
            [e.text() for e in self.entries]
            + [
                f"entries: {len(self.entries)}",
                f"self-reciprocal: {', '.join(self.self_reciprocal_names()) or '-'}",
                "reciprocal drops the M1 power: "
                + (", ".join(f"{k} -> {v}" for k, v in drops) or "-"),
                "swapped pairs: "
                + (", ".join(f"({a}, {b})" for a, b in self.star_pairs()) or "-"),
            ]
        )

    def to_json(self):
        return {
            "max_abc": self.max_abc,
            "entries": [
                {**e._asdict(), "poly": e.poly.text(), "star": e.star.text()}
                for e in self.entries
            ],
        }


def explore_reciprocal(max_abc=6):
    """Classify reciprocals of irreducibles 1 + x^a (x+1)^b M1^c.

    Sweeps 1 <= a, b, c <= max_abc <= MAX_RECIPROCAL_ABC with
    gcd(a, b, c) = 1, keeps the irreducible values, and sorts each
    one's reciprocal into "self", "mersenne" (the reciprocal is
    1 + x^a' (x+1)^b'), "two_mersenne" (an M1 power survives reversal)
    or "outside" (anything else).
    """
    if not 1 <= max_abc <= MAX_RECIPROCAL_ABC:
        raise ValueError(f"max_abc must be between 1 and {MAX_RECIPROCAL_ABC}")
    entries = []
    for a, b, c in product(range(1, max_abc + 1), repeat=3):
        if math.gcd(a, b, c) != 1:
            continue
        p = _shape(a, b, c)
        if not is_irreducible(p):
            continue
        q = star(p)
        body = _split_linear(q.bits ^ 1)[2]
        if q == p:
            kind = "self"
        elif body == 1:
            kind = "mersenne"
        elif _strip(body, _M1_BITS)[0] == 1:
            kind = "two_mersenne"
        else:
            kind = "outside"
        entries.append(ReciprocalEntry(a, b, c, p, name_of(p), kind, q, name_of(q)))
    return ReciprocalReport(max_abc, tuple(entries))


# ---------------------------------------------------------------------------
# Split identities.


class IdentityFamily(NamedTuple):
    """Sweep outcome for one identity: solutions found vs parameterized."""

    label: str
    found: tuple
    expected: tuple

    @property
    def ok(self):
        return self.found == self.expected

    def to_json(self):
        return {
            "label": self.label,
            "ok": self.ok,
            "found": [list(t) for t in self.found],
            "expected": [list(t) for t in self.expected],
        }


class IdentityReport(NamedTuple):
    max_exp: int
    families: tuple

    @property
    def ok(self):
        return all(f.ok for f in self.families)

    def text(self):
        return "\n".join(
            f"[{'ok' if f.ok else 'MISMATCH'}] {f.label}  ({len(f.found)} solutions)"
            for f in self.families
        )

    def notes(self):
        """The solutions each family found but does not parameterize,
        and those it parameterizes but did not find."""
        lines = []
        for f in self.families:
            extra = set(f.found) - set(f.expected)
            missing = set(f.expected) - set(f.found)
            if extra:
                lines.append(f"    unexpected: {sorted(extra)}")
            if missing:
                lines.append(f"    missing: {sorted(missing)}")
        return tuple(lines)

    def to_json(self):
        return {
            "max_exp": self.max_exp,
            "ok": self.ok,
            "families": [f.to_json() for f in self.families],
        }


def _powers_of_two(limit):
    return [1 << i for i in range(limit.bit_length())]


def _solve_linear(bits):
    """x^b (x+1)^c, with b the trailing zeros of bits != 0 and b + c its degree:
    (x+1)^c is odd with 2^popcount(c) terms (Lucas), so the term screen drops
    no solution, and one comparison with x^b (x+1)^c decides the rest."""
    b = (bits & -bits).bit_length() - 1
    c = bits.bit_length() - 1 - b
    screened = (bits >> b).bit_count() == 1 << c.bit_count()
    return (b, c) if screened and bits == _linear(b, c) else None


def _solve_x_power(bits):
    """x^c."""
    return (bits.bit_length() - 1,) if bits & (bits - 1) == 0 else None


def _solve_x_m1(bits):
    """x^b (x^2+x+1)^c."""
    b = (bits & -bits).bit_length() - 1
    cofactor, c = _strip(bits >> b, _M1_BITS)
    return (b, c) if cofactor == 1 else None


def _x1_m1_rows(x1_pow, span):
    """((a, b), (x+1)^a (x^2+x+1)^b + 1) for a, b in span, b fastest;
    each row of fixed a steps b by one multiplication by x^2+x+1,
    v + xv + x^2 v, in place of a general product."""
    for a in span:
        v = x1_pow[a]
        for b in span:
            v ^= (v << 1) ^ (v << 2)
            yield (a, b), v ^ 1


def verify_split_identities(max_exp=32):
    """Sweep the five split identities and compare with their families.

    Each identity relates powers of x, x+1 and x^2+x+1.  The sweep
    enumerates every left-hand side with exponents from 1 up to
    max_exp (4 to MAX_IDENTITY_EXP), solves for the right-hand
    parameters exactly, and checks that the solution set equals the
    parameterized family restricted to the same range; set equality
    covers both directions of each equivalence.
    """
    if max_exp < 4:
        raise ValueError("max_exp below 4 leaves families nearly empty")
    if max_exp > MAX_IDENTITY_EXP:
        raise ValueError(f"max_exp must be at most {MAX_IDENTITY_EXP}")
    e = max_exp
    x1_pow, m1_pow = [1], [1]
    for _ in range(e):
        x1_pow.append(_mul(x1_pow[-1], X1.bits))
        m1_pow.append(_mul(m1_pow[-1], _M1_BITS))
    span = range(1, e + 1)
    ks = _powers_of_two(e)
    # (label, (left-hand parameters, bits) over the sweep, solver giving
    # the right-hand parameters the bits have or None, parameterized family)
    identities = (
        ("1 + (x^2+x+1)^a = x^b (x+1)^c",
         (((a,), m1_pow[a] ^ 1) for a in span),
         _solve_linear,
         [(k, k, k) for k in ks]),
        ("(x+1)^a + (x^2+x+1)^b = x^c",
         (((a, b), x1_pow[a] ^ m1_pow[b]) for a, b in product(span, span)),
         _solve_x_power,
         [t for k in ks for t in ((k, k, 2 * k), (2 * k, k, k), (3 * k, k, 3 * k))
          if t[0] <= e]),
        ("(x+1)^a (x^2+x+1)^b = 1 + x^c",
         _x1_m1_rows(x1_pow, span),
         _solve_x_power,
         [(k, k, 3 * k) for k in ks]),
        ("(x+1)^a + (x+1)^b = x^c (x+1)^d",
         (((a, b), x1_pow[a] ^ x1_pow[b]) for a in span for b in range(a + 1, e + 1)),
         _solve_linear,
         [(a, a + k, k, a) for a in span for k in _powers_of_two(e - a)]),
        ("1 + (x+1)^a = x^b (x^2+x+1)^c",
         (((a,), x1_pow[a] ^ 1) for a in span),
         _solve_x_m1,
         [(k, k, 0) for k in ks] + [(3 * k, k, k) for k in _powers_of_two(e // 3)]),
    )
    families = []
    for name, sums, solve, expected in identities:
        found = [params + rhs for params, bits in sums if (rhs := solve(bits)) is not None]
        families.append(IdentityFamily(name, tuple(sorted(found)), tuple(sorted(expected))))
    return IdentityReport(e, tuple(families))


# ---------------------------------------------------------------------------
# Chain-length scan.


class ConjectureRow(NamedTuple):
    h: int
    factors: FactorMap
    witness: Poly | None


class ConjectureScan(NamedTuple):
    """Chain-length witnesses in sigma(base^(2h)) for 2 <= h <= h_max.

    threshold is the minimum chain length that counts as a witness.
    Rows without one are the interesting outcome; counterexample_rows
    collects them.
    """

    base: Poly
    h_max: int
    threshold: int
    rows: tuple

    @property
    def counterexample_rows(self):
        return tuple(r for r in self.rows if r.witness is None)

    def to_json(self):
        return {
            "base": label(self.base),
            "h_max": self.h_max,
            "threshold": self.threshold,
            "rows": [
                {
                    "h": r.h,
                    "factors": r.factors.factors_json(),
                    "witness": None if r.witness is None else label(r.witness),
                }
                for r in self.rows
            ],
            "counterexamples": [r.h for r in self.counterexample_rows],
        }

    def text(self):
        lines = [
            f"base {label(self.base)}: hunting factors of chain length >= "
            f"{self.threshold} in sigma(base^(2h)), h = 2 .. {self.h_max}"
        ]
        for r in self.rows:
            if r.witness is None:
                lines.append(f"  h={r.h}: NO WITNESS in {r.factors.text()}")
            else:
                lines.append(f"  h={r.h}: witness {label(r.witness)}")
        return "\n".join(lines)

    def notes(self):
        hs = [r.h for r in self.counterexample_rows]
        return (f"{label(self.base)}: no witness at h = {hs}",) if hs else ()


def conjecture_scan(base, h_max=20):
    """Factor sigma(base^(2h)) for each h and hunt a long-chain witness.

    h runs from 2 to h_max <= MAX_SCAN_H, 2 * h_max * deg(base) is at
    most MAX_SCAN_DEGREE, and the base must be an odd irreducible
    polynomial.  For a base whose own chain length is 1 a
    witness is any prime factor of chain length at least 2; for longer
    bases the bar rises to one past the base's length, floored at 3.
    The first qualifying prime in canonical order is recorded per row;
    linear primes never qualify.
    """
    if not 2 <= h_max <= MAX_SCAN_H:
        raise ValueError(f"h_max must be between 2 and {MAX_SCAN_H}")
    if 2 * h_max * base.degree > MAX_SCAN_DEGREE:
        raise ValueError(f"2 * h_max * deg(base) must be at most {MAX_SCAN_DEGREE}")
    if base.degree < 2 or not is_irreducible(base):
        raise ValueError("scan base must be an odd irreducible polynomial")
    own = chain_length(base)
    threshold = 2 if own == 1 else max(3, own + 1)
    rows = []
    for h in range(2, h_max + 1):
        fm = _divisor_sum_factors(base.bits, 2 * h)
        hits = (p for p, _ in fm if p.degree >= 2 and chain_length(p) >= threshold)
        rows.append(ConjectureRow(h, fm, next(hits, None)))
    return ConjectureScan(base, h_max, threshold, tuple(rows))
