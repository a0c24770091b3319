"""The benchmark's three closed-loop workloads and their output checks.

A workload is a sequence of passes.  Each pass is a fixed list of
operations built from the workload seed and the pass index; inputs
are generated before the pass is timed, so the program only ever sees
the finished inputs.  Every operation returns a result that the
workload's check compares, outside the timed region, with an oracle
kept in this file or with digests recorded from the parent commit in
``expected.json``.

Calls into the package go through module attributes
(``factorize.factor_full`` rather than a name imported here), so the
span recorder sees them when a traced run has wrapped those
attributes.  The checks use the functions bound at import time below,
which the recorder never replaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gf2perfect
from gf2perfect import catalog, cli, factorize, search
from gf2perfect.factorize import factor_full as _factor_full_ref

# The package re-exports the function sigma under the submodule's name.
sigma = importlib.import_module("gf2perfect.sigma")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The seed whose random sweep inputs have recorded output digests.
DEFAULT_SEED = 1

FINAL_NAMES = ("T11", "T2", "T4", "T5", "T7", "T8")

# Operations per pass of the factor workload: (kind, degree, count).
# The cost of factoring a random polynomial swings widely with the
# degrees of its factors; many small operations and a single degree-1000
# one per pass keep a run's median pass steady from seed to seed.
FACTOR_MIX = (("d250", 250, 16), ("d500", 500, 4), ("d1000", 1000, 1))
IRRED_DEGREE = 128
IRRED_PER_PASS = 32

# Exploratory verbs driven through the CLI on every sweeps pass.
SWEEP_VERBS = (
    ("tables",),
    ("conjecture",) + tuple(f"M{i}" for i in range(1, 14)) + ("--hmax", "20"),
    ("reciprocal", "--max-abc", "10"),
    ("identities", "--max-exp", "128"),
    ("admissible", "M1", "M2", "M3"),
    ("verify-catalog",),
)
ODD_PRIME_NAMES = tuple(f"M{i}" for i in range(1, 14)) + tuple(
    f"S{j}" for j in range(1, 16)
)
SWEEP_RANDOM_PER_PASS = 8
SWEEP_RANDOM_DEGREE = 300
SWEEP_NAMES_PER_PASS = 4


@dataclass
class Op:
    """One operation: what it is, how to run it, how to check its result.

    ``check`` returns None when the result is right and otherwise a
    one-line reason.  It may read and write ``context``, a dict shared
    by the operations of one pass.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]


class Tally:
    """Operations attempted and those whose output failed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(error)
            print(f"check failed: {error}", file=sys.stderr)


def run_pass(ops, tally, recorder=None):
    """Run operations in order and check each output into ``tally``.

    A raising operation or check counts as a failed operation.  While a
    check runs, ``recorder`` (a span recorder or None) is paused.
    Returns {kind: busy seconds}, the time of the operations alone,
    without input generation or checks.
    """
    context = {}
    busy = {}
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        busy[op.kind] = busy.get(op.kind, 0.0) + time.perf_counter() - start
        if error is None:
            if recorder is not None:
                recorder.paused = True
            try:
                error = op.check(result, context)
            except Exception as exc:
                error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            finally:
                if recorder is not None:
                    recorder.paused = False
        tally.add(error)
    return busy


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Oracles on bare ints, independent of the package kernels.


def clmul(a, b):
    """Carry-less product by the shift-and-XOR loop."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def horner_sigma(p, e):
    """1 + p + ... + p^e for bare-int p, summed by Horner's rule."""
    acc = 1
    for _ in range(e):
        acc = clmul(acc, p) ^ 1
    return acc


# ---------------------------------------------------------------------------
# sieve


def sieve_pass(seed, index, expected):
    """One run_search("final") with jobs=1.

    The sieve takes no input, so the seed changes nothing here.  Stage
    2 misses its reference, which makes every pass also count the
    strict variant.
    """

    def call():
        return search.run_search("final", jobs=1)

    def check(res, context):
        names = tuple(sorted(catalog.name_of(p) or p.text() for p in res.tuples))
        if names != FINAL_NAMES:
            return f"final set {names}"
        got = digest(json.dumps(res.to_json(), sort_keys=True))
        if got != expected["sieve"]:
            return f"search JSON digest {got} != {expected['sieve']}"
        return None

    return [Op("run_search", call, check)]


# ---------------------------------------------------------------------------
# factor


def random_poly(rng, degree):
    return gf2perfect.Poly((1 << degree) | rng.getrandbits(degree))


def factor_op(kind, p):
    def call():
        fm = factorize.factor_full(p)
        return fm, sigma.sigma_of_factor_map(fm)

    def check(result, context):
        fm, sig = result
        product = 1
        horner = 1
        for prime, exp in fm:
            if prime.degree < 1:
                return f"constant factor in {kind} factorization"
            for _ in range(exp):
                product = clmul(product, prime.bits)
            horner = clmul(horner, horner_sigma(prime.bits, exp))
        if product != p.bits:
            return f"{kind}: factors do not multiply back to the input"
        if sig.bits != horner:
            return f"{kind}: sigma from the factor map disagrees with Horner"
        return None

    return Op(kind, call, check)


def irreducible_op(p):
    def call():
        return factorize.is_irreducible(p)

    def check(verdict, context):
        entries = _factor_full_ref(p).entries
        truth = len(entries) == 1 and entries[0][1] == 1
        if verdict is not truth:
            return f"irred{IRRED_DEGREE}: verdict {verdict} but factorization says {truth}"
        return None

    return Op(f"irred{IRRED_DEGREE}", call, check)


def factor_ops(rng, mix=FACTOR_MIX, irreducible=IRRED_PER_PASS):
    ops = []
    for kind, degree, count in mix:
        ops.extend(factor_op(kind, random_poly(rng, degree)) for _ in range(count))
    for _ in range(irreducible):
        p = gf2perfect.Poly((1 << IRRED_DEGREE) | rng.getrandbits(IRRED_DEGREE) | 1)
        ops.append(irreducible_op(p))
    return ops


def factor_pass(seed, index, expected):
    """Seeded random polynomials, fresh on every pass, so no cache helps."""
    return factor_ops(random.Random(f"factor:{seed}:{index}"))


# ---------------------------------------------------------------------------
# sweeps


def run_cli(argv):
    """cli.main on argv with --json; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv) + ["--json"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def random_odd_hex(rng, degree):
    """An odd polynomial (no root at 0 or 1) of the given degree, in hex."""
    bits = (1 << degree) | rng.getrandbits(degree) | 1
    if bits.bit_count() % 2 == 0:
        bits ^= 2
    return hex(bits)


def sweep_inputs(seed, index):
    """Argument lists of one sweeps pass: fixed verbs, then seeded ones."""
    rng = random.Random(f"sweeps:{seed}:{index}")
    argvs = [tuple(v) for v in SWEEP_VERBS]
    for _ in range(SWEEP_RANDOM_PER_PASS):
        text = random_odd_hex(rng, SWEEP_RANDOM_DEGREE)
        argvs += [("repr", text), ("classify", text)]
    for name in rng.sample(ODD_PRIME_NAMES, SWEEP_NAMES_PER_PASS):
        argvs += [("repr", name), ("classify", name)]
    return argvs


def output_key(argv):
    return " ".join(argv)


def output_digest(code, stdout):
    return digest(f"{code}\n{stdout}")


def sweep_op(argv, recorded):
    key = output_key(argv)
    random_input = argv[1].startswith("0x") if len(argv) > 1 else False

    def call():
        return run_cli(argv)

    def check(result, context):
        code, stdout = result
        if code != 0:
            return f"{key}: exit code {code}"
        if key in recorded:
            got = output_digest(code, stdout)
            if got != recorded[key]:
                return f"{key}: output digest {got} != {recorded[key]}"
        if not random_input:
            return None if key in recorded else f"{key}: no recorded output"
        # Outputs for seeds without recorded digests: the chain pairs
        # telescope to the degree, and classify agrees with repr.
        body = json.loads(stdout)
        degree = int(argv[1], 16).bit_length() - 1
        if argv[0] == "repr":
            if sum(a + b for a, b in body["pairs"]) != degree:
                return f"{key}: repr pairs do not sum to degree {degree}"
            if body["length"] != len(body["pairs"]):
                return f"{key}: repr length disagrees with its pairs"
            context[argv[1]] = body["length"]
        elif body["k"] != context.get(argv[1]):
            return f"{key}: classify k={body['k']} but repr length {context.get(argv[1])}"
        return None

    return Op(argv[0], call, check)


def sweeps_pass(seed, index, expected):
    """Exploratory verbs through the CLI, plus seeded repr and classify."""
    recorded = expected["sweeps"]
    return [sweep_op(argv, recorded) for argv in sweep_inputs(seed, index)]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {"sieve": sieve_pass, "factor": factor_pass, "sweeps": sweeps_pass}
