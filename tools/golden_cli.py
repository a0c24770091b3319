"""Golden record of the CLI: exit code and output digests of fixed invocations.

Runs each invocation in GOLDEN through ``gf2perfect.cli.main``, once in
text mode and once with ``--json``, and prints one line per run: the
exit code, the sha256 of stdout, the sha256 of stderr and the
arguments.  The output is committed as tests/golden_cli.txt, which
tests/test_cli.py re-runs and compares, naming each invocation that
moved.  A change that moves CLI output on purpose rewrites it with

    PYTHONPATH=src python3 tools/golden_cli.py > tests/golden_cli.txt

and two checkouts agree when their outputs are identical:

    PYTHONPATH=/path/to/other/src python3 tools/golden_cli.py > before.txt
    diff before.txt tests/golden_cli.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from unittest import mock

from gf2perfect.cli import main

# A fixed dense degree-1000 input for the wide factoring kernels.
WIDE_HEX = hex((1 << 1000) | random.Random(1000).getrandbits(1000))

GOLDEN = tuple(
    ("search", "--stage", stage, "--rule", rule)
    for rule in ("uniform", "strict")
    for stage in ("1", "2", "3", "final")
) + (
    ("search",),
    ("search", "--jobs", "2"),
    ("sigma", "T5"),
    ("sigma", "M1"),
    ("factor", "x^6+x^5+x^3+x^2"),
    ("repr", "S7"),
    ("classify", "S3"),
    ("classify", "M4"),
    # A 2-step prime whose cofactor is no Mersenne power: k=2, no shape.
    ("classify", "x^7+x^5+x^2+x+1"),
    ("verify-catalog",),
    ("tables",),
    ("reciprocal",),
    ("reciprocal", "--max-abc", "8"),
    ("identities",),
    ("identities", "--max-exp", "64"),
    # The bound the sweeps benchmark runs.
    ("identities", "--max-exp", "128"),
    # The lowest bound accepted.
    ("identities", "--max-exp", "4"),
    # The default --hmax, 20.
    ("conjecture", "M1"),
    ("conjecture", "M1", "--hmax", "8"),
    ("conjecture", "M1", "M4", "--hmax", "12"),
    ("admissible", "M1", "M2", "M3"),
    ("admissible", "M1", "M2", "M3", "--budget", "128"),
    ("admissible", "S11"),
    ("admissible", "S11", "--budget", "128"),
    # A member whose reciprocal stays in the family.
    ("admissible", "M4"),
    # sigma(S1^2) = M4 M5, which splits over the extended family.
    ("admissible", "S1", "M4", "M5"),
    # One large member: the degree rule scans x and x+1 to h = 731, and
    # the degree screen skips most of those rows before any gcd.
    ("admissible", "x^1279+x^216+1"),
    # One family per mixed outcome: only (iii) holds, only (i) holds,
    # only (ii) holds through x+1, and none holds, with passing and
    # failing members under both (i) and (iii).
    ("admissible", "M2"),
    ("admissible", "S1"),
    ("admissible", "S6"),
    ("admissible", "M2", "S1"),
    ("factor", WIDE_HEX),
    ("sigma", WIDE_HEX),
    ("conjecture", "M1", "M4", "M13", "--hmax", "20"),
    # A degree-127 prime base: no block of the distinct-degree walk up
    # to degree 63 finds a factor, so the test accepts.
    ("conjecture", "x^127+x+1", "--hmax", "2"),
    # The same base's degree-2032 divisor sums, and two wide Mersenne
    # scans: 2h+1 runs to 81, so many degree steps come from composite
    # 2h+1.
    ("conjecture", "x^127+x+1", "--hmax", "8"),
    ("conjecture", "M12", "M13", "--hmax", "40"),
    # (x^2+x+1)^2 divides sigma(base^8) and sigma(base^14): a repeated
    # prime inside one cyclotomic piece.
    ("conjecture", "x^5+x^3+x^2+x+1", "--hmax", "8"),
    # (x^17+x^3+1)(x^20+x^3+1): below degree 44 each block of the walk
    # is one degree; nothing is found through degree 16, and degree 17
    # finds x^17+x^3+1, so the test rejects.
    ("conjecture", "0x2000820041", "--hmax", "2"),
    # Failing and exit-1 paths.
    ("sigma", "0"),
    ("factor", "0"),
    ("repr", "x^2"),
    ("classify", "1"),
    ("tables", "bogus"),
    ("reciprocal", "--max-abc", "17"),
    ("identities", "--max-exp", "3"),
    ("conjecture", "x^4"),
    ("conjecture", "M1", "--hmax", "41"),
    # Row h=2 has no witness: a note on stderr and exit 1.
    ("conjecture", "S14", "--hmax", "6"),
    ("admissible", "x"),
    ("admissible", "M1", "--budget", "0"),
    # 2 * 128 * 3217 is over MAX_SIGMA_DEGREE: exit 2 before any scan.
    ("admissible", "x^3217+x^67+1", "--budget", "128"),
    # 2281 is over MAX_FAMILY_DEGREE: exit 2 before any irreducibility test.
    ("admissible", "x^2281+x^715+1"),
    ("admissible", "M6"),
    ("sigma", "x^5000"),
    ("factor", "x^"),
    # Help and the missing verb: text argparse formats from the parser.
    ("--help",),
    ("conjecture", "--help"),
    (),
) + tuple(
    (verb, "--help")
    for verb in (
        "sigma", "factor", "repr", "classify", "verify-catalog", "tables",
        "search", "reciprocal", "identities", "admissible",
    )
)


def run(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(before_each=lambda: None):
    """The record's lines: each invocation of GOLDEN in text and --json
    mode, each run after a call to before_each."""
    lines = []
    # argparse wraps its usage line to the terminal width.
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in GOLDEN:
            for mode in ((), ("--json",)):
                before_each()
                rc, out, err = run(argv + mode)
                args = " ".join(argv + mode)
                lines.append(f"{rc} {digest(out)} {digest(err)} {args}")
    return lines


if __name__ == "__main__":
    print("\n".join(record()))
