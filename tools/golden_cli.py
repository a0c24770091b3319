"""Golden check of the CLI: exit code and stdout digest of fixed invocations.

Runs each invocation in GOLDEN through ``gf2perfect.cli.main`` with
``--json`` and prints one line per invocation: the exit code, the
sha256 of stdout and the arguments.  Two checkouts agree when their
outputs are identical:

    PYTHONPATH=src python3 tools/golden_cli.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/golden_cli.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

from gf2perfect.cli import main

# A fixed dense degree-1000 input for the wide factoring kernels.
WIDE_HEX = hex((1 << 1000) | random.Random(1000).getrandbits(1000))

GOLDEN = tuple(
    ("search", "--stage", stage, "--rule", rule)
    for rule in ("uniform", "strict")
    for stage in ("1", "2", "3", "final")
) + (
    ("search", "--jobs", "2"),
    ("sigma", "T5"),
    ("factor", "x^6+x^5+x^3+x^2"),
    ("repr", "S7"),
    ("classify", "S3"),
    ("verify-catalog",),
    ("tables",),
    ("reciprocal", "--max-abc", "8"),
    ("identities", "--max-exp", "64"),
    ("conjecture", "M1", "M4", "--hmax", "12"),
    ("admissible", "M1", "M2", "M3"),
    ("factor", WIDE_HEX),
    ("sigma", WIDE_HEX),
    ("conjecture", "M1", "M4", "M13", "--hmax", "20"),
)


def run(argv):
    """(exit code, stdout) of one in-process invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


if __name__ == "__main__":
    for argv in GOLDEN:
        rc, out = run(argv + ("--json",))
        digest = hashlib.sha256(out.encode()).hexdigest()
        print(rc, digest, " ".join(argv))
