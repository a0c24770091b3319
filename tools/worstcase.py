"""Worst cases of the bounded verbs: each run at its caps, timed in fresh interpreters.

Each case is one CLI invocation at the largest input a cap of the
package admits, read from the first tree:

    MAX_INPUT_DEGREE     factor, sigma, repr and classify of a seeded
                         dense odd input of that degree
    MAX_SCAN_DEGREE      conjecture with 2 * hmax * deg(base) at the cap,
                         from degree 25 at --hmax MAX_SCAN_H to degree 512
    MAX_FAMILY_DEGREE    admissible of as many irreducibles of degree 12
                         as the cap holds, and of x^2044+x^45+1 alone
    MAX_IDENTITY_EXP     identities --max-exp at the cap
    MAX_RECIPROCAL_ABC   reciprocal --max-abc at the cap

The cases run one after another, each in its own child process
(python -m gf2perfect.cli ... --json, output discarded) that is killed
after TIMEOUT_S.  The median wall time of each case over its launches
is printed in seconds with its exit code, or TIMEOUT.  Given several
``--src`` trees, the launches of all of them alternate, so that drift
in the machine's speed falls on each tree alike.  Only one child runs
at a time, and the tool sets no priority, CPU affinity, resource limit
or other setting of the machine: the times include whatever else the
machine runs.  It is kept out of Tier-1, since the cases take seconds
each.  Uses only the standard library:

    python3 tools/worstcase.py                         # this checkout
    python3 tools/worstcase.py --src ../old/src --src src -n 3
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from srctrees import parse_trees

# Seconds a case may run before its child is killed.
TIMEOUT_S = 120

# Odd irreducible bases of the conjecture cases, one degree each.
SCAN_BASES = (
    "x^25+x^3+1",
    "x^64+x^4+x^3+x+1",
    "x^127+x+1",
    "x^256+x^10+x^5+x^2+1",
    "x^512+x^8+x^5+x^2+1",
)


def _cases(src):
    """(name, CLI arguments) of each case, the caps read from src."""
    sys.path.insert(0, src)
    from gf2perfect.catalog import MAX_FAMILY_DEGREE
    from gf2perfect.cli import MAX_INPUT_DEGREE
    from gf2perfect.factorize import is_irreducible
    from gf2perfect.gf2poly import Poly
    from gf2perfect.search import (
        MAX_IDENTITY_EXP,
        MAX_RECIPROCAL_ABC,
        MAX_SCAN_DEGREE,
        MAX_SCAN_H,
    )

    # Odd (no root 0 or 1), so that repr and classify accept it too.
    n = MAX_INPUT_DEGREE
    bits = (1 << n) | random.Random(n).getrandbits(n) | 1
    dense = hex(bits ^ (2 if bin(bits).count("1") % 2 == 0 else 0))
    cases = [(f"{verb} degree {n}", [verb, dense])
             for verb in ("factor", "sigma", "repr", "classify")]
    for text in SCAN_BASES:
        degree = Poly.parse(text).degree
        hmax = min(MAX_SCAN_H, MAX_SCAN_DEGREE // (2 * degree))
        cases.append((f"conjecture degree {degree} --hmax {hmax}",
                      ["conjecture", text, "--hmax", str(hmax)]))
    family = [b for b in range(1 << 12, 1 << 13) if is_irreducible(Poly(b))]
    family = family[:MAX_FAMILY_DEGREE // 12]
    cases.append((f"admissible {len(family)} of degree 12",
                  ["admissible", *map(hex, family)]))
    cases.append(("admissible x^2044+x^45+1", ["admissible", "x^2044+x^45+1"]))
    cases.append((f"identities --max-exp {MAX_IDENTITY_EXP}",
                  ["identities", "--max-exp", str(MAX_IDENTITY_EXP)]))
    cases.append((f"reciprocal --max-abc {MAX_RECIPROCAL_ABC}",
                  ["reciprocal", "--max-abc", str(MAX_RECIPROCAL_ABC)]))
    return cases


def _run(command, env):
    """(wall seconds or None on timeout, exit code) of one child.

    The wall runs until os.wait4 reaps the child: a blocking wait, so no
    poll loop rounds it up.  A timer kills the child at TIMEOUT_S."""
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, child.kill)
    timer.start()
    try:
        _pid, status, _usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if wall >= TIMEOUT_S:
        return None, None
    return wall, child.returncode


def main(argv=None):
    launches, envs = parse_trees(__doc__, 1, "launches of each case", argv)
    cases = _cases(str(Path(next(iter(envs))).resolve()))
    walls = {(src, name): [] for src in envs for name, _ in cases}
    codes = {}
    for _ in range(launches):
        for name, args in cases:
            for src, env in envs.items():
                wall, code = _run(
                    [sys.executable, "-m", "gf2perfect.cli", *args, "--json"], env)
                walls[src, name].append(wall)
                codes[src, name] = code
    width = max(len(name) for name, _ in cases)
    for src in envs:
        print(src)
        for name, _ in cases:
            times = walls[src, name]
            if None in times:
                shown = f"TIMEOUT after {TIMEOUT_S} s"
            else:
                shown = f"{statistics.median(times):8.3f} s  exit {codes[src, name]}"
            print(f"  {name:<{width}}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
