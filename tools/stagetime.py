"""Sieve stage times: each stage timed on its own input, in fresh interpreters.

Every launch imports gf2perfect.search from one tree and first times

    first    run_search("final"), once, before anything else runs

which pays for the process's one-time work, such as building the
divisor-sum slot table; it gives one sample per launch.  The launch
then builds each stage's input once through the stage table
search._STAGES, whose entries are (step, size) pairs: step maps (the
stage before's rows, the stage-2 rule) to a stage's rows, and size
counts them.  It times these calls, each after one untimed call:

    stage1   size1(step1(None, "uniform")): the stage-1 rows and their count
    stage2   size2(step2(rows1, "uniform"))
    strict   the count of the "strict" rule's stage-2 rows, as run_search
             makes it for filter_diff: _count(rows1, "strict")
    stage3   step3(rows2, "uniform")
    final    step_final(candidates, "uniform")
    search   run_search("final")

Older trees, whose entries are the step alone and whose run_search
counts stages 1 and 2 with _size, run too: size is _size there, and
strict is _size(step2(rows2, "strict")), the "strict" rule over the
uniform stage-2 rows, which is what those trees count.  No stage time
is the difference of two cumulative runs, so none can read below
zero.  The median ms of each call over all launches and repeats is
printed per tree.  Given several ``--src`` trees, the launches of all
of them alternate, so that drift in the machine's speed falls on each
tree alike.  Uses only the standard library:

    python3 tools/stagetime.py                         # this checkout
    python3 tools/stagetime.py --src ../old/src --src src -n 11
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from srctrees import parse_trees

# Timed calls of each step per launch.
REPEATS = 7

STEPS = ("first", "stage1", "stage2", "strict", "stage3", "final", "search")

CHILD = f"""
import json, time
from gf2perfect import search as s
start = time.perf_counter()
s.run_search("final")
times = {{"first": [time.perf_counter() - start]}}
stage = [entry if isinstance(entry, tuple) else (entry, s._size) for entry in s._STAGES.values()]
(step1, size1), (step2, size2), (step3, _), (final, _) = stage
rows1 = step1(None, "uniform")
rows2 = step2(rows1, "uniform")
candidates = step3(rows2, "uniform")
if hasattr(s, "_count"):
    strict = lambda: s._count(rows1, "strict")
else:
    strict = lambda: s._size(step2(rows2, "strict"))
calls = dict(zip({STEPS[1:]!r}, (
    lambda: size1(step1(None, "uniform")),
    lambda: size2(step2(rows1, "uniform")),
    strict,
    lambda: step3(rows2, "uniform"),
    lambda: final(candidates, "uniform"),
    lambda: s.run_search("final"),
)))
for name, call in calls.items():
    call()
    times[name] = []
    for _ in range({REPEATS}):
        start = time.perf_counter()
        call()
        times[name].append(time.perf_counter() - start)
print(json.dumps(times))
"""


def main(argv=None):
    launches, envs = parse_trees(__doc__, 5, "launches per tree", argv)

    samples = {src: {step: [] for step in STEPS} for src in envs}
    for _ in range(launches):
        for src, env in envs.items():
            done = subprocess.run(
                [sys.executable, "-c", CHILD],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            for step, times in json.loads(done.stdout).items():
                samples[src][step] += times

    trees = list(envs)
    for i, src in enumerate(trees, start=1):
        print(f"[{i}] {src}")
    print(f"median ms of {launches} launches x {REPEATS} calls (first: 1 call)")
    print(f"  {'step':8}" + "".join(f"{f'[{i}]':>9}" for i in range(1, len(trees) + 1)))
    for step in STEPS:
        cells = (statistics.median(samples[src][step]) * 1e3 for src in trees)
        print(f"  {step:8}" + "".join(f"{ms:9.1f}" for ms in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
