"""Cold start of the package: launch fresh interpreters and time them.

Three kinds of launch run in turn, N times each:

    bare     python -c pass
    package  import gf2perfect; gf2perfect.catalog_constants()
    cli      import gf2perfect.cli; gf2perfect.catalog_constants()

and the median wall time of each is printed in ms, with the package
and cli launches also as their distance above the bare interpreter.
Then N more ``cli`` launches run under ``-X importtime``, and the
median self time of each gf2perfect module is printed.  Given several
``--src`` trees, the launches of all of them alternate, so that drift
in the machine's speed falls on each tree alike.  Uses only the
standard library:

    python3 tools/coldstart.py                         # this checkout
    python3 tools/coldstart.py --src ../old/src --src src -n 31

The environment is passed through unchanged, so whether the launches
compile the sources or read cached bytecode follows the caller's
PYTHONDONTWRITEBYTECODE and the state of ``__pycache__``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from srctrees import parse_trees

LAUNCHES = {
    "bare": "pass",
    "package": "import gf2perfect; gf2perfect.catalog_constants()",
    "cli": "import gf2perfect.cli; gf2perfect.catalog_constants()",
}


def _run(args, env):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return time.perf_counter() - start, done.stderr


def _self_times(stderr):
    """{module: self µs} of the gf2perfect modules in -X importtime output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "gf2perfect" or name.startswith("gf2perfect."):
            times[name] = int(fields[0])
    return times


def main(argv=None):
    launches, envs = parse_trees(__doc__, 21, "launches of each kind", argv)

    # One untimed launch of each kind warms the file cache.
    for env in envs.values():
        for code in LAUNCHES.values():
            _run(["-c", code], env)
    walls = {(src, kind): [] for src in envs for kind in LAUNCHES}
    selfs = {src: {} for src in envs}
    for _ in range(launches):
        for src, env in envs.items():
            for kind, code in LAUNCHES.items():
                walls[src, kind].append(_run(["-c", code], env)[0])
            stderr = _run(["-X", "importtime", "-c", LAUNCHES["cli"]], env)[1]
            for name, us in _self_times(stderr).items():
                selfs[src].setdefault(name, []).append(us)

    for src in envs:
        medians = {kind: statistics.median(walls[src, kind]) * 1e3 for kind in LAUNCHES}
        print(f"{src}: median of {launches} launches, ms")
        for kind, ms in medians.items():
            above = "" if kind == "bare" else f"  (+{ms - medians['bare']:.1f} over bare)"
            print(f"  {kind:8} {ms:7.1f}{above}")
        print("  -X importtime self time of the cli launch, median ms")
        ranked = sorted(selfs[src].items(), key=lambda kv: -statistics.median(kv[1]))
        for name, us in ranked:
            print(f"    {name:22} {statistics.median(us) / 1e3:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
