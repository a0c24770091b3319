"""Run one benchmark workload against the gf2perfect sources and report.

    python3 bench/run.py --workload sieve --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this file's
directory and the package is imported from its ``src/`` tree.  The
metric names, units and workloads are defined in ``BENCHMARK.json`` at
the root.

With ``--trace 0`` the run reports the end-to-end metrics: the median
set-up time of fresh interpreters launched during the run, the median
seconds per pass of the workload, both scaled to a reference host
speed (see ``calibrate.py``), and the peak resident memory of this
process, which runs only that workload.  With ``--trace 1`` it reports
the per-layer metrics instead: every second pass runs under the span
recorder, and the isolated layer rows of ``layers.py`` follow the
loop.

Every operation's output is checked outside the timed region.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the
run (and, when traced, every span) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# Set-up launches spread over a run, besides one warm-up launch; a
# launch waits for the pass in progress, so long passes get fewer.
SETUP_LAUNCHES = 24
# The irreducibility cache's size is read after this many passes
# following pass 0, so that it does not grow with the passes a run
# happens to fit into its seconds.
CACHE_SIZE_PASSES = 4
# Run by each set-up launch: import the package and build the catalog,
# which every CLI call pays.  Prints the catalog build time.
SETUP_CHILD = (
    "import time\n"
    "import gf2perfect\n"
    "start = time.perf_counter()\n"
    "gf2perfect.catalog_constants()\n"
    "print(time.perf_counter() - start)\n"
)


class SetupSampler:
    """Launches fresh interpreters that import the package and build the
    catalog, one at a time, spread over the run.

    Each launch's wall time is a set-up sample; the child reports how
    long its catalog build took.  A first launch, not recorded, warms
    the file cache.
    """

    def __init__(self, interval_s):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.env = env
        self.interval_s = interval_s
        self.walls = []
        self.scales = []
        self.builds = []
        self.last = None
        self.launch()
        self.walls.clear()
        self.scales.clear()
        self.builds.clear()

    def launch(self):
        before = calibrate.loop_s()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.scales.append(calibrate.scale(before, calibrate.loop_s()))
        self.builds.append(float(done.stdout))
        self.last = time.perf_counter()

    def launch_if_due(self):
        if time.perf_counter() - self.last >= self.interval_s:
            self.launch()


def measure(make_pass, seed, expected, seconds, tally, setup, recorder=None):
    """Closed loop: run passes until `seconds` of wall time have gone.

    Pass 0 runs first, untimed, to fill caches and finish lazy set-up.
    With a recorder, every second pass runs traced, and the loop runs
    at least CACHE_SIZE_PASSES passes after pass 0.  Returns the busy
    seconds of the untraced and of the traced passes, each as a pair
    (measured, scaled to the reference host speed), and the
    irreducibility cache's hits and misses over the traced passes and
    its size after pass CACHE_SIZE_PASSES (None in an untraced run that
    stopped before it).
    """
    from gf2perfect import factorize
    from workloads import run_pass

    cache = factorize._is_irreducible_bits.cache_info
    run_pass(make_pass(seed, 0, expected), tally)
    plain, traced = [], []
    cache_hits = cache_misses = 0
    cache_size = None
    deadline = time.perf_counter() + seconds
    index = 1
    loop_before = calibrate.loop_s()
    while (
        time.perf_counter() < deadline
        or not plain
        or (recorder is not None and (not traced or index <= CACHE_SIZE_PASSES))
    ):
        ops = make_pass(seed, index, expected)
        if recorder is not None and index % 2 == 0:
            before = cache()
            recorder.install()
            try:
                busy = sum(run_pass(ops, tally, recorder).values())
            finally:
                recorder.uninstall()
            after = cache()
            cache_hits += after.hits - before.hits
            cache_misses += after.misses - before.misses
            times = traced
        else:
            busy = sum(run_pass(ops, tally).values())
            times = plain
        loop_after = calibrate.loop_s()
        times.append((busy, busy * calibrate.scale(loop_before, loop_after)))
        if index == CACHE_SIZE_PASSES:
            cache_size = cache().currsize
        setup.launch_if_due()
        loop_before = loop_after
        index += 1
    return plain, traced, (cache_hits, cache_misses, cache_size)


def run_metadata():
    """Where and on what the run happened."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def traced_metrics(recorder, traced, cache_counts):
    """Per-pass call counts and self seconds of each traced function,
    plus the ratios read off the spans and the irreducibility cache.

    Self seconds are scaled by the median reference-speed factor of the
    traced passes.
    """
    rows = {}
    passes = len(traced)
    factor = statistics.median(scaled / busy for busy, scaled in traced)
    totals = recorder.totals()
    for name, (calls, self_s) in totals.items():
        rows[f"{name}.calls"] = calls / passes
        rows[f"{name}.self_s"] = self_s * factor / passes
    index = recorder.names.index("factorize.factor_over_family")
    calls = totals["factorize.factor_over_family"][0]
    rows["factorize.factor_over_family.hit_ratio"] = (
        recorder.non_none[index] / calls if calls else 0.0
    )
    hits, misses, size = cache_counts
    rows["factorize.irreducible_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    rows["factorize.irreducible_cache.size"] = size
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gf2perfect" / "__init__.py").is_file():
        print(f"bench: no gf2perfect package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import layers
    import workloads
    from spans import SpanRecorder

    expected = workloads.load_expected()
    make_pass = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    setup = SetupSampler(args.seconds / SETUP_LAUNCHES)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        plain, _, _ = measure(make_pass, args.seed, expected, args.seconds, tally, setup)
        metrics = {
            "setup_s": statistics.median(
                wall * k for wall, k in zip(setup.walls, setup.scales)
            ),
            "pass_s": statistics.median(scaled for _, scaled in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        record["pass_s"] = plain
    else:
        recorder = SpanRecorder()
        plain, traced, cache_counts = measure(
            make_pass, args.seed, expected, args.seconds, tally, setup, recorder
        )
        metrics = traced_metrics(recorder, traced, cache_counts)
        metrics["trace.overhead_ratio"] = statistics.median(
            scaled for _, scaled in traced
        ) / statistics.median(scaled for _, scaled in plain)
        metrics["catalog.catalog_constants.cold_s"] = statistics.median(
            build * k for build, k in zip(setup.builds, setup.scales)
        )
        metrics.update(layers.gf2poly_rows(args.seed))
        metrics.update(layers.factor_rates(args.seed, tally))
        search_rows, counts_ok = layers.search_rows()
        metrics.update(search_rows)
        tally.add(None if counts_ok else "search stage counts moved")
        wanted = spec["per_layer"]
        record.update(plain_pass_s=plain, traced_pass_s=traced, spans=len(recorder))
        recorder.write(OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(
        meta=run_metadata(),
        setup_s=setup.walls,
        setup_scales=setup.scales,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.reasons,
        metrics=result,
    )
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    meta = record["meta"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={meta['python']} cpus={meta['cpu_count']} git={meta['git_sha']}"
    )
    for name, entry in result.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
