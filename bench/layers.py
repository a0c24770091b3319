"""Isolated per-layer rows, measured untraced through the public API.

These rows do not depend on the workload: every traced run reports
them, next to the span totals of its own workload.  Times are scaled
to the reference host speed with the loop timed around them (see
calibrate.py).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

from gf2perfect import Poly, bar, gcd, run_search, star

import calibrate
from workloads import FACTOR_MIX, IRRED_PER_PASS, factor_ops, run_pass

WIDTHS = (64, 512, 4096, 32768)
STAGES = ("1", "2", "3", "final")
# Stage counts at the parent commit.  Stage 2 misses its 4484
# reference by design; the count is reported, never tuned.
STAGE_COUNTS = {"1": 10944, "2": 3314, "3": 44, "final": 6}
# Each gf2poly row is the median of at least MIN_REPS calls that take
# at least MIN_TOTAL_S seconds together.
MIN_REPS = 3
MIN_TOTAL_S = 0.05
# Repetitions of the staged sieve behind the search rows.
SEARCH_REPS = 5


def median_call_s(fn):
    """Median seconds per call, scaled to the reference host speed."""
    samples = []
    total = 0.0
    before = calibrate.loop_s()
    while len(samples) < MIN_REPS or total < MIN_TOTAL_S:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        total += elapsed
    return statistics.median(samples) * calibrate.scale(before, calibrate.loop_s())


def gf2poly_rows(seed):
    """gf2poly.<op>_us.w<width>: microseconds per call on seeded operands.

    Both multiplicands and both gcd arguments have the full width; the
    modulus of % has half of it.
    """
    rng = random.Random(f"gf2poly:{seed}")
    rows = {}
    for width in WIDTHS:
        a = Poly(rng.getrandbits(width) | 1 << (width - 1))
        b = Poly(rng.getrandbits(width) | 1 << (width - 1))
        half = Poly(rng.getrandbits(width // 2) | 1 << (width // 2 - 1))
        ops = {
            "mul": lambda: a * b,
            "mod": lambda: a % half,
            "square": lambda: a**2,
            "gcd": lambda: gcd(a, b),
            "bar": lambda: bar(a),
            "star": lambda: star(a),
        }
        for name, fn in ops.items():
            rows[f"gf2poly.{name}_us.w{width}"] = median_call_s(fn) * 1e6
    return rows


def factor_rates(seed, tally):
    """factor.<kind>_per_s: operations completed per second, untraced.

    The operations' outputs are checked into ``tally`` as in a pass.
    """
    rng = random.Random(f"factor-rates:{seed}")
    mix = tuple((kind, degree, 4 * count) for kind, degree, count in FACTOR_MIX)
    ops = factor_ops(rng, mix, irreducible=4 * IRRED_PER_PASS)
    before = calibrate.loop_s()
    busy = run_pass(ops, tally)
    factor = calibrate.scale(before, calibrate.loop_s())
    done = Counter(op.kind for op in ops)
    return {f"factor.{kind}_per_s": done[kind] / (busy[kind] * factor) for kind in busy}


def search_rows():
    """Per-stage seconds, stage counts and the 2-worker pool ratio.

    Within one repetition run_search runs up to each stage in turn, so
    the cumulative timings sit seconds apart and share the host's
    speed; a stage's time is the difference between its cumulative
    timing and the stage before's, scaled by the loop timed around the
    repetition.  The median over repetitions is reported.
    """
    per_stage = {stage: [] for stage in STAGES}
    pool = []
    for _ in range(SEARCH_REPS):
        before = calibrate.loop_s()
        previous = 0.0
        for stage in STAGES:
            start = time.perf_counter()
            res = run_search(stage, jobs=1)
            elapsed = time.perf_counter() - start
            per_stage[stage].append(elapsed - previous)
            previous = elapsed
        start = time.perf_counter()
        run_search("final", jobs=2)
        pool.append((time.perf_counter() - start) / previous)
        factor = calibrate.scale(before, calibrate.loop_s())
        for stage in STAGES:
            per_stage[stage][-1] *= factor
    rows = {}
    for stage in STAGES:
        label = "final" if stage == "final" else f"stage{stage}"
        rows[f"search.{label}_s"] = statistics.median(per_stage[stage])
        rows[f"search.{label}.count"] = res.stage_counts[stage]
    rows["search.jobs2_over_serial"] = statistics.median(pool)
    return rows, res.stage_counts == STAGE_COUNTS
