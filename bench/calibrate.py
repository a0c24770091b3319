"""Scale timings to a reference host speed.

On a shared host, other tenants slow this process by up to about 1.7x
for stretches of seconds to minutes, longer than one run.  A fixed
pure-Python loop that shares no code with the package is timed next
to every measurement, and the measurement is scaled by

    REFERENCE_S / (time of the loop around the measurement)

so that a slow stretch stretches both and cancels.  A change to the
package moves the measurement and leaves the loop alone, so its effect
survives the scaling.
"""

from __future__ import annotations

import random
import time

# Loop time on an uncontended 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.02

_RNG = random.Random(0)
_WIDE = tuple(_RNG.getrandbits(400) for _ in range(64))


def _pair(x, y):
    return (x * 3 + y) & 1023


def loop_s():
    """Seconds taken by the fixed loop: carry-less products of 400-bit
    by 100-bit ints, then small tuple, dict and call churn, the kinds
    of work the package's interpreter time goes to."""
    start = time.perf_counter()
    acc = 0
    for r in range(16):
        for i in range(64):
            a = _WIDE[i]
            b = _WIDE[(i * 7 + r) % 64] >> 300
            c = 0
            while b:
                if b & 1:
                    c ^= a
                a <<= 1
                b >>= 1
            acc ^= c
    small = 0
    for i in range(16000):
        t = (i, i + 1, _pair(i, small))
        d = {t[0]: t, t[1]: t}
        small = _pair(small, len(d) + t[2])
    return time.perf_counter() - start


def scale(before_s, after_s):
    """Factor turning seconds measured between two loop timings into
    reference seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2)
