"""Span recorder that traces gf2perfect from outside the package.

The recorder wraps chosen public functions at every module attribute
that binds them, so a call is seen whichever layer makes it: both
``gf2perfect.sigma.sigma_exponents`` and the ``sigma_exponents`` name
that ``gf2perfect.search`` imported are replaced by the same wrapper.
Each wrapped call records one span (name, start, end, parent).  Spans
stay in flat arrays in memory and are written out when the run ends.

Raw-integer kernels (``_mul``, ``_mod``, ...) are not wrapped; their
cost shows up as self time of whichever wrapped function called them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# Functions traced, as "<module>.<name>" under the gf2perfect package.
TRACED = (
    "factorize.factor_full",
    "factorize.is_irreducible",
    "factorize.factor_over_family",
    "sigma.sigma_exponents",
    "sigma.sigma_prime_power",
    "sigma.sigma_of_factor_map",
    "catalog.catalog_constants",
    "catalog.representation",
    "catalog.classify",
    "catalog.name_of",
    "search.run_search",
    "search.conjecture_scan",
    "search.sigma_factor_tables",
    "search.explore_reciprocal",
    "search.verify_split_identities",
    "cli.main",
)


class SpanRecorder:
    """Records a span for every call to the functions named in TRACED.

    While ``paused`` is true the wrappers call straight through, which
    keeps the benchmark's own output checks out of the trace.
    """

    def __init__(self):
        self.names = TRACED
        self.paused = False
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # Per traced name: calls that returned something other than None.
        self.non_none = [0] * len(self.names)
        self._open = []
        self._patches = []
        self._origin = time.perf_counter()

    def install(self):
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "gf2perfect" or key.startswith("gf2perfect.")
        ]
        for index, dotted in enumerate(self.names):
            module_name, attr = dotted.rsplit(".", 1)
            original = getattr(sys.modules[f"gf2perfect.{module_name}"], attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def _wrap(self, index, fn):
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        non_none = self.non_none
        stack = self._open
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if result is not None:
                non_none[index] += 1
            return result

        return traced

    def __len__(self):
        return len(self.span_start)

    def totals(self):
        """{name: (calls, self seconds)}; self time excludes child spans.

        The benchmark runs one call at a time, so children of a span
        never overlap and their durations can simply be subtracted.
        """
        count = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        self_time = list(duration)
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= duration[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(count):
            calls[self.span_name[i]] += 1
            busy[self.span_name[i]] += self_time[i]
        return {name: (calls[k], busy[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """Write every span as gzipped tab-separated text.

        Columns: span id, traced name, start and end in seconds since
        the recorder was created, parent span id (-1 for a root).
        """
        origin = self._origin
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\t{self.span_parent[i]}\n"
                )
