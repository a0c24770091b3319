"""Line coverage of src/ under pytest: the executable lines never run.

coverage.py is not a dependency, so this traces with sys.settrace.  It
runs pytest in this process, with any arguments given, and then prints
every executable line of the package that no traced frame reached, as
``path:line: source``, and a count per module.  Needs nothing beyond
pytest and the standard library:

    python3 tools/linecov.py                      # the whole suite
    python3 tools/linecov.py tests/test_sigma.py  # one file

A line counts as executable when one of the module's code objects maps
bytecode to it.  Lines that run only in child processes (the demos, the
fresh-interpreter layer checks) are not seen.  The tracer makes the
suite several times slower, so it is not part of the test run.  The
exit status is pytest's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gf2perfect"


def executable_lines(path):
    """The line numbers the module's code objects carry bytecode for."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


class LineTracer:
    """Records (file, line) for every line run in a file under prefix."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.hits = {}

    def call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        self.hits.setdefault(name, set())
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self.line


def report(hits):
    """The unexecuted lines of each module, then a count per module."""
    out, counts = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - hits.get(str(path), set()))
        rel = path.relative_to(ROOT)
        out += [f"{rel}:{n}: {source[n - 1].strip()}" for n in missed]
        counts.append(f"{rel}: {len(missed)} never run")
    return out + counts


def main(argv=None):
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer(str(PACKAGE) + "/")
    sys.settrace(tracer.call)
    try:
        status = pytest.main(list(sys.argv[1:] if argv is None else argv))
    finally:
        sys.settrace(None)
    print("\n".join(report(tracer.hits)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
