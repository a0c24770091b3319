"""The -n and --src options shared by the timing tools.

tools/coldstart.py, tools/stagetime.py and tools/worstcase.py all
launch fresh interpreters against one or more package trees.  parse_trees reads
their common options and gives each tree the environment its launches
run in.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_trees(doc, launches, launches_help, argv=None):
    """(launches, {tree: environment}) from the command line argv.

    doc is the calling tool's docstring, whose first paragraph becomes
    the description; launches is the default of -n and launches_help
    its help.  Each environment is this process's with the tree put
    first on PYTHONPATH.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument(
        "-n", "--launches", type=int, default=launches, help=launches_help
    )
    parser.add_argument(
        "--src",
        type=Path,
        action="append",
        help="directory holding the package; repeat to compare trees "
        "(default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")
    envs = {}
    for src in args.src or [SRC]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src.resolve()), env.get("PYTHONPATH")) if p
        )
        envs[str(src)] = env
    return args.launches, envs
