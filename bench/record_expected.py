"""Record the output digests the benchmark checks against.

    python3 bench/record_expected.py

Run at the commit whose outputs are the reference; it rewrites
``bench/expected.json``.  Recorded are the sieve's search JSON, every
fixed sweeps verb, repr and classify of every odd catalog prime, and
the seeded repr and classify inputs of the first RECORDED_PASSES
passes of the default seed.  Other seeds' random inputs are checked
structurally instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from gf2perfect import run_search  # noqa: E402

RECORDED_PASSES = 32


def main():
    sieve = workloads.digest(json.dumps(run_search("final").to_json(), sort_keys=True))
    argvs = [tuple(v) for v in workloads.SWEEP_VERBS]
    for name in workloads.ODD_PRIME_NAMES:
        argvs += [("repr", name), ("classify", name)]
    for index in range(RECORDED_PASSES):
        argvs += workloads.sweep_inputs(workloads.DEFAULT_SEED, index)
    sweeps = {}
    for argv in argvs:
        key = workloads.output_key(argv)
        if key not in sweeps:
            code, stdout = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            sweeps[key] = workloads.output_digest(code, stdout)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as out:
        json.dump({"sieve": sieve, "sweeps": sweeps}, out, indent=0, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
