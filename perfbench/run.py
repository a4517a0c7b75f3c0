"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-snfs --seed 1 --seconds 25 --trace 0

prints one line per metric (name, value, unit) and, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
the per-layer metrics of a traced run.  Exits 2 when the program's
source tree (``src/repro``) is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=os.path.join(here, "out"))
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
