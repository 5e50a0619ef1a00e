"""Benchmark entry point for diracpairs.

    python3 bench/run.py --workload fig2_run --seed 0 --seconds 10 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
The workload repeats in fresh processes until ``--seconds`` have passed
(at least once).  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``,
``err_c``), with ``--trace 1`` the per-layer metrics of traced
repetitions, each interleaved with an untraced one.  The line before it
records the seed, the input shift and the environment.  Working files go
to ``.bench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_package()
        line, info = harness.run_workload(harness.WORKLOADS[args.workload],
                                          args.seed, args.seconds,
                                          bool(args.trace))
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
