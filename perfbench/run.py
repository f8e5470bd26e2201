"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cachesim-mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written under
``perfbench/out/``).  Human-readable lines come first; the last line of
standard output is the JSON result.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"run.py: no program source at {source}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    result = harness.measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        span_dir=os.path.join(HERE, "out") if args.trace else None,
    )
    for line in result.lines:
        print(line)
    for key, value in result.metrics.items():
        print(f"{key} = {value!r} {result.units[key]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": value, "unit": result.units[key]}
            for key, value in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
