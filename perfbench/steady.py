"""Steadiness check: run one workload in sets of seeds and compare the sets.

Run from the repository root::

    python3 perfbench/steady.py --workload serve-read --runs 10 --sets 2

Each set runs ``perfbench/run.py --trace 0`` once per seed (seeds 1 ..
``runs``, the same in every set), one process at a time.  For every
metric it prints each set's median, quartiles and spread (the
interquartile range as a share of the median, from
``statistics.quantiles(values, n=4)``).  It flags an end-to-end metric
whose spread exceeds its bound in BENCHMARK.json, or whose median in a
later set differs from the first set's, in either direction, by more
than the bound.  ``setup_s`` is held to the median check only: its spread
is exempt, as in the benchmark's acceptance rule, because a set-up of a
second or two follows the host's speed from one run to the next, while a
regression moved into set-up shows as a shift of the median.  Exit code
1 if anything is flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def flags(name: str, first: dict, summary: dict, bound: dict, later: bool) -> list:
    """Notes on one set's summary of an end-to-end metric; ``bound`` ones flag."""
    notes = []
    if name != "setup_s" and summary["spread"] > bound["bound"]:
        notes.append(f"SPREAD > bound {bound['bound']}")
    if later:
        worse = benchstats.worse_by(first["median"], summary["median"], bound["better"])
        notes.append(f"vs set 1: {worse:+.4f}")
        if abs(worse) > bound["bound"]:
            notes.append(f"DRIFT > bound {bound['bound']}")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run a workload in sets and compare them")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets: list[dict[str, list[float]]] = []
    for set_index in range(args.sets):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result = run_once(args.workload, seed, seconds)
            if not result["correct"]:
                print(f"set {set_index + 1} seed {seed}: output checks failed")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"set {set_index + 1} seed {seed}: done", flush=True)
        sets.append(values)

    flagged = 0
    for name in sets[0]:
        bound = bounds[name]
        summaries = [benchstats.spread(s[name]) for s in sets]
        for index, summary in enumerate(summaries):
            notes = flags(name, summaries[0], summary, bound, index > 0)
            flagged += any("bound" in note for note in notes)
            print(
                f"{name:32s} set {index + 1}: median {summary['median']:.6g} "
                f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                f"spread {summary['spread']:.4f} (bound {bound['bound']})"
                + ("  " + "; ".join(notes) if notes else "")
            )
        print(f"{name:32s} values: " + " | ".join(
            ", ".join(f"{v:.6g}" for v in s[name]) for s in sets
        ))
    print(f"flagged: {flagged}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
