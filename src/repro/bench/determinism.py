"""The determinism gate: byte-compare repeated runs of a seeded command.

Every serving experiment in this repo carries the same contract — output
is a pure function of the spec and the seed, never of wall-clock, worker
scheduling or ``--jobs``.  Each smoke job used to re-implement the check
as three lines of shell (run twice, ``diff``); this module is the one
implementation they all share, used two ways:

* in-process, by the scenario runner's ``--gate`` flag
  (:func:`assert_identical_bytes`), and
* as a CLI, ``python benchmarks/determinism_gate.py jobs``, by the CI
  smoke cells (:func:`jobs_gate`).

Same-seed reruns of the paper experiments need no gate of their own: CI
regenerates every one of them and compares the payload byte for byte with
the committed ``results/figures.json``.

Stdout comparisons normalize the one legitimately nondeterministic line
— the ``finished in 1.23s`` wall-clock trailer — so the gate tests the
claim we actually make (simulated results are deterministic), not one we
don't (the host machine is).
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from typing import Optional, Sequence

__all__ = [
    "normalize_stdout",
    "assert_identical_bytes",
    "jobs_gate",
    "DeterminismError",
]

#: Wall-clock trailer lines like ``finished in 1.23s`` (any count of them).
_WALLCLOCK = re.compile(rb"finished in [0-9.]+s")


class DeterminismError(AssertionError):
    """Two runs that must be byte-identical were not."""


def normalize_stdout(data: bytes) -> bytes:
    """Strip the wall-clock trailer so only simulated output is compared."""
    return _WALLCLOCK.sub(b"finished in Xs", data)


def _first_divergence(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for index, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la != lb:
            return (
                f"first divergence at line {index + 1}:\n"
                f"  run 1: {la[:200]!r}\n  run 2: {lb[:200]!r}"
            )
    return (
        f"one output is a prefix of the other "
        f"({len(a_lines)} vs {len(b_lines)} lines)"
    )


def assert_identical_bytes(a: bytes, b: bytes, label: str = "runs") -> None:
    """Raise :class:`DeterminismError` with the first diverging line."""
    if a != b:
        raise DeterminismError(
            f"determinism gate failed: {label} differ; {_first_divergence(a, b)}"
        )


def _run(argv: Sequence[str]) -> bytes:
    proc = subprocess.run(argv, capture_output=True)
    if proc.returncode != 0:
        raise DeterminismError(
            f"determinism gate: command failed (exit {proc.returncode}): "
            f"{shlex.join(argv)}\n{proc.stderr.decode(errors='replace')[-2000:]}"
        )
    return proc.stdout


def jobs_gate(command: Sequence[str], jobs: Sequence[int] = (1, 2)) -> bytes:
    """Run ``command --jobs N`` for each N; stdout must be byte-identical.

    This is the orchestrator's core promise — worker scheduling can never
    leak into results — checked end-to-end through the real CLI.
    """
    baseline = None
    for n in jobs:
        stdout = normalize_stdout(_run([*command, "--jobs", str(n)]))
        if baseline is None:
            baseline = stdout
        else:
            assert_identical_bytes(
                baseline, stdout, f"--jobs {jobs[0]} vs --jobs {n} stdout"
            )
    assert baseline is not None
    return baseline


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI shared by the CI smoke cells; see ``--help``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="determinism_gate",
        description=(
            "Gate a seeded command on byte-identical output: 'jobs' appends "
            "--jobs 1 / --jobs 2 and diffs stdout."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    jobs = sub.add_parser("jobs", help="--jobs 1 vs --jobs 2, stdout must match")
    jobs.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("no command given (put it after the mode, e.g. 'jobs -- python ...')")
    try:
        jobs_gate(command)
        print(f"determinism gate passed: --jobs 1 == --jobs 2 ({shlex.join(command)})")
    except DeterminismError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0
