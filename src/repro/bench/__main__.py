"""Command-line entry point: ``python -m repro.bench <experiment> [...]``.

Run ``python -m repro.bench list`` to see every experiment id; ``all`` runs
the full set.  Figure functions accept keyword overrides via ``--set
name=value`` (ints, floats and comma-separated tuples of them are parsed);
unknown names and overrides that no experiment will consume are errors,
not silent no-ops.

``python -m repro.bench scenario --matrix FILE`` runs a declarative
scenario matrix (see :mod:`repro.scenario`): every spec is validated
before any simulation starts, cells fan over ``--jobs`` workers with a
deterministic merge, and ``--csv``/``--md``/``--json`` write the
rendered artifacts.
"""

from __future__ import annotations

import argparse
import sys
import time

from .figures import ALL_EXPERIMENTS


def _parse_value(text: str):
    """An int, float or string; comma-separated parts become a tuple of those."""
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part)
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _scenario_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench scenario",
        description="Run a declarative scenario matrix (validated before any "
        "simulation; deterministic across --jobs values).",
    )
    parser.add_argument("--matrix", required=True, metavar="FILE",
                        help="TOML matrix: optional [defaults] + [[scenario]] tables")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan scenario cells over N worker processes")
    parser.add_argument("--csv", metavar="FILE", help="write all rows as one flat CSV")
    parser.add_argument("--md", metavar="FILE",
                        help="write a markdown report (one table per scenario)")
    parser.add_argument("--json", dest="json_path", metavar="FILE",
                        help="write the full payload (specs echoed next to rows)")
    parser.add_argument("--validate-only", action="store_true",
                        help="validate every spec and exit without simulating")
    parser.add_argument("--gate", action="store_true",
                        help="determinism gate: re-run the matrix (and a --jobs 1 "
                        "pass when --jobs > 1) and require byte-identical payloads")
    parser.add_argument("--budget-s", type=float, default=None, metavar="SECONDS",
                        help="fail (exit 3) if the matrix takes longer than this "
                        "wall-clock budget; results are still written first")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    import json as json_mod

    from ..scenario import (
        ScenarioError,
        load_matrix,
        matrix_payload,
        matrix_to_csv,
        matrix_to_markdown,
        run_matrix,
        validate_matrix,
    )

    try:
        specs = load_matrix(args.matrix)
        validate_matrix(specs)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"invalid scenario matrix: {problem}", file=sys.stderr)
        return 2
    if args.validate_only:
        print(f"{args.matrix}: {len(specs)} scenario(s) valid "
              f"({', '.join(spec.name for spec in specs)})")
        return 0

    started = time.time()
    results = run_matrix(specs, jobs=args.jobs)
    elapsed = time.time() - started
    payload = matrix_payload(specs, results)
    payload_bytes = json_mod.dumps(payload, indent=2, sort_keys=True).encode()

    if args.gate:
        from .determinism import assert_identical_bytes

        gate_jobs = [args.jobs, 1] if args.jobs > 1 else [1]
        for n in gate_jobs:
            rerun = matrix_payload(specs, run_matrix(specs, jobs=n))
            assert_identical_bytes(
                payload_bytes,
                json_mod.dumps(rerun, indent=2, sort_keys=True).encode(),
                f"matrix payloads (--jobs {args.jobs} vs --jobs {n} re-run)",
            )
        print(f"determinism gate passed: {len(gate_jobs)} re-run(s) byte-identical")

    for result in results:
        print(result.format_table())
        print()
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(matrix_to_csv(results))
        print(f"wrote {args.csv}")
    if args.md:
        with open(args.md, "w") as handle:
            handle.write(matrix_to_markdown(specs, results))
        print(f"wrote {args.md}")
    if args.json_path:
        with open(args.json_path, "wb") as handle:
            handle.write(payload_bytes + b"\n")
        print(f"wrote {args.json_path}")
    print(f"[scenario matrix of {len(specs)} finished in {elapsed:.1f}s]")
    if args.budget_s is not None and elapsed > args.budget_s:
        print(
            f"wall-clock budget exceeded: {elapsed:.1f}s > {args.budget_s:g}s "
            "(trim the matrix or raise --budget-s)",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("experiment", help="experiment id, 'list', or 'all'")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a keyword parameter of the experiment function",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent sweep cells over N worker processes; results "
        "are merged deterministically, so any N gives identical output",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="also write results as JSON (one object per experiment)",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_path",
        metavar="FILE",
        help="write the Chrome-trace JSON attached to the experiment's result "
        "(open in chrome://tracing or ui.perfetto.dev); currently only "
        "'traced-scan' attaches one",
    )
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["scenario"]:
        return _scenario_main(argv[1:])
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:28s} {doc}")
        return 0

    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            parser.error(f"--set expects NAME=VALUE, got {item!r}")
        name, __, value = item.partition("=")
        overrides[name] = _parse_value(value)
    if overrides and len(names) != 1:
        # 'all' used to accept --set and silently drop it; different
        # experiments disagree on parameter names, so refuse instead.
        parser.error(
            "--set only applies to a single experiment; "
            "'all' would silently ignore the override(s)"
        )

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    from .orchestrator import normalize_overrides, run_experiment

    collected = []
    for name in names:
        if name not in ALL_EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}; try 'list'")
        try:
            checked = normalize_overrides(name, overrides)
        except ValueError as exc:
            # Unknown --set names die here, before any cell runs.
            parser.error(str(exc))
        started = time.time()
        result = run_experiment(name, checked, jobs=args.jobs)
        print(result.format_table())
        print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        collected.append(result)
    if args.json_path:
        import json

        with open(args.json_path, "w") as handle:
            json.dump([r.to_dict() for r in collected], handle, indent=2)
        print(f"wrote {args.json_path}")
    if args.trace_path:
        traced = [r for r in collected if r.trace is not None]
        if not traced:
            print(
                f"--trace-out: no experiment in {names} attached a trace "
                "(try 'traced-scan')",
                file=sys.stderr,
            )
            return 1
        traced[-1].trace.write(args.trace_path)
        print(f"wrote {args.trace_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
