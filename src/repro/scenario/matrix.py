"""Scenario matrices: many specs, one validation pass, one process pool.

A matrix file is TOML with an optional ``[defaults]`` table and one
``[[scenario]]`` table per spec::

    [defaults]
    num_rows = 8000
    seed = 11

    [[scenario]]
    name = "serve-smoke"
    runner = "open"
    offered_loads = [400, 1600]

:func:`load_matrix` overlays defaults, rejects duplicate names and
unknown keys, and **validates every spec before any simulation starts**
— one bad cell fails the whole matrix in milliseconds, not after the
good cells burned their wall-clock.  :func:`run_matrix` then flattens
every scenario's cells (:mod:`repro.scenario.cells`) into one task list
and fans it over the orchestrator's
:func:`~repro.bench.orchestrator.map_cells` pool, so cells from
*different* scenarios run concurrently and the merge (by scenario, then
cell index) is byte-identical for every ``--jobs`` value.
"""

from __future__ import annotations

import tomllib
from pathlib import Path
from typing import Sequence, Union

from ..bench.orchestrator import map_cells
from ..bench.results import FigureResult
from .cells import new_result, plan_cells, run_cell
from .spec import ScenarioError, ScenarioSpec

__all__ = ["load_matrix", "run_matrix", "run_scenario", "validate_matrix"]


def load_matrix(source: Union[str, Path]) -> list[ScenarioSpec]:
    """Parse a matrix file into specs (defaults overlaid, names unique)."""
    path = Path(source)
    try:
        data = tomllib.loads(path.read_text())
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError([f"matrix {path}: invalid TOML: {exc}"]) from None
    defaults = data.get("defaults", {})
    entries = data.get("scenario", [])
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(
            [f"matrix {path}: no [[scenario]] tables found; a matrix needs at least one"]
        )
    unknown_top = sorted(set(data) - {"defaults", "scenario"})
    if unknown_top:
        raise ScenarioError(
            [
                f"matrix {path}: unknown top-level table(s) {', '.join(unknown_top)}; "
                "a matrix holds one optional [defaults] table and [[scenario]] entries"
            ]
        )
    specs = [ScenarioSpec.from_dict(entry, defaults=defaults) for entry in entries]
    seen: dict[str, int] = {}
    for index, spec in enumerate(specs):
        if spec.name in seen:
            raise ScenarioError(
                [
                    f"matrix {path}: duplicate scenario name {spec.name!r} "
                    f"(entries {seen[spec.name] + 1} and {index + 1}); names key "
                    "the result tables and artifact files, so they must be unique"
                ]
            )
        seen[spec.name] = index
    return specs


def validate_matrix(specs: Sequence[ScenarioSpec]) -> None:
    """Validate every spec, aggregating all problems into one error."""
    problems: list[str] = []
    for spec in specs:
        problems.extend(spec.problems())
    if problems:
        raise ScenarioError(problems)


def run_matrix(specs: Sequence[ScenarioSpec], jobs: int = 1) -> list[FigureResult]:
    """Run a validated matrix; every cell of every scenario shares the pool.

    Results come back in spec order regardless of ``jobs``; each spec's
    rows are merged in its own cell order.
    """
    validate_matrix(specs)
    plans = [plan_cells(spec) for spec in specs]
    rows = map_cells(run_cell, [task for plan in plans for task in plan], jobs)
    results = []
    start = 0
    for spec, plan in zip(specs, plans):
        result = new_result(spec)
        result.rows.extend(rows[start : start + len(plan)])
        start += len(plan)
        results.append(result)
    return results


def run_scenario(spec: ScenarioSpec, jobs: int = 1) -> FigureResult:
    """Validate and run one scenario; its cells fan over ``jobs``."""
    return run_matrix([spec], jobs)[0]
