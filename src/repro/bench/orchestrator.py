"""Process-parallel figure sweeps with a deterministic merge.

Most figure functions are parameter sweeps over independent cells (a page
size, a bulkload factor, a panel): each cell builds its own trees and its
own :class:`~repro.mem.MemorySystem`, so cells share no state and can run
in separate worker processes.  This module knows how to split each
experiment into cells, fan the cells over a ``multiprocessing`` pool, and
merge the partial results back **in cell order** — the output is a pure
function of the experiment and its parameters, never of worker scheduling,
so ``--jobs 4`` is byte-identical to ``--jobs 1``.

Determinism contract:

* A cell planner returns the cells in a canonical order (the same nesting
  order as the experiment function's own loops), and each cell's keyword
  arguments select exactly one slice of the sweep.
* Workers are pure: cell in, rows out.  Results are merged by cell index
  (``Pool.map`` order), not completion order.
* ``jobs=1`` runs the cells inline but through the *same* plan/merge path,
  so the row order cannot depend on the execution strategy.

Experiments without a planner (single-measurement figures, or sweeps whose
axes interact — e.g. fig11 appends the optimizer's selected width to the
sweep) run as one cell.
"""

from __future__ import annotations

import inspect
import multiprocessing
from typing import Callable, Optional, Sequence

from .figures import ALL_EXPERIMENTS
from .results import FigureResult

__all__ = [
    "plan_cells",
    "run_experiment",
    "map_cells",
    "normalize_overrides",
    "PARALLEL_EXPERIMENTS",
]


def normalize_overrides(name: str, overrides: Optional[dict]) -> dict:
    """Check ``--set`` overrides against the experiment's signature.

    Two failure modes used to slip through silently and die deep inside a
    worker (or worse, not die at all): an override name the experiment
    doesn't accept, and a scalar value for a *sequence* axis (``--set
    sizes=2000`` parses to the int ``2000``, which the cell planner would
    then try to iterate).  Unknown names raise here, before any cell
    runs, listing the valid parameters; scalars aimed at sequence axes
    are coerced to one-element tuples.
    """
    if not overrides:
        return {}
    fn = ALL_EXPERIMENTS[name]
    params = {
        pname: param.default
        for pname, param in inspect.signature(fn).parameters.items()
        if param.default is not inspect.Parameter.empty
    }
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise ValueError(
            f"experiment {name!r} has no parameter(s) {', '.join(unknown)}; "
            f"valid --set names: {', '.join(sorted(params))}"
        )
    normalized = {}
    for key, value in overrides.items():
        if isinstance(params[key], (tuple, list)) and not isinstance(
            value, (tuple, list)
        ):
            value = (value,)
        normalized[key] = value
    return normalized


def _effective_params(name: str, overrides: Optional[dict]) -> dict:
    """The experiment function's defaults overlaid with user overrides."""
    fn = ALL_EXPERIMENTS[name]
    params = {
        pname: param.default
        for pname, param in inspect.signature(fn).parameters.items()
        if param.default is not inspect.Parameter.empty
    }
    params.update(normalize_overrides(name, overrides))
    return params


def _product_planner(*axes: str) -> Callable[[dict], list[dict]]:
    """Split the named sequence axes into their cartesian product of cells.

    Cell order is the nested iteration order of the axes (first axis is the
    outermost loop), matching the row order the un-split function produces.
    """

    def plan(params: dict) -> list[dict]:
        cells = [dict(params)]
        for axis in axes:
            values = params[axis]
            cells = [
                {**cell, axis: (value,)} for cell in cells for value in values
            ]
        return cells

    return plan


#: Experiment id -> cell planner.  Anything not listed runs as one cell.
#: A sweep is only splittable when its cells share no mutable state: fig13
#: and fig14 draw their insert/delete keys from one workload whose RNG
#: state threads through the panels, so they stay single-cell — a split
#: would change which keys each panel draws.
PARALLEL_EXPERIMENTS: dict[str, Callable[[dict], list[dict]]] = {
    "fig10": _product_planner("page_sizes", "sizes"),
    "fig12": _product_planner("bulkload_factors"),
    "fig16": _product_planner("page_sizes"),
    "fig17": _product_planner("page_sizes"),
}


def plan_cells(name: str, overrides: Optional[dict] = None) -> list[dict]:
    """Split an experiment into per-cell keyword-argument dicts."""
    params = _effective_params(name, overrides)
    planner = PARALLEL_EXPERIMENTS.get(name)
    if planner is None:
        return [params]
    return planner(params)


def _run_cell(task: tuple[str, dict]) -> dict:
    """Worker entry point: run one cell, return its picklable ``to_dict`` form.

    The attached trace (``traced-scan`` only) is not picklable and is
    dropped here; single-cell experiments run inline and keep it.
    """
    name, kwargs = task
    return ALL_EXPERIMENTS[name](**kwargs).to_dict()


def _merge(name: str, partials: Sequence[FigureResult]) -> FigureResult:
    """Concatenate cell results in cell order (never completion order)."""
    first = partials[0]
    merged = FigureResult(name, first.description, list(first.columns))
    for partial in partials:
        merged.rows.extend(partial.rows)
        for note in partial.notes:
            if note not in merged.notes:
                merged.notes.append(note)
        if partial.trace is not None:
            merged.trace = partial.trace
    return merged


def map_cells(worker: Callable, tasks: Sequence, jobs: int = 1) -> list:
    """Map ``worker`` over ``tasks``, optionally across worker processes.

    The deterministic core shared by :func:`run_experiment` and the
    scenario matrix runner (:mod:`repro.scenario`): results come back in
    *task* order (``Pool.map`` order, never completion order), and
    ``jobs=1`` runs the identical tasks inline, so the output is a pure
    function of the task list.  ``worker`` must be a module-level
    function and the tasks picklable when ``jobs > 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(worker, list(tasks), chunksize=1)


def run_experiment(
    name: str,
    overrides: Optional[dict] = None,
    jobs: int = 1,
) -> FigureResult:
    """Run an experiment, fanning its cells over ``jobs`` worker processes.

    ``jobs=1`` executes the same cells inline; any ``jobs`` value yields
    the identical :class:`FigureResult`.
    """
    if name not in ALL_EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = plan_cells(name, overrides)
    tasks = [(name, cell) for cell in cells]
    if jobs == 1 or len(tasks) == 1:
        partials = [ALL_EXPERIMENTS[name](**kwargs) for __, kwargs in tasks]
    else:
        partials = [FigureResult.from_dict(d) for d in map_cells(_run_cell, tasks, jobs)]
    return _merge(name, partials)
