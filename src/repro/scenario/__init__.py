"""Declarative scenario specs, validated before any simulation runs.

The serving stack grew one axis per PR — workload mix and skew, chaos
schedules with crash points, admission batching, page-level concurrency
control, key-range sharding — and every evaluation so far wired those
axes together by hand in a bench function.  This package replaces the
hand-wiring with data: a :class:`ScenarioSpec` names one point in the
grid, a matrix file holds many, a cross-field validator rejects the
combinations that cannot work *before* the discrete-event clock starts,
and each survivor splits into cells that build the serving substrate
straight from the spec's fields and run behind the orchestrator's
deterministic process pool.

    specs = load_matrix("benchmarks/scenarios/serve_smoke.toml")
    results = run_matrix(specs, jobs=4)        # byte-identical for any jobs
    print(matrix_to_markdown(specs, results))

CLI: ``python -m repro.bench scenario --matrix FILE --jobs N``.
"""

from .cells import plan_cells, run_cell
from .matrix import load_matrix, run_matrix, run_scenario, validate_matrix
from .render import matrix_payload, matrix_to_csv, matrix_to_markdown
from .spec import ScenarioError, ScenarioSpec

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "plan_cells",
    "run_cell",
    "run_scenario",
    "load_matrix",
    "run_matrix",
    "validate_matrix",
    "matrix_payload",
    "matrix_to_csv",
    "matrix_to_markdown",
]
