"""What a workload's evaluation hands back to the harness."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    #: Ops the benchmark issued.
    attempted: int
    #: Ops that finished with a correct answer.
    completed: int
    #: Ops refused by admission control (shed), by design under overload.
    refused: int
    #: Ops that errored, timed out, or returned a wrong answer.
    failed: int
    #: ``sim_*`` end-to-end metrics (simulated clock, deterministic per seed).
    sim: dict
    #: Per-layer metrics computed from program counters (no tracing needed).
    layer: dict
    #: Human-readable descriptions of failed output checks.
    problems: list = field(default_factory=list)
    #: (description, held) pairs: intended layers exercised, others bypassed.
    exercised: list = field(default_factory=list)
    #: Extra output lines (sizes, sample counts, percentiles).
    lines: list = field(default_factory=list)
