"""Declarative scenario specs with a cross-field validator.

A :class:`ScenarioSpec` names one point in the evaluation grid — workload
mix, key skew, burstiness, chaos schedule (including crash points), scale
factor, shard count, admission mode, concurrency mode, seed — and the
load model that drives it: ``runner = "open"`` (arrivals at an offered
rate, over a fleet of ``shard_count >= 1`` servers) or ``"closed"``
(client sessions that wait on each reply, through the chaos schedule, with
every history checked); :mod:`repro.scenario.cells` holds one cell body
each.  Specs load from TOML or plain dicts and round-trip back
(:meth:`to_toml`).

The point of the spec layer is :meth:`validate`: every cross-field
consistency rule is checked *before* any simulation starts, in the spirit
of cross-field config model-checking, so a matrix of hour-long cells
cannot die forty minutes in on a combination that could never work
(a crash clause on the open loop, batch admission on a scan-only mix, a
16-shard fleet on 12 disks, paper-scale keys under a smoke deadline).
Each rule is named after the axis it limits: what the open loop, the
closed loop, batch admission or the fleet cannot carry.
Each violation carries an actionable message: what is inconsistent, why,
and which field to change.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Optional, Sequence

from ..btree.cc import CONCURRENCY_MODES
from ..serve import ADMISSION_MODES

__all__ = ["ScenarioSpec", "ScenarioError", "PAPER_SCALE_ROWS", "MIN_PAPER_DEADLINE_MS"]

RUNNERS = ("open", "closed")
DISTRIBUTIONS = ("uniform", "zipf")
PLACEMENTS = ("equal_width", "optimized")

#: Row counts at or above this are "paper scale" (the paper's I/O runs use
#: 10M-key trees); smoke-sized deadlines are rejected there.
PAPER_SCALE_ROWS = 1_000_000

#: A cold paper-scale lookup descends a 4-level tree through an un-warmed
#: buffer pool — several mirrored disk reads, ~20ms of simulated time.
#: Deadlines under this at paper scale would time out every query.
MIN_PAPER_DEADLINE_MS = 20.0


class ScenarioError(ValueError):
    """A scenario spec failed validation; ``problems`` lists every rule hit."""

    def __init__(self, problems: Sequence[str]) -> None:
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: every axis of the evaluation grid."""

    # -- identity ----------------------------------------------------------
    name: str
    runner: str  # "open" | "closed"

    # -- workload mix and shape -------------------------------------------
    lookup: float = 0.70
    scan: float = 0.20
    insert: float = 0.10
    scan_span: int = 64
    distribution: str = "uniform"  # "uniform" | "zipf"
    zipf_theta: float = 1.05
    burstiness: float = 1.0  # mean arrival-burst size (open loop)

    # -- chaos schedule (clause grammar, incl. crash points) ---------------
    chaos: str = ""
    chaos_seed: int = 0

    # -- scale factor ------------------------------------------------------
    num_rows: int = 8_000
    num_disks: int = 8
    page_size: int = 4096

    # -- serving shape -----------------------------------------------------
    shard_count: int = 1
    placement: str = "equal_width"  # shard boundary placement
    admission: str = "fifo"  # "fifo" | "batch"
    batch_max: int = 32
    batch_window_ms: float = 8.0
    concurrency: str = "none"  # "none" | "page" | "coarse"

    # -- load --------------------------------------------------------------
    offered_loads: tuple = (800,)  # open loop: one cell per load
    duration_s: float = 0.5
    sessions: int = 6  # closed loop
    ops_per_session: int = 25
    think_time_ms: float = 1.5
    deadline_ms: Optional[float] = None

    # -- admission / substrate sizing -------------------------------------
    max_concurrency: int = 16
    queue_depth: int = 48
    pool_frames: int = 64

    seed: int = 11

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, defaults: Optional[dict] = None) -> "ScenarioSpec":
        """Build a spec from a plain dict, rejecting unknown keys.

        ``defaults`` (e.g. a matrix file's ``[defaults]`` table) is
        overlaid first; the scenario's own keys win.
        """
        merged = {**(defaults or {}), **data}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(merged) - known)
        if unknown:
            label = merged.get("name", "<unnamed>")
            raise ScenarioError(
                [
                    f"scenario {label!r}: unknown field(s) {', '.join(unknown)}; "
                    f"valid fields: {', '.join(sorted(known))}"
                ]
            )
        for key in ("name", "runner"):
            if key not in merged:
                raise ScenarioError(
                    [f"scenario {merged.get('name', '<unnamed>')!r}: missing required field {key!r}"]
                )
        if "offered_loads" in merged and isinstance(merged["offered_loads"], (list, tuple)):
            merged["offered_loads"] = tuple(merged["offered_loads"])
        elif "offered_loads" in merged and isinstance(merged["offered_loads"], int):
            merged["offered_loads"] = (merged["offered_loads"],)
        return cls(**merged)

    def to_dict(self) -> dict:
        """Every field, in declaration order (``None`` deadlines included)."""
        return dataclasses.asdict(self)

    # -- TOML --------------------------------------------------------------

    def to_toml(self) -> str:
        """Render as one ``[[scenario]]`` TOML table.

        Emits every field except ``None`` ones (TOML has no null), in
        declaration order, so ``tomllib.loads`` of the output round-trips
        through :meth:`from_dict` to an equal spec.
        """
        lines = ["[[scenario]]"]
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            lines.append(f"{f.name} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    # -- validation --------------------------------------------------------

    def problems(self) -> list[str]:
        """Every validation failure, each as one actionable message."""
        p: list[str] = []
        tag = f"scenario {self.name!r}"

        # Single-field sanity first: enum fields and positivity.  A spec
        # that fails these still gets its cross-field rules checked where
        # they make sense, so one validate() call reports everything.
        if self.runner not in RUNNERS:
            p.append(
                f"{tag}: unknown runner {self.runner!r}; pick one of {', '.join(RUNNERS)}"
            )
        if self.admission not in ADMISSION_MODES:
            p.append(
                f"{tag}: unknown admission mode {self.admission!r}; "
                f"pick one of {', '.join(ADMISSION_MODES)}"
            )
        if self.concurrency not in CONCURRENCY_MODES:
            p.append(
                f"{tag}: unknown concurrency mode {self.concurrency!r}; "
                f"pick one of {', '.join(CONCURRENCY_MODES)}"
            )
        if self.distribution not in DISTRIBUTIONS:
            p.append(
                f"{tag}: unknown distribution {self.distribution!r}; "
                f"pick one of {', '.join(DISTRIBUTIONS)}"
            )
        if self.placement not in PLACEMENTS:
            p.append(
                f"{tag}: unknown placement {self.placement!r}; "
                f"pick one of {', '.join(PLACEMENTS)}"
            )
        for fname in ("num_rows", "num_disks", "page_size", "shard_count",
                      "scan_span", "sessions", "ops_per_session", "batch_max",
                      "max_concurrency", "queue_depth", "pool_frames"):
            if getattr(self, fname) < 1:
                p.append(f"{tag}: {fname} must be >= 1, got {getattr(self, fname)}")
        for fname in ("duration_s", "batch_window_ms", "zipf_theta"):
            if getattr(self, fname) <= 0:
                p.append(f"{tag}: {fname} must be positive, got {getattr(self, fname)}")
        if self.think_time_ms < 0:
            p.append(f"{tag}: think_time_ms must be >= 0, got {self.think_time_ms}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            p.append(f"{tag}: deadline_ms must be positive, got {self.deadline_ms}")
        if min(self.lookup, self.scan, self.insert) < 0 or (
            self.lookup + self.scan + self.insert
        ) <= 0:
            p.append(
                f"{tag}: op mix {self.lookup:g}/{self.scan:g}/{self.insert:g} "
                "(lookup/scan/insert) needs non-negative weights with a positive sum"
            )
        if not self.offered_loads or any(r <= 0 for r in self.offered_loads):
            p.append(
                f"{tag}: offered_loads must be a non-empty list of positive "
                f"ops/s rates, got {list(self.offered_loads)}"
            )
        if self.burstiness < 1.0:
            p.append(
                f"{tag}: burstiness is the mean arrival-burst size and must be "
                f">= 1.0 (1.0 = plain Poisson), got {self.burstiness:g}"
            )

        # -- the chaos clause: the open loop has no fault wiring -------------
        schedule = None
        if self.chaos:
            try:
                from ..faults.schedule import ChaosSchedule

                schedule = ChaosSchedule.parse(self.chaos, seed=self.chaos_seed)
            except ValueError as exc:
                p.append(f"{tag}: bad chaos clause: {exc}")
        if self.chaos and self.runner == "open":
            p.append(
                f"{tag}: a chaos clause ({self.chaos!r}) only runs under "
                "runner = 'closed' — the open loop has no fault-plan wiring, "
                "while the closed loop's substrate is mirrored and logs every "
                "insert so it survives faults and crashes; set runner = 'closed' "
                "or drop the clause"
            )
        if schedule is not None:
            for disk in schedule.referenced_disks:
                if disk >= self.num_disks:
                    p.append(
                        f"{tag}: chaos clause targets disk {disk} but the array "
                        f"has num_disks = {self.num_disks} (disks 0..{self.num_disks - 1}); "
                        "fix the disk index or grow the array"
                    )
            for e in schedule.events:
                if e.kind == "kill" and self.num_disks < 2:
                    p.append(
                        f"{tag}: 'kill disk={e.disk}' with num_disks = 1 is "
                        "unsurvivable — mirrored recovery needs at least 2 disks"
                    )
        if self.chaos and self.runner == "closed" and self.deadline_ms is None:
            p.append(
                f"{tag}: a chaos clause runs the resilient client stack too, whose "
                "clients need a per-query deadline to abandon storm-stuck "
                "operations (and whose brownout SLO monitor keys off it); set "
                "deadline_ms"
            )

        # -- the closed loop: one server, ops admitted one by one, uniform ---
        closed = self.runner == "closed"
        if closed and self.shard_count > 1:
            p.append(
                f"{tag}: shard_count = {self.shard_count} is a fleet, and a fleet "
                "runs only on the open loop (the closed loop serves one "
                "unsharded substrate); set runner = 'open' or shard_count = 1"
            )
        if closed and self.admission == "batch":
            p.append(
                f"{tag}: admission = 'batch' is an open-loop axis — the closed "
                "loop admits each client's op individually; set runner = 'open' "
                "or admission = 'fifo'"
            )
        if closed and self.distribution == "zipf":
            p.append(
                f"{tag}: distribution = 'zipf' is not plumbed into the "
                "closed-loop sessions' op streams; set runner = 'open' for "
                "skewed-key scenarios"
            )
        if closed and self.burstiness > 1.0:
            p.append(
                f"{tag}: burstiness = {self.burstiness:g} shapes open-loop "
                "arrivals, but this runner is closed-loop (sessions "
                "self-throttle on completions); set runner = 'open' for "
                "bursty-arrival scenarios"
            )

        # -- batch admission -------------------------------------------------
        if self.admission == "batch" and self.lookup <= 0:
            p.append(
                f"{tag}: admission = 'batch' groups point lookups into "
                f"level-wise batches, but the mix is lookup = {self.lookup:g} "
                f"(scan/insert only) — no batch would ever form; raise lookup "
                "above 0 or use admission = 'fifo'"
            )

        # -- the fleet -------------------------------------------------------
        if self.shard_count > self.num_disks:
            p.append(
                f"{tag}: shard_count = {self.shard_count} exceeds num_disks = "
                f"{self.num_disks} — every shard needs at least one dedicated "
                "spindle; lower shard_count or raise num_disks"
            )
        elif self.shard_count >= 1 and self.num_disks % self.shard_count:
            per_shard = self.num_disks // self.shard_count
            p.append(
                f"{tag}: num_disks = {self.num_disks} does not divide over "
                f"shard_count = {self.shard_count} — each shard gets {per_shard} "
                f"disk(s), so {self.num_disks % self.shard_count} would sit idle "
                f"while the report says {self.num_disks}; set num_disks to a "
                f"multiple of {self.shard_count} (e.g. {per_shard * self.shard_count} "
                f"or {(per_shard + 1) * self.shard_count})"
            )
        if self.shard_count == 1 and self.placement == "optimized":
            p.append(
                f"{tag}: shard_count = 1 with placement = 'optimized' has no "
                "boundaries to optimize; use placement = 'equal_width' or "
                "shard_count >= 2"
            )
        if self.shard_count > 1 and self.concurrency != "none":
            p.append(
                f"{tag}: concurrency = {self.concurrency!r} is not wired into "
                "the shard fleet (per-shard servers run without page latches); "
                "use shard_count = 1"
            )

        # -- paper scale vs deadlines --------------------------------------
        if (
            self.num_rows >= PAPER_SCALE_ROWS
            and self.deadline_ms is not None
            and self.deadline_ms < MIN_PAPER_DEADLINE_MS
        ):
            p.append(
                f"{tag}: deadline_ms = {self.deadline_ms:g} at paper scale "
                f"(num_rows = {self.num_rows}) — a cold lookup there descends a "
                "4-level tree through an un-warmed pool, >= ~20 ms of simulated "
                f"disk time, so every query would time out; raise deadline_ms to "
                f">= {MIN_PAPER_DEADLINE_MS:g} or drop it"
            )

        # -- scan span vs universe -----------------------------------------
        if self.scan_span > self.num_rows:
            p.append(
                f"{tag}: scan_span = {self.scan_span} exceeds the "
                f"{self.num_rows}-key universe — a scan cannot cover more "
                "stored entries than exist; shrink scan_span or grow num_rows"
            )
        return p

    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ScenarioError` listing every violated rule."""
        problems = self.problems()
        if problems:
            raise ScenarioError(problems)
        return self


def _toml_value(value: Any) -> str:
    """Render one Python value as a TOML literal (round-trip exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr round-trips through float() exactly; TOML floats need a
        # dot or exponent, which repr of a non-integral float provides —
        # integral floats print as e.g. "8.0", also fine.
        return repr(value)
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as TOML: {value!r}")


def _toml_string(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)
