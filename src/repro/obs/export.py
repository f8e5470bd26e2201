"""Chrome-trace (Perfetto) export, validation, and query-level reporting.

The exporter turns a :class:`~repro.obs.trace.Tracer` into the Chrome
Trace Event JSON format (the ``traceEvents`` array form), loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  Export is a pure function
of the recorded events: dict keys are emitted in a fixed order, tracks map
to thread ids in first-use order, and serialisation uses compact fixed
separators — so a deterministic simulation exports byte-identical JSON.

:class:`QueryTrace` bundles one query's tracer and metrics registry behind
the small API :class:`~repro.dbms.engine.QueryStats` exposes: write the
JSON, snapshot the metrics, count events, or render an ``explain()``-style
text timeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .metrics import MetricsRegistry
from .trace import PH_COMPLETE, PH_COUNTER, PH_INSTANT, Tracer

__all__ = [
    "chrome_trace_dict",
    "to_chrome_json",
    "validate_chrome_trace",
    "QueryTrace",
]

#: All phases the exporter can emit ("M" is trace metadata).
_VALID_PHASES = {PH_COMPLETE, PH_INSTANT, PH_COUNTER, "M"}

#: Single simulated process id used for every track.
_PID = 1


def chrome_trace_dict(tracer: Tracer, label: str = "repro") -> dict:
    """Render a tracer's ring buffer as a Chrome-trace object."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for track, tid in tracer.tracks.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid, "args": {"name": track}}
        )
    tracks = tracer.tracks
    for record in tracer.records:
        event: dict = {
            "name": record.name,
            "cat": record.cat,
            "ph": record.ph,
            "ts": record.ts,
            "pid": _PID,
            "tid": tracks[record.track],
        }
        if record.ph == PH_COMPLETE:
            event["dur"] = record.dur
        if record.args:
            event["args"] = record.args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "emitted": str(tracer.emitted),
            "dropped": str(tracer.dropped),
        },
    }


def to_chrome_json(tracer: Tracer, label: str = "repro") -> str:
    """Serialise deterministically (fixed key order, compact separators)."""
    return json.dumps(chrome_trace_dict(tracer, label=label), separators=(",", ":"))


def validate_chrome_trace(obj) -> list[str]:
    """Structural check against the Chrome-trace event schema.

    Returns a list of problems (empty when valid).  Checks the shape every
    consumer relies on: a ``traceEvents`` array of objects with ``name``,
    ``ph``, ``ts``, ``pid``/``tid``, a non-negative ``dur`` on complete
    events, and dict ``args`` when present.
    """
    problems: list[str] = []
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' array"]
    for index, event in enumerate(obj["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing/empty 'name'")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if phase == PH_COMPLETE:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0, got {dur!r}")
        if phase == PH_COUNTER and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs dict args")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


@dataclass
class QueryTrace:
    """One query's observability bundle: its tracer and metrics registry."""

    tracer: Tracer
    metrics: MetricsRegistry
    label: str = "query"

    # -- export --------------------------------------------------------------

    def to_json(self) -> str:
        return to_chrome_json(self.tracer, label=self.label)

    def write(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path``; returns the path."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    # -- queries over the record stream --------------------------------------

    def count(self, name: str, ph: Optional[str] = None) -> int:
        """Number of records with ``name`` (optionally one phase only)."""
        return sum(
            1
            for r in self.tracer.records
            if r.name == name and (ph is None or r.ph == ph)
        )

    def counter_value(self, name: str):
        """Last sampled value of counter ``name`` (None if never sampled)."""
        value = None
        for r in self.tracer.records:
            if r.ph == PH_COUNTER and r.name == name:
                value = r.args["value"]
        return value

    # -- explain()-style rendering -------------------------------------------

    def timeline(self, width: int = 64) -> str:
        """Text summary: per-track span aggregates plus an activity strip.

        The strip divides the query's simulated duration into ``width``
        buckets and marks each bucket a track had a span covering it —
        a terminal-sized Gantt chart.
        """
        records = list(self.tracer.records)
        spans = [r for r in records if r.ph == PH_COMPLETE]
        end = max((r.ts + r.dur for r in spans), default=0.0)
        end = max(end, max((r.ts for r in records), default=0.0))
        lines = [
            f"trace {self.label!r}: {len(records)} records "
            f"({self.tracer.dropped} dropped), {end:.0f} us simulated"
        ]
        # Aggregate complete spans per (track, name).
        agg: dict[tuple[str, str], tuple[int, float]] = {}
        for r in spans:
            count, total = agg.get((r.track, r.name), (0, 0.0))
            agg[(r.track, r.name)] = (count + 1, total + r.dur)
        if agg:
            lines.append(f"  {'track':<12} {'span':<16} {'count':>7} {'total_us':>12} {'avg_us':>10}")
            for (track, name) in sorted(agg):
                count, total = agg[(track, name)]
                lines.append(
                    f"  {track:<12} {name:<16} {count:>7} {total:>12.1f} {total / count:>10.1f}"
                )
        instants: dict[tuple[str, str], int] = {}
        for r in records:
            if r.ph == PH_INSTANT:
                key = (r.track, r.name)
                instants[key] = instants.get(key, 0) + 1
        if instants:
            lines.append("  instants: " + ", ".join(
                f"{track}:{name} x{n}" for (track, name), n in sorted(instants.items())
            ))
        if end > 0 and spans:
            lines.append("  activity (one row per track, {:.0f} us/cell):".format(end / width))
            by_track: dict[str, list] = {}
            for r in spans:
                by_track.setdefault(r.track, []).append(r)
            for track in sorted(by_track):
                cells = [" "] * width
                for r in by_track[track]:
                    lo = min(int(r.ts / end * width), width - 1)
                    hi = min(int((r.ts + r.dur) / end * width), width - 1)
                    for i in range(lo, hi + 1):
                        cells[i] = "#"
                lines.append(f"  {track:<12} |{''.join(cells)}|")
        counters = [r for r in records if r.ph == PH_COUNTER]
        if counters:
            finals: dict[str, object] = {}
            for r in counters:
                finals[r.name] = r.args["value"]
            lines.append("  counters: " + ", ".join(
                f"{name}={finals[name]}" for name in sorted(finals)
            ))
        return "\n".join(lines)
