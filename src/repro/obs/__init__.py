"""Query-level observability: tracing + metrics for the simulators.

Two planes, one bundle:

* :class:`Tracer` (``trace.py``) — typed spans and instant events on the
  DES clock, in a bounded ring buffer, exported as Chrome-trace JSON
  (``export.py``).  Off by default via :data:`NULL_TRACER`; traces observe
  clocks, never advance them, and are deterministic per seed.
* :class:`MetricsRegistry` (``metrics.py``) — named counters, gauges and
  histograms.  Components keep their historical counters as plain
  attributes, and :func:`bind_counters` registers pull-based
  :class:`BoundCounter` views of them, so the registry sees every counter
  without changing any call site or slowing its increments.

:class:`Observability` bundles one tracer and one registry; every
instrumented component (disk array, buffer pool, page reader, WAL) accepts
an optional ``obs`` and shares the bundle it is given.
"""

from __future__ import annotations

from typing import Optional

from .export import QueryTrace, chrome_trace_dict, to_chrome_json, validate_chrome_trace
from .metrics import (
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_counters,
)
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "BoundCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bind_counters",
    "NULL_TRACER",
    "TraceRecord",
    "Tracer",
    "QueryTrace",
    "chrome_trace_dict",
    "to_chrome_json",
    "validate_chrome_trace",
    "Observability",
    "attach_des_observer",
]


class Observability:
    """One tracer + one metrics registry, shared across a component stack.

    The default construction (``Observability()``) is the cheap path every
    component falls back to when no bundle is passed: a private registry
    (so the counter facade always works) and the shared disabled tracer.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def tracing(self) -> bool:
        """True when the bundle's tracer actually records."""
        return self.tracer.enabled


def attach_des_observer(env, tracer: Tracer, track: str = "des") -> None:
    """Wire DES kernel lifecycle events into a tracer (opt-in, verbose).

    Installs an observer on the environment; the kernel calls it with
    ``("step", event)`` per processed event and ``("process", process)``
    per spawned process.  Purely observational — the hook reads the clock
    and never schedules anything.
    """

    def observe(kind: str, event) -> None:
        tracer.instant(kind, track=track, cat="des", event=type(event).__name__)

    env.observer = observe
