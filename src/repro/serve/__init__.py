"""Concurrent multi-client serving layer over the MiniDbms.

The pieces, bottom-up:

* :class:`~repro.serve.admission.AdmissionController` — token-based
  concurrency limit with a bounded, shed-on-overflow FIFO wait queue and
  queue-time accounting.
* :class:`~repro.serve.server.DbmsServer` — one shared DES substrate
  (environment, disk array, buffer pool, page reader) executing client
  lookups / range scans / inserts as concurrent processes, with per-query
  deadlines; :data:`ADMISSION_MODES` names its admission modes, ``"fifo"``
  and ``"batch"`` (point lookups grouped into batches).
* :class:`~repro.serve.loadgen.OpenLoopLoadGenerator` — seeded Poisson
  traffic.
* :class:`~repro.serve.stats.ServerStats` — latency percentiles,
  throughput, shed/timeout counts, and the conservation identity
  ``issued == completed + shed + failed + in_flight``.  Its counters, like
  the admission controller's and the shard router's, are plain attributes
  bound into the metrics registry (:func:`~repro.obs.bind_counters`).
* :mod:`~repro.serve.resilience` — client-side retries with backoff, a
  per-server circuit breaker, the brownout degradation ladder, and the
  :class:`~repro.serve.resilience.ChaosRunner` crash-under-load harness,
  whose sessions are the closed-loop clients (think, issue, wait).

Everything is DES-driven and seeded: a serving run is a pure function of
its configuration, so latency percentiles are exactly reproducible — even
through injected faults and a mid-run crash.
"""

from .admission import AdmissionController, AdmissionRejected, AdmissionTicket
from .loadgen import OpenLoopLoadGenerator
from .resilience import (
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    ChaosRunner,
    CircuitBreaker,
    ClientRetryPolicy,
)
from .server import ADMISSION_MODES, BrownoutRejected, DbmsServer, ServedRequest
from .stats import OP_KINDS, SERVE_LATENCY_BOUNDS_US, ServerStats

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "BreakerConfig",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutRejected",
    "ChaosRunner",
    "CircuitBreaker",
    "ClientRetryPolicy",
    "OpenLoopLoadGenerator",
    "DbmsServer",
    "ServedRequest",
    "ServerStats",
    "OP_KINDS",
    "SERVE_LATENCY_BOUNDS_US",
]
