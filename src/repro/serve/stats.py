"""Per-operation serving statistics: latency percentiles, throughput, sheds.

:class:`ServerStats` is the accounting plane of the serving layer.  It
keeps, in one (shared) :class:`~repro.obs.MetricsRegistry`:

* ``serve.issued`` / ``serve.completed`` / ``serve.shed`` /
  ``serve.failed`` counters plus a ``serve.in_flight`` gauge, related by
  the conservation invariant ``issued == completed + shed + failed +
  in_flight`` at every instant of simulated time;
* ``serve.timeouts``: client-abandoned operations (the per-query deadline
  expired while the server was still working; the operation still runs to
  completion and is counted in ``completed``, so timeouts never break the
  conservation identity);
* per-op-kind latency histograms (``serve.latency_us.lookup`` etc.) on a
  fine geometric grid, so p50/p95/p99/p999 are meaningful, plus a
  combined ``serve.latency_us.all``.

Latency is issue-to-completion (queue wait included).  Everything is a
pure function of the DES execution, so two same-seed runs snapshot
byte-identically.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Histogram, MetricsRegistry, bind_counters

__all__ = ["ServerStats", "OP_KINDS", "SERVE_LATENCY_BOUNDS_US"]

#: The operation kinds the serving layer executes.
OP_KINDS: tuple[str, ...] = ("lookup", "scan", "insert")

#: Latency histogram bounds: 100 us .. ~57 s, factor-1.25 geometric spacing
#: (60 buckets) — fine enough that bucket-upper-bound quantiles are within
#: 25% of the true order statistic.
SERVE_LATENCY_BOUNDS_US: tuple[float, ...] = tuple(
    round(100.0 * 1.25**i, 6) for i in range(60)
)

#: The quantiles the serving layer reports, by conventional name.
PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)


class ServerStats:
    """Counters, gauges and latency histograms for one serving run.

    Counters are plain attributes (``stats.crashes += 1``) bound into the
    registry with :func:`~repro.obs.bind_counters`, so ``serve.crashes``
    reads ``stats.crashes`` and ``serve.breaker.fast_fails`` reads
    ``stats.breaker_fast_fails``.  The gauges ``in_flight``,
    ``breaker_state`` and ``brownout_level`` are :class:`~repro.obs.Gauge`
    handles (they also track a max).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        bind_counters(
            self, self.metrics, "serve.",
            (
                "issued", "completed", "shed", "failed", "timeouts", "rows_returned",
                # Batch admission plane: closed batches and the ops they carried.
                # Each batched op is still issued and settled on its own, so
                # these only attribute how the ops were executed.
                "batches", "batched_ops",
                # Resilience plane: client retries, circuit breaker, brownout
                # (a rejected op is also shed), crashes and post-recovery scrubs
                # (a violation is a durability bug, not a failed request).
                "client_retries", "breaker.fast_fails", "breaker.transitions",
                "brownout.steps_down", "brownout.steps_up", "brownout.rejected",
                "crashes", "recoveries", "scrubs", "scrub_violations",
            ),
        )
        self.in_flight = self.metrics.gauge("serve.in_flight")
        #: 0 closed, 1 open, 2 half-open.
        self.breaker_state = self.metrics.gauge("serve.breaker.state")
        self.brownout_level = self.metrics.gauge("serve.brownout.level")
        self._latency: dict[str, Histogram] = {
            kind: self.metrics.histogram(
                f"serve.latency_us.{kind}", bounds=SERVE_LATENCY_BOUNDS_US
            )
            for kind in OP_KINDS
        }
        self._latency_all = self.metrics.histogram(
            "serve.latency_us.all", bounds=SERVE_LATENCY_BOUNDS_US
        )
        #: Outcome listeners (the brownout SLO monitor registers here): each
        #: is called as ``listener(kind, latency_us, ok)`` on every terminal
        #: server-side outcome — completions with their latency, failures
        #: with ``latency_us=None``.
        self.listeners: list = []

    # -- recording (called by the server) ----------------------------------

    def issue(self) -> None:
        self.issued += 1
        self.in_flight.inc()

    def settle(self, kind: str, outcome: str, latency_us: float, rows: int = 0) -> None:
        """Account one request's terminal ``outcome``: "ok", "shed" or "failed".

        The one terminal call, made by
        :meth:`~repro.serve.server.ServedRequest.settle`.  A completion
        records its latency and rows; listeners see completions and
        failures, not sheds.
        """
        self.in_flight.inc(-1)
        if outcome == "shed":
            self.shed += 1
            return
        ok = outcome == "ok"
        if ok:
            self.completed += 1
            self.rows_returned += rows
            hist = self._latency.get(kind)
            if hist is not None:
                hist.record(latency_us)
            self._latency_all.record(latency_us)
        else:
            self.failed += 1
        for listener in self.listeners:
            listener(kind, latency_us if ok else None, ok)

    # -- aggregation -------------------------------------------------------

    def merge(self, *others: "ServerStats") -> "ServerStats":
        """Aggregate this stats plane with ``others`` into a fresh one.

        Returns a new :class:`ServerStats` over a new registry holding the
        metric-by-metric sum of every source: counters add, the
        ``in_flight`` gauge adds (a fleet's in-flight total is the sum of
        its members'), and latency/queue-wait histograms merge bucket-wise,
        so percentiles of the merged object are computed over the union of
        the recorded samples — not averaged from per-source percentiles.
        Because each source satisfies the conservation identity on its own
        and every conservation field merges by summation, the merged object
        satisfies it too; this is the fleet-wide invariant the shard router
        asserts.  Sources are left untouched (listeners are not copied),
        and the same call aggregates independent runs' stats offline.
        """
        merged = ServerStats(MetricsRegistry())
        for source in (self, *others):
            merged.metrics.merge_from(source.metrics)
        return merged

    # -- reading -----------------------------------------------------------

    def conserved(self) -> bool:
        """The conservation identity every instant must satisfy."""
        return self.issued == self.completed + self.shed + self.failed + self.in_flight.value

    def latency_histogram(self, kind: str = "all") -> Histogram:
        if kind == "all":
            return self._latency_all
        return self._latency[kind]

    def percentiles_us(self, kind: str = "all") -> dict[str, float]:
        """p50/p95/p99/p999 of a kind's issue-to-completion latency."""
        hist = self.latency_histogram(kind)
        return {name: hist.quantile(q) for name, q in PERCENTILES}

    def throughput_ops_s(self, elapsed_us: float) -> float:
        """Completed operations per simulated second."""
        return self.completed / (elapsed_us / 1e6) if elapsed_us > 0 else 0.0

    def queue_wait_histogram(self) -> Optional[Histogram]:
        metric = self.metrics.get("admission.queue_wait_us")
        return metric if isinstance(metric, Histogram) else None

    def snapshot(self) -> dict:
        """Deterministic summary dict (JSON-safe, sorted keys downstream)."""
        out: dict = {
            "issued": self.issued,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "in_flight": self.in_flight.value,
            "rows_returned": self.rows_returned,
            "batches": self.batches,
            "batched_ops": self.batched_ops,
            "latency_us": {
                kind: {
                    **self.percentiles_us(kind),
                    "count": self.latency_histogram(kind).count,
                    "mean": round(self.latency_histogram(kind).mean, 3),
                }
                for kind in (*OP_KINDS, "all")
            },
            "resilience": {
                "client_retries": self.client_retries,
                "breaker_fast_fails": self.breaker_fast_fails,
                "breaker_transitions": self.breaker_transitions,
                "brownout_level": self.brownout_level.value,
                "brownout_steps_down": self.brownout_steps_down,
                "brownout_steps_up": self.brownout_steps_up,
                "brownout_rejected": self.brownout_rejected,
                "crashes": self.crashes,
                "recoveries": self.recoveries,
                "scrubs": self.scrubs,
                "scrub_violations": self.scrub_violations,
            },
        }
        wait = self.queue_wait_histogram()
        if wait is not None:
            out["queue_wait_us"] = {
                "count": wait.count,
                "mean": round(wait.mean, 3),
                "p99": wait.quantile(0.99),
            }
        return out
