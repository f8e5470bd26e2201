"""Admission control for the serving layer.

The :class:`AdmissionController` gates every request between arrival and
execution with two knobs:

* a **token pool** of ``max_concurrency`` service slots (a DES
  :class:`~repro.des.Resource`), bounding how many operations contend for
  the buffer pool and spindles at once, and
* a **bounded FIFO wait queue**: a request arriving when all tokens are
  busy waits in the resource's queue, granted in arrival order, but only
  ``max_queue_depth`` waiters are tolerated — past the bound the request
  is **shed** immediately with :class:`AdmissionRejected` rather than
  queued into unbounded latency.

The ``admitted`` / ``shed`` / ``queued`` counters are plain attributes
bound into the registry as ``admission.*``; a crash rebuild's fresh
controller continues their totals.  Queue time is accounted per request
(``admission.queue_wait_us`` histogram) so latency percentiles can be
decomposed into waiting vs service.  Everything is observational and
deterministic: admitting never advances the DES clock by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des import Environment, Request as ResourceRequest, Resource
from ..obs import MetricsRegistry, bind_counters

__all__ = ["AdmissionController", "AdmissionRejected", "AdmissionTicket"]

#: Queue-wait histogram bounds: 50 us .. ~80 s, factor-1.5 geometric spacing.
QUEUE_WAIT_BOUNDS_US: tuple[float, ...] = tuple(round(50.0 * 1.5**i, 6) for i in range(36))


class AdmissionRejected(RuntimeError):
    """Request shed at admission: the wait queue is at its bound."""

    def __init__(self, queue_depth: int, max_queue_depth: int) -> None:
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        super().__init__(
            f"admission queue full ({queue_depth} waiting >= bound {max_queue_depth}); "
            "request shed"
        )


@dataclass
class AdmissionTicket:
    """A claimed service slot plus its queue-time accounting.

    ``grant`` fires when the token is granted; ``granted_at`` stays -1.0
    until :meth:`AdmissionController.granted` stamps it.
    """

    grant: ResourceRequest
    enqueued_at: float
    granted_at: float = -1.0

    @property
    def queue_wait_us(self) -> float:
        return self.granted_at - self.enqueued_at


class AdmissionController:
    """Token-based concurrency limit with a bounded, shed-on-overflow queue."""

    def __init__(
        self,
        env: Environment,
        max_concurrency: int = 16,
        max_queue_depth: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.env = env
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self._resource = Resource(env, capacity=max_concurrency)
        #: The configured pool size; :meth:`resize` moves ``max_concurrency``
        #: while this stays the brownout ladder's step-up target.
        self.base_concurrency = max_concurrency
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._capacity_gauge = metrics.gauge("admission.capacity")
        self._capacity_gauge.set(max_concurrency)
        bind_counters(self, metrics, "admission.", ("admitted", "shed", "queued"))
        self._depth_gauge = metrics.gauge("admission.queue_depth")
        self._in_service_gauge = metrics.gauge("admission.in_service")
        self._queue_wait = metrics.histogram(
            "admission.queue_wait_us", bounds=QUEUE_WAIT_BOUNDS_US
        )

    # -- introspection -----------------------------------------------------

    @property
    def in_service(self) -> int:
        """Requests currently holding a service token."""
        return self._resource.count

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a token."""
        return self._resource.queue_length

    # -- the gate ----------------------------------------------------------

    def claim(self) -> AdmissionTicket:
        """Claim a service token without waiting for it (or be shed).

        Raises :class:`AdmissionRejected` *immediately* (no simulated time
        passes) when the wait queue is already at its bound.  Otherwise the
        returned ticket's ``grant`` event fires once a token is free; pass
        the ticket to :meth:`granted` at that moment and to :meth:`release`
        when its operation finishes.
        """
        if self._resource.queue_length >= self.max_queue_depth and (
            self._resource.count >= self.max_concurrency
        ):
            self.shed += 1
            raise AdmissionRejected(self._resource.queue_length, self.max_queue_depth)
        enqueued_at = self.env.now
        grant = self._resource.request()
        if not grant.triggered:
            self.queued += 1
        self._depth_gauge.set(self._resource.queue_length)
        return AdmissionTicket(grant, enqueued_at)

    def granted(self, ticket: AdmissionTicket) -> AdmissionTicket:
        """Account a claimed ticket whose grant has just fired."""
        ticket.granted_at = self.env.now
        self.admitted += 1
        self._depth_gauge.set(self._resource.queue_length)
        self._in_service_gauge.set(self._resource.count)
        self._queue_wait.record(ticket.queue_wait_us)
        return ticket

    def admit(self):
        """Process generator: :meth:`claim` a token and wait for its grant.

        Returns the granted :class:`AdmissionTicket`; a shed raises
        :class:`AdmissionRejected` before any simulated time passes.
        """
        ticket = self.claim()
        yield ticket.grant
        return self.granted(ticket)

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a ticket's token, waking the next waiter (if any)."""
        self._resource.release(ticket.grant)
        self._in_service_gauge.set(self._resource.count)
        self._depth_gauge.set(self._resource.queue_length)

    def resize(self, max_concurrency: int) -> None:
        """Change the token-pool size in place (the brownout ladder's knob).

        Shrinking never revokes granted tokens — the pool drains down as
        operations finish; growing admits queued waiters immediately.  The
        shed bound keeps using the same ``max_queue_depth``.
        """
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self.max_concurrency = max_concurrency
        self._resource.set_capacity(max_concurrency)
        self._capacity_gauge.set(max_concurrency)
        self._in_service_gauge.set(self._resource.count)
        self._depth_gauge.set(self._resource.queue_length)
