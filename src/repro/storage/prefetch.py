"""Asynchronous page reading with prefetch, retries and hedging.

:class:`AsyncPageReader` is the glue between scan processes and the disk
array: demand reads block the calling process until the page is resident,
while prefetches are fire-and-forget.  Duplicate requests for an in-flight
page coalesce onto the same I/O — a scanner that demands a page already being
prefetched simply waits for the remaining time, which is precisely how
jump-pointer-array prefetching converts disk latency into overlap (paper
Sections 2.2 and 4.3.2).

With a :class:`RetryPolicy` attached, every read becomes a *reliable read*:

* each attempt carries a DES-clock deadline (timeout-with-cancel — the
  reader abandons the wait; the spindle finishes on its own);
* failed or corrupt attempts are retried with exponential backoff and
  deterministic seeded jitter, alternating replicas when the array is
  mirrored;
* optionally, a **hedged read** is launched against the mirror replica once
  the primary has been quiet for ``hedge_after_us`` — converting the tail
  latency of a limping spindle into overlap, the same move jump-pointer
  prefetching makes against seek latency.

Completed reads install their page through :meth:`BufferPool.fill`, so every
corrupt delivery is caught by the page checksum at the pool boundary.
Without a policy the reader surfaces faults to the caller unretried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..des import Environment, Event, WaitTimeout, first_success, with_timeout
from ..faults.errors import (
    DiskTimeoutError,
    PageChecksumError,
    ReadFailedError,
    StorageFault,
)
from ..obs import Observability, bind_counters
from .buffer import BufferPool
from .disk import DiskArray, ReadReceipt

__all__ = ["AsyncPageReader", "BackoffPolicy", "RetryPolicy"]

#: XOR mask applied to a delivered checksum when the wire corrupts a read.
_WIRE_CORRUPTION = 0x00F00F00


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded attempts with DES-clock exponential backoff and seeded jitter.

    The one backoff rule of both retry layers: page reads
    (:class:`RetryPolicy`) and whole served operations
    (:class:`~repro.serve.ClientRetryPolicy`).  Jitter is drawn from the
    caller's seeded RNG, so backoff sequences are deterministic per run.
    """

    max_attempts: int = 4
    backoff_base_us: float = 1_000.0
    backoff_multiplier: float = 2.0
    backoff_cap_us: float = 64_000.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_us < 0:
            raise ValueError(f"backoff_base_us must be >= 0, got {self.backoff_base_us}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}")
        if self.backoff_cap_us < self.backoff_base_us:
            raise ValueError("backoff_cap_us must be >= backoff_base_us")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}")

    def backoff_delay_us(self, retry: int, rng: random.Random) -> float:
        """Backoff before retry number ``retry`` (1-based), with jitter."""
        delay = min(
            self.backoff_base_us * self.backoff_multiplier ** (retry - 1),
            self.backoff_cap_us,
        )
        if self.jitter_fraction and delay > 0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(frozen=True)
class RetryPolicy(BackoffPolicy):
    """Bounded page-read retries with backoff, deadlines and hedging.

    ``timeout_us`` is the per-attempt deadline (``None`` waits forever);
    ``hedge_after_us``, when set on a mirrored array, launches a second read
    on the mirror replica once the primary has been in flight that long.
    """

    timeout_us: Optional[float] = 60_000.0
    hedge_after_us: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.timeout_us is not None and self.timeout_us <= 0:
            raise ValueError(f"timeout_us must be positive or None, got {self.timeout_us}")
        if self.hedge_after_us is not None and self.hedge_after_us <= 0:
            raise ValueError(f"hedge_after_us must be positive or None, got {self.hedge_after_us}")


class AsyncPageReader:
    """Coordinates demand reads and prefetches against one buffer pool.

    All counters live in the metrics registry behind the attribute facade
    (``reader.retries`` etc.); with tracing enabled the reader emits
    instant events for demand/prefetch issue, coalescing, retries,
    backoff, hedges and faults on the ``reader`` track.
    """

    demand_hits: int
    demand_reads: int
    demand_covered: int
    prefetches: int
    prefetches_suppressed: int
    prefetch_waves: int
    prefetch_wave_pages: int
    faults_seen: int
    retries: int
    timeouts: int
    checksum_failures: int
    hedges: int
    hedge_wins: int
    backoff_us: float

    def __init__(
        self,
        env: Environment,
        disks: DiskArray,
        pool: BufferPool,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.disks = disks
        self.pool = pool
        self.policy = policy
        self.obs = obs if obs is not None else Observability()
        self._tracer = self.obs.tracer
        bind_counters(
            self, self.obs.metrics, "reader.",
            (
                "demand_hits", "demand_reads", "demand_covered", "prefetches",
                "prefetches_suppressed", "prefetch_waves", "prefetch_wave_pages",
                "faults_seen", "retries", "timeouts",
                "checksum_failures", "hedges", "hedge_wins", "backoff_us",
            ),
        )
        self._rng = random.Random((seed << 8) ^ 0x5EED)
        self._inflight: dict[int, Event] = {}
        # Degradation switches (flipped by the query engine's ladder and
        # the serving layer's brownout controller).
        self.hedge_enabled = True
        self.prefetch_enabled = True
        #: When set, new prefetches are suppressed while that many page
        #: reads (demand or prefetch) are already in flight — a brownout
        #: bound on speculative I/O that never blocks demand reads.
        self.max_outstanding_prefetches: Optional[int] = None

    def _mark(self, name: str, **args) -> None:
        # Callers check ``self._tracer.enabled`` first, so the untraced
        # path never builds the keyword arguments.
        self._tracer.instant(name, track="reader", cat="reader", **args)

    @property
    def outstanding(self) -> int:
        """Number of page reads currently in flight."""
        return len(self._inflight)

    def demand(self, page_id: int):
        """Process generator: block until ``page_id`` is resident.

        A demand that coalesced onto an in-flight read which then *fails*
        falls back to a read of its own rather than failing the caller.
        """
        if self.pool.contains(page_id):
            self.demand_hits += 1
            self.pool.touch(page_id)  # count the hit, refresh the CLOCK bit
            return
        event = self._inflight.get(page_id)
        coalesced = event is not None
        if coalesced:
            self.demand_covered += 1
            if self._tracer.enabled:
                self._mark("demand-coalesced", page=page_id)
        else:
            event = self._start_read(page_id)
            self.demand_reads += 1
            if self._tracer.enabled:
                self._mark("demand", page=page_id)
        receipt = None
        try:
            receipt = yield event
        except (StorageFault, WaitTimeout) as exc:
            if not coalesced:
                raise
            # The read's owner reports this failure (a server stores it on
            # its request); catching it here attached this frame's
            # traceback to the shared exception, so drop it again rather
            # than pin this frame — and the event holding the exception.
            exc.__traceback__ = None
            if not self.pool.contains(page_id):
                # The read we piggybacked on died; recover with our own.
                self.demand_reads += 1
                receipt = yield self._start_read(page_id)
        if receipt is not None and not self.pool.contains(page_id):
            # Policy-less mode: the read completed but delivered corrupt
            # bits, so the fill was refused.  Surface the typed error.
            raise PageChecksumError(
                page_id,
                self.pool.store.expected_checksum(page_id),
                self._delivered_checksum(receipt),
            )

    def prefetch(self, page_id: int) -> Optional[Event]:
        """Start a non-blocking read; returns its event, or None if unneeded.

        Duplicate prefetches of an in-flight or resident page are no-ops and
        are not counted.  Returns None without reading when prefetching has
        been degraded off.
        """
        if not self.prefetch_enabled:
            return None
        if self.pool.contains(page_id) or page_id in self._inflight:
            return None
        if (
            self.max_outstanding_prefetches is not None
            and len(self._inflight) >= self.max_outstanding_prefetches
        ):
            self.prefetches_suppressed += 1
            return None
        self.prefetches += 1
        if self._tracer.enabled:
            self._mark("prefetch", page=page_id)
        return self._start_read(page_id)

    def prefetch_wave(self, page_ids) -> int:
        """Issue one level's worth of prefetches as a single wave.

        Batched traversals hand the whole next frontier over at once (in
        sorted page-id order, so the spindles see near-sequential runs);
        resident and in-flight pages are skipped.  Every page goes through
        :meth:`prefetch`, so a wave honors the same degradation knobs as
        single prefetches — in particular a brownout-shrunken
        ``max_outstanding_prefetches`` bounds the wave and counts the
        overflow as suppressed.  Returns the number of reads started.
        """
        if not self.prefetch_enabled:
            return 0
        issued = 0
        for page_id in page_ids:
            if self.prefetch(page_id) is not None:
                issued += 1
        if issued:
            self.prefetch_waves += 1
            self.prefetch_wave_pages += issued
        return issued

    # -- read paths ----------------------------------------------------------

    def _start_read(self, page_id: int) -> Event:
        if self.policy is not None:
            event = self.env.process(self._reliable_read(page_id))
        else:
            event = self.disks.read_page(page_id)
        self._inflight[page_id] = event
        event.callbacks.append(lambda ev, pid=page_id: self._complete(pid, ev))
        return event

    def _reliable_read(self, page_id: int):
        """Process generator: read with retries, backoff and hedging."""
        policy = self.policy
        last_error: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff_delay_us(attempt, self._rng)
                self.retries += 1
                self.backoff_us += delay
                if self._tracer.enabled:
                    self._mark("retry", page=page_id, attempt=attempt, backoff_us=delay)
                yield self.env.timeout(delay)
            try:
                receipt = yield from self._attempt(page_id, attempt)
            except (StorageFault, WaitTimeout) as fault:
                self.faults_seen += 1
                if isinstance(fault, (DiskTimeoutError, WaitTimeout)):
                    self.timeouts += 1
                if self._tracer.enabled:
                    self._mark("fault", page=page_id, attempt=attempt, kind=type(fault).__name__)
                last_error = fault
                continue
            try:
                self._fill(receipt)
            except PageChecksumError as fault:
                last_error = fault
                continue
            return receipt
        raise ReadFailedError(page_id, policy.max_attempts, last_error)

    def _attempt(self, page_id: int, attempt: int):
        """One read attempt: deadline-bounded, optionally hedged."""
        read = self.disks.read_page(page_id, replica=attempt)
        deadline = self.policy.timeout_us
        if (
            self.hedge_enabled
            and self.policy.hedge_after_us is not None
            and self.disks.replicas_per_page > 1
        ):
            receipt = yield from self._race_with_hedge(page_id, read, attempt, deadline)
            return receipt
        if deadline is None:
            receipt = yield read
        else:
            receipt = yield with_timeout(self.env, read, deadline, detail=f"page {page_id}")
        return receipt

    def _race_with_hedge(self, page_id: int, primary: Event, attempt: int, deadline):
        """Wait briefly on the primary, then race it against the mirror.

        The attempt's total wait never exceeds ``deadline``: the hedge
        cutoff is clamped to the deadline, and the race afterwards only
        gets the genuinely remaining budget.  (An unclamped cutoff used to
        let an attempt run for ``cutoff + deadline``.)
        """
        cutoff = self.policy.hedge_after_us
        if deadline is not None and cutoff > deadline:
            cutoff = deadline
        try:
            receipt = yield with_timeout(self.env, primary, cutoff, detail="hedge cutoff")
            return receipt
        except WaitTimeout:
            pass  # primary is slow — hedge against the mirror
        if deadline is not None and deadline - cutoff <= 0:
            # The cutoff consumed the whole per-attempt budget: this
            # attempt is out of time before a hedge could help.
            raise WaitTimeout(deadline, f"page {page_id}")
        self.hedges += 1
        if self._tracer.enabled:
            self._mark("hedge", page=page_id, attempt=attempt)
        hedge = self.disks.read_page(page_id, replica=attempt + 1)
        race = first_success(self.env, [primary, hedge])
        if deadline is not None:
            race = with_timeout(self.env, race, deadline - cutoff, detail=f"page {page_id}")
        winner, receipt = yield race
        if winner == 1:
            self.hedge_wins += 1
            if self._tracer.enabled:
                self._mark("hedge-win", page=page_id, attempt=attempt)
        return receipt

    def _delivered_checksum(self, receipt: ReadReceipt) -> int:
        """Checksum of the bits as the disk delivered them."""
        checksum = self.pool.store.checksum(receipt.page_id)
        if receipt.corrupt:
            checksum ^= _WIRE_CORRUPTION
        return checksum

    def _fill(self, receipt: ReadReceipt):
        """Install a delivered page through the checksum-verified pool fill."""
        delivered = self._delivered_checksum(receipt)
        try:
            return self.pool.fill(receipt.page_id, delivered_checksum=delivered)
        except PageChecksumError:
            self.checksum_failures += 1
            self.faults_seen += 1
            raise

    def _complete(self, page_id: int, event: Event) -> None:
        self._inflight.pop(page_id, None)
        if not event.ok:
            return  # waiters saw the failure; prefetches just evaporate
        receipt = event.value
        if receipt is None or self.pool.contains(page_id):
            return
        try:
            self._fill(receipt)
        except PageChecksumError:
            pass  # counted in _fill; the page stays non-resident

    def preload(self, page_ids) -> None:
        """Instantly mark pages resident (the 'in memory' baseline curves).

        Residency is installed without touching the pool's hit/miss
        counters (routing through ``pool.access`` used to charge one miss
        per page, polluting the baseline's hit rate before the measured
        scan even started), and any statistics the installs did disturb
        (eviction counts in a small pool) are reset afterwards.
        """
        for page_id in page_ids:
            self.pool.install(page_id)
        self.pool.reset_stats()
