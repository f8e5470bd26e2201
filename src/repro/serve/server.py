"""The multi-client serving layer over :class:`~repro.dbms.MiniDbms`.

:class:`DbmsServer` owns one shared serving substrate — a DES
:class:`~repro.des.Environment`, a :class:`~repro.storage.disk.DiskArray`,
a deliberately small :class:`~repro.storage.buffer.BufferPool` and one
:class:`~repro.storage.prefetch.AsyncPageReader` — and executes client
requests as concurrent DES processes against it.  Every request passes the
:class:`~repro.serve.admission.AdmissionController` before touching
storage, and every outcome lands in :class:`~repro.serve.stats.ServerStats`.

The request life cycle::

    submit() = process(issue()): claim ──┬── shed (queue full) -> settle("shed")
                                         └── worker: grant ── execute ── settle("ok"|"failed")
                                                │
                  run_within(worker, deadline since issue) ── False: abandon()
                  (no deadline: the worker runs inline in the client process)

:meth:`ServedRequest.settle` is the one place a request ends and
:func:`within` the one place a client waits on a deadline, here and in
:class:`~repro.shard.ShardRouter` alike; :func:`abandon` is the timeout
rule.  :func:`run_within` decides whether a worker is a process of its
own: only a deadline, which may abandon it, makes it one; without one the
worker (grant wait and execute) runs inline in the process that waits on
it.  An abandoned op still runs to completion (the kernel has no
cancellation) and settles as usual, so the conservation identity
``issued == completed + shed + failed + in_flight`` holds at every instant
of simulated time.  Everything is seeded and DES-driven: two same-seed
runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..btree.cc import PageLatchManager, make_protocol
from ..core.disk_first import DiskFirstFpTree
from ..dbms.engine import MiniDbms
from ..des import Environment, Event, WaitTimeout, with_timeout
from ..faults.errors import SimulatedCrash
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs import MetricsRegistry, Observability
from ..storage.buffer import BufferPool
from ..storage.config import StorageConfig
from ..storage.disk import DiskArray
from ..storage.prefetch import AsyncPageReader, RetryPolicy
from ..workloads.ops import FreshKeys
from .admission import AdmissionController, AdmissionRejected
from .stats import ServerStats

__all__ = [
    "ADMISSION_MODES",
    "BrownoutRejected",
    "DbmsServer",
    "ServedRequest",
    "abandon",
    "detached",
    "remaining",
    "run_within",
    "within",
]

#: How a server admits requests: one FIFO token queue, or FIFO with point
#: lookups grouped into batches first.
ADMISSION_MODES: tuple[str, ...] = ("fifo", "batch")


def detached(error: BaseException) -> BaseException:
    """``error`` with the tracebacks along its ``__context__`` chain cleared.

    A caught exception's traceback holds the generator frames it unwound,
    and those frames hold the request.  Stored as-is on ``request.error``,
    it closes a request -> error -> traceback -> frame -> request cycle, so
    a finished run waits for the cyclic collector.  An exception built and
    stored without being raised has no traceback and needs no detaching.
    """
    exc = error
    while exc is not None:  # Python keeps context chains acyclic
        exc.__traceback__ = None
        exc = exc.__context__
    return error


class BrownoutRejected(RuntimeError):
    """An insert shed at submission because the brownout ladder says so."""

    def __init__(self, level: int) -> None:
        super().__init__(f"insert rejected: brownout ladder at level {level}")
        self.level = level


@dataclass
class ServedRequest:
    """One client operation and its full serving history."""

    rid: int
    session: str
    op: tuple
    issued_at: float = 0.0
    admitted_at: float = -1.0
    finished_at: float = -1.0
    #: "pending" -> "ok" | "shed" | "failed" (set by :meth:`settle`);
    #: "timeout" means the *client* gave up on a pending op — the server
    #: still finishes it and settles it ("ok" or "failed", with
    #: ``timed_out`` kept).
    outcome: str = "pending"
    timed_out: bool = False
    rows: int = 0
    queue_wait_us: float = 0.0
    error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        return self.op[0]

    @property
    def latency_us(self) -> float:
        """Issue-to-completion latency (valid once finished)."""
        return self.finished_at - self.issued_at

    def settle(self, stats: ServerStats, now: float, outcome: str,
               error: Optional[BaseException] = None, rows: int = 0) -> None:
        """The one place a served request ends.

        Stamps ``outcome`` ("ok", "shed" or "failed"), ``finished_at``,
        ``rows`` and the detached ``error``, then makes the one terminal
        :meth:`ServerStats.settle` call.  A second settle would double-count
        the conservation identity, so it asserts.
        """
        assert self.finished_at < 0, f"request {self.rid} settled twice"
        if outcome not in ("ok", "shed", "failed"):
            raise ValueError(f"unknown terminal outcome {outcome!r}")
        self.outcome = outcome
        self.finished_at = now
        self.rows = rows
        if error is not None:
            self.error = detached(error)
        stats.settle(self.kind, outcome, self.latency_us, rows)


def within(env: Environment, event: Event, budget_us: Optional[float], detail: str):
    """Wait on ``event`` for at most ``budget_us`` (None: unbounded).

    A process generator (``ok = yield from within(...)``): returns False
    when the budget ran out first.  The event keeps running either way.
    An event already triggered fires now, inside any budget, so it arms
    no timer.
    """
    if budget_us is None or event.triggered:
        yield event
        return True
    try:
        yield with_timeout(env, event, budget_us, detail=detail)
    except WaitTimeout:
        return False
    return True


def run_within(env: Environment, work, budget_us: Optional[float], detail: str):
    """Run the worker generator ``work`` for at most ``budget_us`` (None: unbounded).

    A process generator (``ok = yield from run_within(...)``) like
    :func:`within`.  Only a deadline can abandon a worker, so only then
    does ``work`` get a process of its own, waited on through
    :func:`within`; without one it runs inline (``yield from``) in the
    calling process, which saves that process's bootstrap and join events,
    and the result is always True.
    """
    if budget_us is None:
        yield from work
        return True
    return (yield from within(env, env.process(work), budget_us, detail))


def remaining(env: Environment, request: ServedRequest,
              budget_us: Optional[float]) -> Optional[float]:
    """What is left now of a client budget that runs from issue (None: unbounded)."""
    if budget_us is None:
        return None
    return max(0.0, budget_us - (env.now - request.issued_at))


def abandon(request: ServedRequest, stats: ServerStats) -> None:
    """The client stopped waiting: mark ``timed_out`` and count the timeout.

    The outcome becomes "timeout" only while the request is still pending;
    one that already settled keeps its terminal outcome.
    """
    request.timed_out = True
    if request.outcome == "pending":
        request.outcome = "timeout"
    stats.timeouts += 1


@dataclass
class _LookupBatch:
    """One open batch of point lookups awaiting execution."""

    bid: int
    #: (request, completion event) pairs in arrival order.
    entries: list = field(default_factory=list)
    closed: bool = False


class DbmsServer:
    """Serves concurrent lookup/scan/insert traffic against one MiniDbms.

    The buffer pool is sized by ``pool_frames`` (small relative to the
    table, so concurrent clients genuinely contend for frames and
    spindles); ``max_concurrency``/``queue_depth`` configure admission;
    ``deadline_us`` arms a per-query client deadline.  ``admission_mode``
    is ``"fifo"`` or ``"batch"``: point lookups are collected into size-
    and deadline-bounded batches (``batch_max`` / ``batch_window_us``) and
    executed level-wise through
    :meth:`~repro.dbms.engine.MiniDbms.serve_lookup_batch` — one
    admission token, one prefetch wave per tree level, per-op latency
    attribution.  Scans and inserts flow through the individual path
    unchanged; the underlying admission queue runs FIFO.
    """

    def __init__(
        self,
        db: MiniDbms,
        max_concurrency: int = 16,
        queue_depth: int = 64,
        pool_frames: int = 128,
        page_process_us: float = 150.0,
        deadline_us: Optional[float] = None,
        admission_mode: str = "fifo",
        scan_prefetch_depth: int = 4,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        mirrored: bool = False,
        seed: int = 0,
        obs: Optional[Observability] = None,
        concurrency: str = "none",
        retry_budget: int = 8,
        batch_window_us: float = 2_000.0,
        batch_max: int = 16,
        env: Optional[Environment] = None,
        fresh_keys: Optional[FreshKeys] = None,
    ) -> None:
        if not isinstance(db.index, DiskFirstFpTree):
            raise ValueError(
                f"DbmsServer serves only index_kind 'fp-disk' (the disk-first "
                f"fpB+-Tree), not {db.index_kind!r}"
            )
        if admission_mode not in ADMISSION_MODES:
            modes = ", ".join(ADMISSION_MODES)
            raise ValueError(f"unknown admission mode {admission_mode!r}; pick one of {modes}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if batch_window_us <= 0:
            raise ValueError(f"batch_window_us must be positive, got {batch_window_us}")
        self.db = db
        self.obs = obs if obs is not None else Observability(metrics=MetricsRegistry())
        self._config = StorageConfig(
            page_size=db.page_size,
            num_disks=db.num_disks,
            buffer_pool_pages=pool_frames,
            disk=db.disk_params,
        )
        self.fault_plan = fault_plan
        self.mirrored = mirrored
        #: One injector for the server's lifetime: its per-disk RNG streams
        #: and time-phased profiles carry across a crash-rebuild, so a disk
        #: dead before the crash stays dead after recovery.
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self._max_concurrency = max_concurrency
        self._queue_depth = queue_depth
        #: Batch admission: lookups are grouped; the queue itself is FIFO.
        self.batching = admission_mode == "batch"
        self.batch_window_us = batch_window_us
        self.batch_max = batch_max
        self._open_batch: Optional[_LookupBatch] = None
        self._next_batch_id = 0
        self._policy = policy
        self._seed = seed
        self.stats = ServerStats(self.obs.metrics)
        self.page_process_us = page_process_us
        self.deadline_us = deadline_us
        self.scan_prefetch_depth = scan_prefetch_depth
        #: The configured depth; the brownout ladder shrinks
        #: ``scan_prefetch_depth`` and steps back up to this.
        self.base_scan_prefetch_depth = scan_prefetch_depth
        #: Brownout knobs (driven by a BrownoutController, if attached).
        self.max_scan_pages: Optional[int] = None
        self.reject_inserts = False
        #: A shard-attached server shares the fleet's DES clock instead of
        #: owning one; its substrate is bound to this environment.
        self._external_env = env
        if fresh_keys is not None:
            # A shard's allocator is range-constrained (RangeFreshKeys) so
            # routed inserts cannot mint keys outside the shard's key range.
            self.fresh_keys = fresh_keys
        else:
            #: Fresh insert keys start one stride past the stored universe.
            max_key = int(db.stored_keys[-1])
            self.fresh_keys = FreshKeys(max_key + 2, stride=2)
        self._next_rid = 0
        self.requests: list[ServedRequest] = []
        #: Concurrency control mode, i.e. the latch protocol every served
        #: op descends under (:mod:`repro.btree.cc`): "none" (ops interleave
        #: only at yield points, tree mutations are atomic), "page"
        #: (optimistic version-latch reads plus leaf-latched writes, so
        #: sessions genuinely race inside the tree) or "coarse" (every op
        #: behind one global latch — the benchmark baseline).  An unknown
        #: mode raises ValueError when the substrate is wired below.
        self.concurrency = concurrency
        self.retry_budget = retry_budget
        self.latches: Optional[PageLatchManager] = None
        #: Latch/traversal counters folded across substrate rebuilds.
        self.latch_totals: dict[str, int] = {}
        #: Optional linearizability history recorder (attach_history).
        self.history = None
        self._build_substrate(initial_time=0.0)

    def _build_substrate(self, initial_time: float) -> None:
        """(Re)create the DES environment and everything bound to it.

        A standalone server gets a fresh environment starting at
        ``initial_time``, so a recovered server's clock stays monotonic; a
        shard-attached server binds its disk array, reader and admission
        queue to the fleet's shared clock instead.
        """
        env = self._external_env
        if env is None:
            env = Environment(initial_time=initial_time)
        self.env = env
        self.disks = DiskArray(
            env, self._config, injector=self.injector, mirrored=self.mirrored, obs=self.obs
        )
        self.pool = BufferPool(self._config, self.db.store, obs=self.obs)
        self.reader = AsyncPageReader(
            env, self.disks, self.pool, policy=self._policy, seed=self._seed, obs=self.obs
        )
        self.admission = AdmissionController(
            env,
            max_concurrency=self._max_concurrency,
            max_queue_depth=self._queue_depth,
            metrics=self.obs.metrics,
        )
        #: An open batch's closer timer died with the old environment, so a
        #: crash-rebuild starts with no batch collecting (its requests are
        #: drained by fail_unfinished like every other in-flight op).
        self._open_batch = None
        if self.concurrency != "none":
            self.latch_totals = self.latch_counters()
            self.latches = PageLatchManager(self.env, self.db.store)
            self.latches.attach_watchdog()
        #: The latch protocol every served op (and batch) runs under.
        self.protocol = make_protocol(self.concurrency, self.latches, self.retry_budget)

    def latch_counters(self) -> dict[str, int]:
        """Cumulative concurrency-control counters (across rebuilds)."""
        totals = dict(self.latch_totals)
        if self.latches is None:
            return totals
        for source in (self.latches, self.protocol):
            for name, value in source.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def attach_history(self, recorder) -> None:
        """Record every op's invocation/response into ``recorder``.

        The recorder is a
        :class:`~repro.verify.linearizability.HistoryRecorder`; give it a
        clock that chases the live environment (``lambda: server.env.now``)
        so it survives crash rebuilds.  Ops that fail or die in a crash are
        left pending — their effect is ambiguous, which is exactly what the
        checker's completion rule models.
        """
        self.history = recorder

    # -- request construction / submission ---------------------------------

    def make_request(self, op: tuple, session: str = "client") -> ServedRequest:
        request = ServedRequest(rid=self._next_rid, session=session, op=op)
        self._next_rid += 1
        return request

    def submit(self, request: ServedRequest):
        """Issue a request; returns the *client-side* process event.

        The event fires when the client is done with the request: on
        completion, on shed, or when the per-query deadline expires (the
        server keeps working past a deadline; the client just stops
        waiting).  The event's value is the request itself.
        """
        return self.env.process(self.issue(request))

    def issue(self, request: ServedRequest):
        """Count ``request`` as issued now; returns its client generator.

        :meth:`submit` runs the generator as a process of its own; a caller
        that waits on the request anyway (the shard router) can run it
        inline instead.
        """
        request.issued_at = self.env.now
        self.stats.issue()
        self.requests.append(request)
        return self._client(request)

    def _client(self, request: ServedRequest):
        if self.reject_inserts and request.kind == "insert":
            # Brownout ladder level >= 3: background inserts are shed
            # before admission so foreground reads keep the tokens.
            request.settle(
                self.stats, self.env.now, "shed", BrownoutRejected(self.stats.brownout_level.value)
            )
            self.stats.brownout_rejected += 1
            return request
        # Every op's deadline runs from *issue*: batch window and admission
        # queue included.
        budget = remaining(self.env, request, self.deadline_us)
        detail = f"request {request.rid}"
        if self.batching and request.kind == "lookup":
            # The batch completes the op for its batchmates anyway.
            done = self._join_lookup_batch(request)
            if not (yield from within(self.env, done, budget, detail)):
                abandon(request, self.stats)
            return request
        try:
            ticket = self.admission.claim()
        except AdmissionRejected as exc:
            request.settle(self.stats, self.env.now, "shed", exc)
            return request
        # With a deadline the worker is a process that waits for the grant
        # itself, so an op whose client gave up in the queue still runs,
        # holding its token, once granted.
        if not (yield from run_within(self.env, self._admitted(request, ticket), budget, detail)):
            abandon(request, self.stats)
        return request

    def _admitted(self, request: ServedRequest, ticket):
        """Worker: wait for ``request``'s admission token, then execute it."""
        yield ticket.grant
        self.admission.granted(ticket)
        request.admitted_at = self.env.now
        request.queue_wait_us = ticket.queue_wait_us
        yield from self._execute(request, ticket)

    def _execute(self, request: ServedRequest, ticket):
        """Server-side worker: run the op, then release the service token."""
        # Bind the controller that issued the ticket: if a crash rebuilds
        # the substrate while this worker is in flight, its generator is
        # torn down later (GeneratorExit) and must not release a stale
        # ticket against the *new* controller.
        admission = self.admission
        try:
            rows = yield from self._dispatch(request)
        except SimulatedCrash:
            # The whole machine died mid-op, not just this request: let the
            # crash propagate out of the simulation so the crash handler
            # (see fail_unfinished / rebuild_substrate) accounts for every
            # in-flight request at once.  SimulatedCrash subclasses
            # StorageFault, so without this re-raise the crash would be
            # silently absorbed as one failed request.
            raise
        except Exception as exc:
            # A storage fault, a timed-out wait, an exhausted pool — or an
            # unexpected error (an unknown op kind, an engine bug): each must
            # land the request in "failed", or it stays "pending" forever and
            # the conservation identity breaks.
            request.settle(self.stats, self.env.now, "failed", exc)
            return request
        finally:
            if admission is self.admission:
                admission.release(ticket)
        request.settle(self.stats, self.env.now, "ok", rows=rows)
        return request

    def _dispatch(self, request: ServedRequest):
        kind = request.op[0]
        owner = f"{request.session}#{request.rid}"
        if kind == "insert" and request.op[1] is None:
            # Materialize the key into the request so clients can track
            # which acknowledged inserts must survive a crash.
            request.op = ("insert", self.fresh_keys.take())
        # History semantics: invoke at dispatch start, respond only on
        # server-side completion.  An op killed by a fault or crash never
        # responds and stays *pending* in the history — its effect is
        # ambiguous (the mutation may have committed before the write-through
        # faulted), which is the checker's completion rule exactly.
        hist_id = None
        if self.history is not None and kind in ("lookup", "scan", "insert"):
            hist_id = self.history.invoke(request.session, kind, request.op[1:])
        served = dict(page_process_us=self.page_process_us, owner=owner, protocol=self.protocol)
        if kind == "lookup":
            row = yield from self.db.serve_lookup(self.reader, request.op[1], **served)
            if hist_id is not None:
                self.history.respond(hist_id, row is not None)
            return 1 if row is not None else 0
        if kind == "scan":
            count = yield from self.db.serve_scan(
                self.reader, request.op[1], request.op[2],
                prefetch_depth=self.scan_prefetch_depth,
                max_pages=self.max_scan_pages,
                **served,
            )
            if hist_id is not None:
                # A possibly truncated scan's count is partial by design:
                # record it as unconstrained rather than as a violation.
                truncated = self.max_scan_pages is not None
                self.history.respond(hist_id, None if truncated else int(count))
            return count
        if kind == "insert":
            yield from self.db.serve_insert(self.reader, self.disks, request.op[1], **served)
            if hist_id is not None:
                self.history.respond(hist_id, True)
            return 1
        raise ValueError(f"unknown op kind {kind!r}")

    # -- batched lookups (admission_mode="batch") ---------------------------

    def _join_lookup_batch(self, request: ServedRequest) -> Event:
        """Add a lookup to the open batch; returns its completion event.

        The first joiner opens a fresh batch and arms its close timer
        (``batch_window_us``); reaching ``batch_max`` closes it early.  The
        completion event fires with the request once the batch resolves it
        — on success, shed, or failure.
        """
        batch = self._open_batch
        if batch is None or batch.closed:
            batch = _LookupBatch(bid=self._next_batch_id)
            self._next_batch_id += 1
            self._open_batch = batch
            self.env.process(self._batch_closer(batch))
        completion = Event(self.env)
        batch.entries.append((request, completion))
        if len(batch.entries) >= self.batch_max:
            self._close_batch(batch)
        return completion

    def _batch_closer(self, batch: _LookupBatch):
        yield self.env.timeout(self.batch_window_us)
        self._close_batch(batch)

    def _close_batch(self, batch: _LookupBatch) -> None:
        if batch.closed:
            return  # the size bound beat the timer (or vice versa)
        batch.closed = True
        if self._open_batch is batch:
            self._open_batch = None
        self.stats.batches += 1
        self.stats.batched_ops += len(batch.entries)
        self.env.process(self._batch_runner(batch))

    def _batch_runner(self, batch: _LookupBatch):
        """Execute one closed batch under a single admission token."""
        admission = self.admission
        entries = batch.entries
        try:
            ticket = yield from admission.admit()
        except AdmissionRejected as exc:
            for request, completion in entries:
                request.settle(self.stats, self.env.now, "shed", exc)
                completion.succeed(request)
            return
        now = self.env.now
        hist_ids: list = []
        for request, __ in entries:
            request.admitted_at = now
            request.queue_wait_us = now - request.issued_at
            hist_ids.append(
                self.history.invoke(request.session, "lookup", request.op[1:])
                if self.history is not None
                else None
            )

        def finish(i: int, row) -> None:
            request, completion = entries[i]
            request.settle(self.stats, self.env.now, "ok", rows=1 if row is not None else 0)
            if hist_ids[i] is not None:
                self.history.respond(hist_ids[i], row is not None)
            completion.succeed(request)

        try:
            # Deadlines are not the runner's business: each op's client arms
            # its own issue-to-completion timeout in _client, so a shared
            # traversal never mis-attributes one op's deadline to its
            # batchmates.
            yield from self.db.serve_lookup_batch(
                self.reader, [request.op[1] for request, __ in entries],
                page_process_us=self.page_process_us,
                owner=f"batch#{batch.bid}", protocol=self.protocol, on_result=finish,
            )
        except SimulatedCrash:
            # Machine-wide crash: let it propagate so fail_unfinished
            # accounts for every in-flight request at once (see _execute).
            raise
        except Exception as exc:
            for request, completion in entries:
                if request.finished_at < 0:  # not yet resolved by finish()
                    request.settle(self.stats, self.env.now, "failed", exc)
                    completion.succeed(request)
        finally:
            if admission is self.admission:
                admission.release(ticket)

    # -- crash handling ----------------------------------------------------

    def fail_unfinished(self, error: BaseException) -> int:
        """Drain every non-terminal request as failed; returns the count.

        Called by the crash handler the moment a :class:`SimulatedCrash`
        propagates out of the simulation: pending requests (including ones
        whose client already timed out but whose worker was still running)
        get a terminal "failed" outcome so the conservation identity holds
        across the substrate rebuild.
        """
        drained = 0
        for request in self.requests:
            if request.finished_at < 0:  # not yet ok / shed / failed
                request.settle(self.stats, self.env.now, "failed", error)
                drained += 1
        return drained

    def rebuild_substrate(self, resume_at: Optional[float] = None) -> None:
        """Stand the server back up after a crash.

        The new DES environment starts at ``resume_at`` (default: the
        crash instant) so the serving clock stays monotonic — latencies,
        time-phased fault profiles and stats all keep making sense.  The
        fault injector, stats and metrics registry survive the rebuild;
        the disk array, buffer pool, reader and admission queue are fresh.
        """
        if self._external_env is not None:
            raise RuntimeError(
                "a shard-attached server shares the fleet's DES clock and cannot "
                "rebuild its substrate independently; rebuild the fleet through "
                "its router"
            )
        self._build_substrate(initial_time=self.env.now if resume_at is None else resume_at)

    # -- reporting ---------------------------------------------------------

    @property
    def workload_keys(self):
        """The key universe load generators should draw operations from."""
        return self.db.stored_keys

    def utilization(self) -> list[float]:
        """Per-disk busy fraction over the run so far."""
        return self.disks.utilization()

    def mean_utilization(self) -> float:
        util = self.utilization()
        return sum(util) / len(util) if util else 0.0

    def run(self, until=None):
        """Advance the simulation (thin wrapper over ``env.run``)."""
        return self.env.run(until=until)
