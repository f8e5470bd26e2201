"""Mini query engine standing in for DB2 in the Figure 19 experiment.

Reproduces exactly what the paper's DB2 experiment exercises: an
index-only ``SELECT COUNT(*)`` scan over a many-disk table, with

* a configurable pool of **I/O prefetcher processes** (DB2's I/O servers)
  consuming a shared prefetch-request queue fed from the index's
  jump-pointer array, and
* configurable **SMP parallelism**: the leaf-page range is partitioned into
  contiguous segments scanned by parallel worker processes.

Three execution modes mirror the paper's three curves: plain demand-paged
scan ("no prefetch"), jump-pointer-array prefetching ("with prefetch"), and
a preloaded buffer pool ("in memory" — the attainable floor).

:meth:`MiniDbms.scan` additionally survives an unhealthy array: a
:class:`~repro.faults.FaultPlan` injects deterministic faults, a
:class:`~repro.storage.RetryPolicy` plus optional mirrored striping and
hedged reads recovers from them, and a query deadline drives a
**degradation ladder** — hedged reads first, then plain retries, then
skip-prefetch demand paging — shedding optional I/O as the deadline nears.
Faults cost time, never correctness: the row count is identical to a
fault-free run.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..btree.base import span_bounds
from ..btree.batch import NULL_PROTOCOL, LevelWiseLookupBatch, descend
from ..btree.cc import LatchChain
from ..btree.context import TreeEnvironment
from ..core.disk_first import DiskFirstFpTree
from ..des import Environment, Store
from ..faults import FaultInjector, FaultPlan, StorageFault
from ..obs import MetricsRegistry, Observability, QueryTrace, Tracer
from ..storage.buffer import BufferPool
from ..storage.config import DiskParameters, StorageConfig
from ..storage.disk import DiskArray
from ..storage.prefetch import AsyncPageReader, RetryPolicy
from ..wal import RecoveryStats, WalManager, recover
from ..workloads.generator import KeyWorkload, build_mature_tree
from .table import DEFAULT_SCHEMA, HeapTable, RowSchema

__all__ = ["MiniDbms", "QueryStats"]

#: Degradation ladder thresholds, as fractions of the query deadline: past
#: the first, hedging is shed; past the second, prefetching too.
DEGRADE_HEDGE_AT = 0.6
DEGRADE_PREFETCH_AT = 0.85


@dataclass(frozen=True)
class QueryStats:
    """Outcome of one query execution, including its resilience history."""

    elapsed_us: float
    pages_scanned: int
    disk_reads: int
    prefetches: int
    row_count: int
    # Fault/recovery accounting (all zero on a healthy, undeadlined run).
    faults_seen: int = 0
    retries: int = 0
    timeouts: int = 0
    backoff_us: float = 0.0
    hedges: int = 0
    hedge_wins: int = 0
    checksum_failures: int = 0
    degradation_level: int = 0
    deadline_exceeded: bool = False
    # Write-path accounting (all zero unless write-ahead logging is on):
    # cumulative WAL appends, durable page writes (evictions + checkpoints),
    # and the simulated disk time they consumed, as of query time.
    wal_appends: int = 0
    page_writes: int = 0
    disk_write_us: float = 0.0
    #: Attached observability bundle (``scan(trace=True)``); excluded from
    #: equality so traced and untraced stats of the same run still compare.
    trace: Optional[QueryTrace] = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6

    def explain(self) -> str:
        """Text timeline of the query (needs ``scan(trace=True)``)."""
        header = (
            f"scan: {self.row_count} rows over {self.pages_scanned} pages in "
            f"{self.elapsed_us:.0f} us — {self.disk_reads} disk reads, "
            f"{self.prefetches} prefetches, {self.retries} retries, "
            f"{self.hedges} hedges, degradation level {self.degradation_level}"
        )
        if self.trace is None:
            return header + "\n  (run scan(trace=True) for a full timeline)"
        return header + "\n" + self.trace.timeline()


class MiniDbms:
    """A one-table database with a (disk-first fpB+-Tree) index."""

    def __init__(
        self,
        num_rows: int,
        num_disks: int = 80,
        page_size: int = 16 * 1024,
        seed: int = 7,
        schema: RowSchema = DEFAULT_SCHEMA,
        mature: bool = True,
        disk: Optional[DiskParameters] = None,
        index_kind: str = "fp-disk",
        key_range: Optional[tuple] = None,
    ) -> None:
        self.num_disks = num_disks
        self.page_size = page_size
        self.disk_params = disk if disk is not None else DiskParameters()
        self.schema = schema
        self.index_kind = index_kind
        self._num_rows_hint = num_rows
        self.wal: Optional[WalManager] = None
        self.last_recovery: Optional[RecoveryStats] = None
        #: Leaf-map cache (see :meth:`cached_leaf_map`) and its stamp.
        self._leaf_map_cache: Optional[tuple[np.ndarray, list[int]]] = None
        self._leaf_map_epoch: Optional[tuple] = None
        self.env = TreeEnvironment(page_size=page_size, buffer_pages=64)
        self.store = self.env.store
        self.table = HeapTable(self.store, schema)
        self.index = self._make_index(index_kind, num_rows)

        # Tuple ids are row positions; the index maps k1 -> tid.  Taking
        # the bulkload arrays draws nothing, so this one workload also
        # serves the query generators.
        self._workload = KeyWorkload(num_rows, seed=seed)
        rng = np.random.default_rng(seed + 1)
        keys, __ = self._workload.bulkload_arrays()
        # Draw every key's payload in full-universe order, so a row's
        # contents are a pure function of its key — a sharded fleet
        # stores byte-identical rows to the unsharded database.
        values = rng.integers(0, 1 << 31, size=keys.size)
        self.key_range = key_range
        if key_range is not None:
            # A shard of a fleet: store only the keys inside [lo, hi).  The
            # mature-tree builder replays the full insert history, so a
            # sliced database must bulkload instead.
            if mature:
                raise ValueError("key_range slicing requires mature=False")
            lo, hi = key_range
            mask = np.ones(keys.size, dtype=bool)
            if lo is not None:
                mask &= keys >= lo
            if hi is not None:
                mask &= keys < hi
            if not mask.any():
                raise ValueError(f"key_range {key_range} holds no stored keys")
            keys, values = keys[mask], values[mask]
        self.table.append_rows(keys, values, keys % 997)
        #: The keys this database actually stores (the full universe, or
        #: this shard's slice of it) — what load generators should target.
        self.stored_keys = keys
        if mature:
            # The paper's table is populated by concurrent inserts, so the
            # index grows through page splits rather than pure bulkload.
            index_workload = KeyWorkload(num_rows, seed=seed)
            build_mature_tree(self.index, index_workload, bulk_fraction=0.7)
        else:
            tids = np.arange(1, keys.size + 1, dtype=np.int64)
            self.index.bulkload(keys, tids)

    def _make_index(self, kind: str, num_rows: int, env: Optional[TreeEnvironment] = None):
        """The database's index: any of the disk-resident structures.

        :meth:`scan` only needs ``leaf_page_ids`` and per-page entry
        counts, so every tree kind works for scans; the paper's DB2
        experiment used standard B+-Trees with jump-pointer arrays added,
        and the default here is the disk-first fpB+-Tree the paper
        recommends.  The served paths (``descend``, ``LatchChain``) read
        ``page_entries``/``child_pid``/``leaf_tid``, which only the
        disk-first tree has, so a :class:`~repro.serve.DbmsServer` accepts
        only ``"fp-disk"``.
        """
        from ..baselines.disk_btree import DiskBPlusTree
        from ..baselines.micro_index import MicroIndexTree
        from ..core.cache_first import CacheFirstFpTree

        env = env if env is not None else self.env
        if kind == "fp-disk":
            return DiskFirstFpTree(env)
        if kind == "fp-cache":
            return CacheFirstFpTree(env, num_keys_hint=num_rows)
        if kind == "micro":
            return MicroIndexTree(env)
        if kind == "disk":
            return DiskBPlusTree(env)
        raise ValueError(f"unknown index kind {kind!r}")

    # -- query execution ------------------------------------------------------

    def scan(
        self,
        smp_degree: int = 1,
        prefetchers: int = 0,
        in_memory: bool = False,
        page_process_us: float = 2000.0,
        pool_frames: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        mirrored: bool = False,
        deadline_us: Optional[float] = None,
        hedge: bool = True,
        trace: bool | Tracer = False,
    ) -> QueryStats:
        """Index-only leaf scan with fault injection and graceful degradation.

        ``fault_plan`` injects deterministic faults (seeded — two runs with
        the same plan produce bit-identical :class:`QueryStats`).  A
        ``retry_policy`` is installed automatically whenever a fault plan is
        present; ``mirrored`` places every page on two spindles, enabling
        retry-on-mirror and (with ``hedge``) hedged reads.  ``deadline_us``
        arms the degradation ladder: past 60% of the deadline hedging is
        shed, past 85% prefetching too, leaving plain demand paging.

        ``trace=True`` (or a :class:`~repro.obs.Tracer` of your own)
        records the query's full event timeline — disk service spans,
        pool hit/miss/evict, prefetch/hedge/retry decisions, ladder
        transitions, per-scanner page spans — and attaches it to the
        returned stats as ``stats.trace`` (a
        :class:`~repro.obs.QueryTrace`; ``stats.explain()`` renders it,
        ``stats.trace.write(path)`` exports Perfetto-loadable JSON).
        Tracing observes the DES clock and never advances it: a traced run
        returns bit-identical times to an untraced one.
        """
        if smp_degree < 1:
            raise ValueError("smp_degree must be >= 1")
        if prefetchers < 0:
            raise ValueError("prefetchers must be >= 0")
        if deadline_us is not None and deadline_us <= 0:
            raise ValueError(f"deadline_us must be positive, got {deadline_us}")
        tracer: Optional[Tracer] = None
        if trace:
            tracer = trace if isinstance(trace, Tracer) else Tracer()
        obs = Observability(tracer=tracer, metrics=MetricsRegistry())
        leaf_pids = self.index.leaf_page_ids()
        frames = pool_frames if pool_frames is not None else len(leaf_pids) + 64
        config = StorageConfig(
            page_size=self.page_size,
            num_disks=self.num_disks,
            buffer_pool_pages=frames,
            disk=self.disk_params,
        )
        injector = FaultInjector(fault_plan) if fault_plan is not None else None
        policy = retry_policy
        if policy is None and fault_plan is not None:
            policy = RetryPolicy()
        if policy is not None and mirrored and hedge and policy.hedge_after_us is None:
            # Hedge once the primary has been quiet 1.5x a nominal random read.
            nominal = self.disk_params.service_time_us(-1, 0, self.page_size)
            policy = dataclasses.replace(policy, hedge_after_us=1.5 * nominal)
        env = Environment()
        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: env.now
        disks = DiskArray(env, config, injector=injector, mirrored=mirrored, obs=obs)
        pool = BufferPool(config, self.store, obs=obs)
        seed = fault_plan.seed if fault_plan is not None else 0
        reader = AsyncPageReader(env, disks, pool, policy=policy, seed=seed, obs=obs)
        reader.hedge_enabled = hedge
        if in_memory:
            reader.preload(leaf_pids)

        # Partition the leaf range into contiguous SMP segments.
        bounds = np.linspace(0, len(leaf_pids), smp_degree + 1).astype(int)
        segments = [
            leaf_pids[bounds[i] : bounds[i + 1]]
            for i in range(smp_degree)
            if bounds[i + 1] > bounds[i]
        ]

        row_count = 0
        request_queue = Store(env)
        window = 4 * max(1, prefetchers)
        max_level = 0

        def current_level() -> int:
            if deadline_us is None:
                return 0
            if env.now >= DEGRADE_PREFETCH_AT * deadline_us:
                return 2
            if env.now >= DEGRADE_HEDGE_AT * deadline_us:
                return 1
            return 0

        def degrade() -> None:
            """Shed optional I/O as the deadline approaches (never re-arms)."""
            nonlocal max_level
            level = current_level()
            if level <= max_level:
                return
            max_level = level
            if tracer is not None:
                tracer.instant(
                    "degrade", track="query", cat="query",
                    level=level, deadline_us=deadline_us,
                )
            if level >= 1:
                reader.hedge_enabled = False
            if level >= 2:
                reader.prefetch_enabled = False

        def prefetcher():
            while True:
                pid = yield request_queue.get()
                event = reader.prefetch(pid)
                if event is not None:
                    try:
                        yield event  # an I/O server is busy for the duration
                    except StorageFault:
                        pass  # the demand path will recover (or report)

        def scanner(worker_id, segment):
            nonlocal row_count
            track = f"scan{worker_id}"
            issued = 0
            for index, pid in enumerate(segment):
                degrade()
                if prefetchers and reader.prefetch_enabled:
                    while issued < min(index + window, len(segment)):
                        request_queue.put(segment[issued])
                        issued += 1
                start = env.now
                yield from reader.demand(pid)
                rows = len(self.store.page(pid))
                row_count += rows
                yield env.timeout(page_process_us)
                if tracer is not None:
                    tracer.complete("page", track, start, cat="scan", page=pid, rows=rows)

        if prefetchers and not in_memory:
            for __ in range(prefetchers):
                env.process(prefetcher())
        scanners = [
            env.process(scanner(worker_id, segment))
            for worker_id, segment in enumerate(segments)
        ]
        env.run(until=env.all_of(scanners))
        if tracer is not None:
            # Final reconciliation samples: the trace's own totals must
            # agree with the QueryStats the caller gets back.
            tracer.counter("reads", disks.total_reads, track="query")
            tracer.counter("prefetches", reader.prefetches, track="query")
            tracer.counter("hedges", reader.hedges, track="query")
            tracer.counter("retries", reader.retries, track="query")
            tracer.counter(
                "wal_appends", self.wal.log.appends if self.wal is not None else 0,
                track="query",
            )
        return QueryStats(
            elapsed_us=env.now,
            pages_scanned=len(leaf_pids),
            disk_reads=disks.total_reads,
            prefetches=reader.prefetches,
            row_count=row_count,
            faults_seen=reader.faults_seen,
            retries=reader.retries,
            timeouts=reader.timeouts,
            backoff_us=reader.backoff_us,
            hedges=reader.hedges,
            hedge_wins=reader.hedge_wins,
            checksum_failures=pool.checksum_failures,
            degradation_level=max_level,
            deadline_exceeded=deadline_us is not None and env.now > deadline_us,
            wal_appends=self.wal.log.appends if self.wal is not None else 0,
            page_writes=self.wal.pages_flushed if self.wal is not None else 0,
            disk_write_us=self.wal.io_env.now if self.wal is not None else 0.0,
            trace=QueryTrace(tracer, obs.metrics, label="scan") if tracer is not None else None,
        )

    # -- point access (used by examples/tests) -------------------------------------

    def lookup(self, key: int) -> Optional[tuple[int, int, int]]:
        """Fetch a row's integer columns through the index."""
        tid = self.index.search(key)
        if tid is None:
            return None
        return self.table.fetch(int(tid) - 1)  # tids are 1-based in workloads

    # -- serving (reentrant ops over a shared substrate) -----------------------------
    #
    # Unlike :meth:`scan`, which builds a private environment and runs it to
    # completion, the ``serve_*`` methods are process *generators*: any
    # number of concurrent DES processes may run them against one shared
    # :class:`~repro.storage.prefetch.AsyncPageReader` (one environment, one
    # buffer pool, one disk array), which is what makes multi-client
    # contention — coalesced reads, CLOCK evictions under pressure, spindle
    # queueing — actually happen.  The serving layer
    # (:mod:`repro.serve`) drives them.

    def leaf_key_map(self) -> tuple[np.ndarray, list[int]]:
        """(first keys, leaf page ids) in leaf order, for range planning.

        The first keys are non-decreasing: an emptied leaf page takes its
        successor's first key (:meth:`~repro.btree.base.Index.leaf_first_keys`).
        Serving reads it through :meth:`cached_leaf_map`.
        """
        pids = self.index.leaf_page_ids()
        return self.index.leaf_first_keys(pids), pids

    def leaf_map_epoch(self) -> tuple:
        """Stamp of the leaf-page topology: ``(index, index.page_splits)``.

        Leaves are added only by page splits (a root growth is one) and
        never freed, and recovery swaps the whole index object out, so the
        stamp moves on every event that can make a cached
        :meth:`leaf_key_map` route a scan through a stale leaf snapshot —
        and on nothing else (heap-page allocation leaves it alone).
        """
        index = self.index
        return index, index.page_splits

    def cached_leaf_map(self) -> tuple[np.ndarray, list[int]]:
        """Epoch-validated leaf map: recomputed iff the topology moved.

        This replaces the serving layer's manual invalidate-on-insert: a
        split triggered by *any* path (a concurrent writer, recovery, a
        direct ``insert``) bumps the epoch, so concurrent scans can never
        route through a stale snapshot.
        """
        epoch = self.leaf_map_epoch()
        if self._leaf_map_cache is None or self._leaf_map_epoch != epoch:
            self._leaf_map_cache = self.leaf_key_map()
            self._leaf_map_epoch = epoch
        return self._leaf_map_cache

    def serve_lookup(
        self, reader, key: int, page_process_us: float = 150.0, owner=None, protocol=None
    ):
        """Process generator: point lookup through a shared serving substrate.

        Descends page by page (:func:`~repro.btree.batch.descend`), charging
        ``page_process_us`` of CPU per page visited with the page pinned
        (``owner`` attribution), then reads the row's heap page.
        ``protocol`` is the server's latch protocol (default: none, see
        :mod:`repro.btree.cc`).  Returns the row or ``None``.
        """
        protocol = NULL_PROTOCOL if protocol is None else protocol
        return (yield from protocol.guarded(
            self._lookup(reader, key, page_process_us, owner, protocol), owner
        ))

    def _lookup(self, reader, key, page_process_us, owner, protocol):
        tree = self.index
        for __ in range(protocol.retry_budget):
            arrivals, __, __ = yield from descend(
                self, reader, [key], protocol, owner, page_process_us
            )
            if arrivals:
                leaf = arrivals[0]
                # A stale leaf (the topology moved under a null descent) is
                # re-resolved with an atomic fresh search.
                tid = leaf.tids[0] if leaf.fresh else tree.search(key)
                break
            protocol.read_restarts += 1
        else:
            protocol.pessimistic_reads += 1
            leaf_pid, held, __ = yield from protocol.escalate(
                self, reader, key, owner, page_process_us
            )
            tid = tree.leaf_tid(leaf_pid, key)
            protocol.unlatch(held, owner)
        if not tid:
            return None
        heap_pid, __ = self.table.tid_to_location(int(tid) - 1)
        yield from reader.demand(heap_pid)
        yield reader.env.timeout(page_process_us)
        return self.table.fetch(int(tid) - 1)

    def serve_lookup_batch(
        self,
        reader,
        keys,
        page_process_us: float = 150.0,
        owner=None,
        protocol=None,
        on_result=None,
    ):
        """Process generator: batched point lookups, traversed level-wise.

        All keys descend together: per tree level, the pages the batch
        needs issue as one prefetch wave in sorted page-id order, and each
        visited page is charged and routed once for the whole batch, with
        one ``searchsorted`` on its cached flat pair
        (:class:`~repro.btree.batch.LevelWiseLookupBatch`).  Returns the
        rows aligned with ``keys`` (``None`` per miss); ``on_result(i, row)``
        fires as each key resolves, so callers can attribute per-op
        latency without waiting for batch stragglers.  ``protocol`` is the
        latch protocol, exactly as for single-key serving.
        """
        batch = LevelWiseLookupBatch(
            self, keys, page_process_us=page_process_us, owner=owner, protocol=protocol
        )
        rows = yield from batch.run(reader, on_result=on_result)
        return rows

    def serve_scan(
        self,
        reader,
        start_key: int,
        end_key: int,
        page_process_us: float = 150.0,
        prefetch_depth: int = 4,
        max_pages: Optional[int] = None,
        owner=None,
        protocol=None,
    ):
        """Process generator: inclusive range scan over the shared substrate.

        Descends to (but not into) the start leaf, then consumes the
        covering leaf pages in key order, keeping ``prefetch_depth``
        jump-pointer prefetches in flight ahead of the consumption point.
        Returns the number of entries in the range.  A leaf freed by a
        concurrent split/merge is skipped — its entries moved, they did not
        vanish.

        ``max_pages`` (the brownout ladder's truncation knob) caps the leaf
        pages visited: a truncated scan returns partial results — the entry
        count of the leaves actually read — instead of the full range.
        """
        protocol = NULL_PROTOCOL if protocol is None else protocol
        return (yield from protocol.guarded(
            self._scan(
                reader, start_key, end_key, page_process_us, prefetch_depth,
                max_pages, owner, protocol,
            ),
            owner,
        ))

    def _scan(
        self, reader, start_key, end_key, page_process_us, prefetch_depth, max_pages,
        owner, protocol,
    ):
        walk = functools.partial(
            self._walk_span, reader, start_key, end_key, page_process_us,
            prefetch_depth, max_pages, owner,
        )
        for __ in range(protocol.retry_budget):
            arrivals, __, __ = yield from descend(
                self, reader, [start_key], protocol, owner, page_process_us,
                visit_leaf=False,
            )
            if arrivals:
                leaf = arrivals[0]
                count = yield from walk(protocol, {leaf.pid: leaf.token})
                if count is not None:
                    return count
            protocol.scan_restarts += 1
        protocol.pessimistic_reads += 1
        leaf_pid, held, __ = yield from protocol.escalate(
            self, reader, start_key, owner, page_process_us, visit_leaf=False
        )
        try:
            return (yield from walk(LatchChain(protocol.latches, held), {leaf_pid: None}))
        finally:
            protocol.unlatch(held, owner)

    def _walk_span(
        self, reader, start_key, end_key, page_process_us, prefetch_depth, max_pages,
        owner, protocol, tokens,
    ):
        """Process generator: read the leaves covering the range, in key order.

        Returns the count, or ``None`` if a leaf failed ``protocol``
        validation (restart).  ``tokens`` holds the descent's start-leaf
        token, so that leaf is not begun twice.
        """
        env = reader.env
        pool = reader.pool
        # Resolve the covering leaf span only *after* the descent's blocking
        # reads: a split landing during them re-routes the scan instead of
        # leaving it on the stale side of the boundary.  (The epoch-checked
        # cache makes this O(1) when nothing moved; splits during the walk
        # below are caught by validation, or — with no latches — are the
        # residual window per-key lookups live with, and untruncated counts
        # come from an atomic fresh range_count at the end.)
        firsts, pids = self.cached_leaf_map()
        lo, hi = span_bounds(firsts, start_key, end_key)
        span_pids = pids[lo:hi]
        truncated = max_pages is not None and len(span_pids) > max_pages
        if truncated:
            span_pids = span_pids[:max_pages]
        visited = []
        issued = 0
        for index, pid in enumerate(span_pids):
            if prefetch_depth:
                while issued < min(index + prefetch_depth, len(span_pids)):
                    target = span_pids[issued]
                    if target in self.store:
                        reader.prefetch(target)
                    issued += 1
            if pid not in self.store:
                continue
            if pid in tokens:
                token = tokens.pop(pid)
            elif protocol.latch_free_begin:
                token = None
            else:
                token = yield from protocol.begin(pid, owner)
            visited.append((pid, token))
            yield from reader.demand(pid)
            pin = pool.pin(pid, owner)
            try:
                yield env.timeout(page_process_us)
            finally:
                pool.unpin(pid, pin, owner)
            if not protocol.validate(pid, token):
                return None
        # End-to-end revalidation: every leaf unchanged since it was read
        # means the walk saw one consistent instant — this one.
        if not all(protocol.validate(pid, token) for pid, token in visited):
            return None
        if truncated:
            return sum(len(self.store.page(pid)) for pid in span_pids if pid in self.store)
        return self.index.range_count(int(start_key), int(end_key))

    def serve_insert(
        self,
        reader,
        disks,
        key: int,
        k2: int = 0,
        k3: int = 0,
        page_process_us: float = 150.0,
        owner=None,
        protocol=None,
    ):
        """Process generator: write-through insert on the shared substrate.

        Descends to the target leaf, applies the insert into it (heap
        append + index insert, instantaneous as in :meth:`insert`), then
        charges a synchronous write-through of the leaf to the disk array.
        With logging enabled (:meth:`enable_wal`) the insert commits through
        the WAL first and the commit's log-device time is charged on the
        serving clock, so WAL durability latency shows up in serving
        percentiles.  Returns the new tuple id.
        """
        protocol = NULL_PROTOCOL if protocol is None else protocol
        return (yield from protocol.guarded(
            self._insert(reader, disks, key, k2, k3, page_process_us, owner, protocol), owner
        ))

    def _insert(self, reader, disks, key, k2, k3, page_process_us, owner, protocol):
        row = None
        for __ in range(protocol.retry_budget):
            arrivals, __, __ = yield from descend(
                self, reader, [key], protocol, owner, page_process_us
            )
            if arrivals:
                leaf = arrivals[0]
                leaf_pid = leaf.pid
                if not leaf.fresh:
                    row = self.insert(key, k2, k3)  # atomic fresh re-descent
                    break
                locked = yield from protocol.lock_leaf(self.index, leaf_pid, leaf.token, owner)
                if locked:
                    try:
                        row = self._apply_insert(
                            leaf_pid, leaf.above, (leaf_pid,), key, k2, k3, protocol
                        )
                    finally:
                        protocol.unlatch((leaf_pid,), owner)
                    break
                if locked is None:
                    break  # split-unsafe leaf: retrying optimistically cannot help
            protocol.write_restarts += 1
        if row is None:
            protocol.pessimistic_writes += 1
            leaf_pid, held, path = yield from protocol.escalate(
                self, reader, key, owner, page_process_us, for_insert=True
            )
            try:
                row = self._apply_insert(leaf_pid, path[:-1], held, key, k2, k3, protocol)
            finally:
                protocol.unlatch(held, owner)
        if self.wal is not None and self.wal.last_commit_write_us > 0:
            yield reader.env.timeout(self.wal.last_commit_write_us)
        # Write-through: the mutated leaf goes straight back to its spindle.
        yield disks.write_page(leaf_pid)
        return row

    def _apply_insert(self, leaf_pid, path_above, held, key, k2, k3, protocol) -> int:
        """Atomically insert into the leaf a descent located (no re-descent).

        Mutating the traversal's own leaf is what makes the latches
        load-bearing: without them, a split between traversal and apply
        puts the entry in a page proper descents no longer route to.
        """
        tree = self.index
        page, base = tree._page(leaf_pid)
        with protocol.structural(held), self._txn():
            row = self.table.insert_row(key, k2, k3)
            tree._insert_entry(leaf_pid, page, base, key, row + 1, list(path_above))
            tree._entries += 1
        return row

    # -- the update path ------------------------------------------------------------

    def _txn(self):
        return self.wal.transaction() if self.wal is not None else nullcontext()

    def insert(self, key: int, k2: int = 0, k3: int = 0) -> int:
        """Insert a row and index it, atomically when logging is enabled.

        The heap append and the index insert (including any page splits it
        triggers) commit as one transaction; a crash between them leaves
        neither behind.  Returns the row's tuple id.
        """
        with self._txn():
            row = self.table.insert_row(key, k2, k3)
            self.index.insert(key, row + 1)  # index tids are 1-based
        return row

    def delete(self, key: int) -> bool:
        """Delete one index entry for ``key`` (heap rows are not reclaimed)."""
        with self._txn():
            return self.index.delete(key)

    # -- crash consistency ----------------------------------------------------------

    def enable_wal(
        self,
        plan: Optional[FaultPlan] = None,
        checkpoint_interval: int = 0,
        obs: Optional[Observability] = None,
    ) -> WalManager:
        """Turn on write-ahead logging (and, via ``plan``, crash injection).

        Returns the attached :class:`~repro.wal.WalManager`; from here on
        :meth:`insert`/:meth:`delete` are crash-atomic and page write-back
        is charged simulated disk time.  ``obs`` (optional) threads an
        observability bundle through the write path: WAL appends, commits,
        checkpoints and page flushes are then traced on the WAL's own I/O
        clock.
        """
        if self.wal is not None:
            raise RuntimeError("write-ahead logging is already enabled")
        self.wal = WalManager(
            self.index,
            plan=plan,
            disk=self.disk_params,
            checkpoint_interval=checkpoint_interval,
            obs=obs,
        )
        return self.wal

    def checkpoint(self) -> int:
        """Force committed-dirty pages to disk; returns pages flushed."""
        if self.wal is None:
            raise RuntimeError("write-ahead logging is not enabled")
        return self.wal.checkpoint()

    def crash_and_recover(self) -> RecoveryStats:
        """Discard all volatile state and rebuild from the durable image.

        Simulates a machine crash: the in-memory tree, buffer pool and heap
        table are thrown away; a fresh substrate is recovered from the
        WAL + durable pages (committed transactions survive, uncommitted
        ones vanish) and verified with the structural scrubber.  Logging is
        off afterwards — call :meth:`enable_wal` again to resume.
        """
        if self.wal is None:
            raise RuntimeError("write-ahead logging is not enabled")
        image = self.wal.crash_state()
        self.wal.detach()
        self.wal = None
        heap_page_ids = self.table.page_ids()

        def make_tree():
            env = TreeEnvironment(page_size=self.page_size, buffer_pages=64)
            return self._make_index(self.index_kind, self._num_rows_hint, env=env)

        tree, stats = recover(image, make_tree)
        self.index = tree
        self.env = tree.env
        self.store = tree.store
        self.table = HeapTable(self.store, self.schema)
        self.table.rebind(heap_page_ids)
        self.last_recovery = stats
        # Drop the cached stamp too: it holds the old index object.
        self._leaf_map_cache = self._leaf_map_epoch = None
        return stats
