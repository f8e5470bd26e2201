"""Transaction wrapping and the durable-image write path.

:class:`WalManager` attaches to one tree's :class:`~repro.btree.context.TreeEnvironment`
and threads crash consistency through the whole update path:

* **Logging** — it registers as the page store's write observer, so every
  in-place page mutation (``store.mark_dirty``), allocation and free that
  happens inside a :meth:`transaction` block is logged: a full page
  after-image per mutation (physical redo), ``ALLOC``/``FREE`` for the
  allocation map, and a ``COMMIT`` carrying the tree metadata.  Logging
  per-mutation rather than per-transaction means a crash point can land
  *between* the page writes of a multi-page split — the exact torn states
  recovery must handle.
* **No-steal** — pages dirtied by the open transaction are exempted from
  eviction (:meth:`BufferPool.mark_dirty` with ``no_steal=True``), so the
  durable image never contains uncommitted data and recovery needs no undo.
* **No-force with flush-on-evict** — commit forces only the log.  Data
  pages reach the durable image lazily, when the CLOCK sweep evicts them
  (the pool's ``flush_hook`` lands here) or eagerly at a checkpoint, which
  forces every committed-dirty page and then logs ``CHECKPOINT`` so redo
  can start there.

Every durable write — log appends and page flushes — is charged simulated
disk time through a private DES environment: the log device sees cheap
sequential appends, the data device pays per-page seeks.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..des import Environment
from ..faults.errors import SimulatedCrash
from ..faults.injector import CrashInjector, WriteOutcome
from ..faults.plan import FaultPlan
from ..image import encode_page
from ..obs import Observability, bind_counters
from ..storage.config import DiskParameters, StorageConfig
from ..storage.disk import DiskArray
from .log import WriteAheadLog
from .records import NO_PAGE, RecordType, TreeMeta

__all__ = ["TransactionContext", "WalManager", "WalStats", "CrashImage"]

#: Transaction id used by records not owned by any transaction.
SYSTEM_TXN = 0


@dataclass
class TransactionContext:
    """Write set of one open transaction."""

    txn_id: int
    #: Pages touched (dict used as an ordered set — first-touch order).
    written: dict[int, None] = field(default_factory=dict)
    began: bool = False

    def note(self, page_id: int) -> None:
        self.written[page_id] = None


@dataclass(frozen=True)
class CrashImage:
    """Everything that survives a crash: the log and the durable pages.

    ``checksums`` maps each durable page to the checksum recorded when its
    write *started* — for a torn page write, ``pages`` holds only the bytes
    that reached the platter while ``checksums`` holds the full content's
    checksum, so the tear is detected exactly the way real engines detect
    it: the page fails its checksum at read time.
    """

    wal_data: bytes
    pages: dict[int, bytes]
    checksums: dict[int, int]
    page_size: int


@dataclass(frozen=True)
class WalStats:
    """Counters surfaced to benchmarks and :class:`~repro.dbms.MiniDbms`."""

    commits: int
    wal_appends: int
    wal_bytes: int
    pages_flushed: int
    evict_flushes: int
    checkpoints: int
    write_us: float


class WalManager:
    """Crash consistency for one tree: WAL, write-back, checkpoints."""

    commits: int
    checkpoints: int
    pages_flushed: int

    def __init__(
        self,
        tree,
        plan: Optional[FaultPlan] = None,
        disk: Optional[DiskParameters] = None,
        checkpoint_interval: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        """Attach to ``tree`` (which must expose ``env``/``store``/``pool``).

        ``checkpoint_interval`` > 0 checkpoints automatically every that
        many commits; 0 means checkpoints happen only on explicit
        :meth:`checkpoint` calls.

        Attaching snapshots every live page into the durable image without
        charging disk time — a bulk-loaded tree is taken to be on disk
        already, so logging-overhead measurements see only the update
        path's own writes.
        """
        if checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {checkpoint_interval}")
        self.tree = tree
        self.store = tree.store
        self.pool = tree.pool
        self.page_size = tree.env.page_size
        self.checkpoint_interval = checkpoint_interval
        self.crash = CrashInjector(plan) if plan is not None else None
        self.io_env = Environment()
        self.obs = obs if obs is not None else Observability()
        # The WAL stack's durable writes advance the private I/O clock, so
        # an unbound tracer handed to this manager timestamps on it.
        if self.obs.tracer.enabled and self.obs.tracer.clock is None:
            self.obs.tracer.clock = lambda: self.io_env.now
        self._tracer = self.obs.tracer
        bind_counters(
            self, self.obs.metrics, "walmgr.", ("commits", "checkpoints", "pages_flushed")
        )
        disk_params = disk if disk is not None else DiskParameters()
        self._data_device = DiskArray(
            self.io_env,
            StorageConfig(page_size=self.page_size, num_disks=1, buffer_pool_pages=1, disk=disk_params),
            obs=self.obs,
            name="wal-data",
        )
        self.log = WriteAheadLog(
            self.io_env, page_size=self.page_size, disk=disk_params, crash=self.crash,
            obs=self.obs,
        )
        #: The simulated on-disk image: encoded page bytes and the checksum
        #: stamped when each write began (see :class:`CrashImage`).
        self.durable_pages: dict[int, bytes] = {}
        self.durable_checksums: dict[int, int] = {}
        self._txn: Optional[TransactionContext] = None
        self._next_txn_id = 1
        #: I/O time (on the WAL's private clock) the most recent committed
        #: transaction spent making itself durable — log appends included.
        #: The serving layer charges this on *its* clock so commit latency
        #: is visible in end-to-end percentiles.
        self.last_commit_write_us = 0.0
        # Wire into the substrate.  The bound methods are captured once so
        # detach() can compare identities (a fresh ``self._observe`` access
        # would create a new bound-method object every time).
        self._observer_cb = self._observe
        self._flush_cb = self.flush_page
        tree.env.wal = self
        self.store.write_observer = self._observer_cb
        self.pool.flush_hook = self._flush_cb
        self._snapshot_all()
        self.log.append(
            RecordType.CHECKPOINT, SYSTEM_TXN, NO_PAGE, self._meta().pack(), crashable=False
        )

    # -- transactions --------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[TransactionContext]:
        """Make the enclosed page writes atomic.

        Reentrant: a nested ``transaction()`` joins the enclosing one, so
        :class:`~repro.dbms.MiniDbms` can wrap a heap-table write plus an
        index update (which wraps itself) in a single commit.

        A :class:`SimulatedCrash` escaping the block leaves the durable
        state (log + pages) frozen exactly as the crash left it — read it
        with :meth:`crash_state` and hand it to
        :func:`repro.wal.recover`.  Any other exception discards the
        transaction without logging it; the in-memory tree may then be
        inconsistent with the durable image (this simulator has redo but
        no undo), so the tree should be considered poisoned.
        """
        if self._txn is not None:
            yield self._txn
            return
        txn = TransactionContext(self._next_txn_id)
        self._next_txn_id += 1
        self._txn = txn
        io_start = self.io_env.now
        try:
            yield txn
            self._commit(txn)
            self.last_commit_write_us = self.io_env.now - io_start
        finally:
            self._txn = None

    def _observe(self, event: str, page_id: int) -> None:
        """Write-observer callback from the page store.

        Outside a transaction the event is ignored: maintenance writes
        (media scrubs, image loads) are unlogged by design.
        """
        txn = self._txn
        if txn is None:
            return
        if not txn.began:
            txn.began = True
            self.log.append(RecordType.BEGIN, txn.txn_id)
        if event == "free":
            txn.written.pop(page_id, None)
            self.pool.mark_clean(page_id)
            self.pool.release_no_steal(page_id)
            self.log.append(RecordType.FREE, txn.txn_id, page_id)
            return
        txn.note(page_id)
        # No-steal: an uncommitted page must never reach the durable image.
        self.pool.mark_dirty(page_id, no_steal=True)
        if event == "alloc":
            # A just-allocated page is an empty shell; its content is
            # imaged by the mark-dirty that follows once it is populated.
            self.log.append(RecordType.ALLOC, txn.txn_id, page_id)
            return
        # Physical redo: full after-image of the page as of this mutation.
        # Logging every mutation (not one image per page per transaction)
        # is what puts crash points *inside* a multi-page split.
        data = encode_page(self.tree, self.store.page(page_id))
        self.log.append(RecordType.PAGE_IMAGE, txn.txn_id, page_id, data)

    def _commit(self, txn: TransactionContext) -> None:
        """Force the commit record; release the write set for eviction."""
        if not txn.began:
            return  # read-only transaction: nothing to make durable
        self.log.append(RecordType.COMMIT, txn.txn_id, NO_PAGE, self._meta().pack())
        self.commits += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "commit", track="walmgr", cat="wal",
                txn=txn.txn_id, pages=len(txn.written),
            )
        for page_id in txn.written:
            self.pool.release_no_steal(page_id)
        if self.checkpoint_interval and self.commits % self.checkpoint_interval == 0:
            # The transaction is committed — drop it before the checkpoint's
            # open-transaction guard runs (transaction() clears it again).
            self._txn = None
            self.checkpoint()

    def _meta(self) -> TreeMeta:
        return TreeMeta(
            self.tree.root_pid, self.tree.height, self.tree.first_leaf_pid, self.tree.num_entries
        )

    # -- the durable-page write path -----------------------------------------

    def flush_page(self, page_id: int) -> None:
        """Write one page's current content to the durable image.

        Called by the buffer pool before reusing a dirty page's frame
        (flush-on-evict) and by :meth:`checkpoint`.  The crash injector can
        tear the write: only half the bytes land, under the full content's
        checksum, so recovery sees a checksum-failing page.
        """
        data = encode_page(self.tree, self.store.page(page_id))
        checksum = zlib.crc32(data)
        outcome = WriteOutcome.OK
        count = 0
        if self.crash is not None:
            outcome = self.crash.on_page_write()
            count = self.crash.page_writes
        if self._tracer.enabled:
            self._tracer.instant(
                "flush-page", track="walmgr", cat="wal",
                page=page_id, outcome=outcome.value,
            )
        if outcome is WriteOutcome.TORN:
            self.durable_pages[page_id] = data[: max(1, len(data) // 2)]
            self.durable_checksums[page_id] = checksum
            self._charge_page_write(page_id)
            raise SimulatedCrash("page-write-torn", count)
        self.durable_pages[page_id] = data
        self.durable_checksums[page_id] = checksum
        self._charge_page_write(page_id)
        self.pages_flushed += 1
        self.pool.mark_clean(page_id)
        if outcome is WriteOutcome.CRASH_AFTER:
            raise SimulatedCrash("page-write", count)

    def _charge_page_write(self, page_id: int) -> None:
        event = self._data_device.write_page(page_id)
        self.io_env.run(until=event)

    def note_page_split(self) -> None:
        """Crash hook at the start of an index page split.

        Called by the tree (see ``DiskFirstFpTree._split_page_and_insert``)
        the instant a split begins — before any of its page images are
        logged — so the armed ``crash_on_page_splits`` point dies with the
        split's transaction open and every concurrent writer in flight.
        """
        if self.crash is None:
            return
        outcome = self.crash.on_page_split()
        if outcome is WriteOutcome.CRASH_AFTER:
            if self._tracer.enabled:
                self._tracer.instant(
                    "crash-on-split", track="walmgr", cat="wal",
                    count=self.crash.page_splits,
                )
            raise SimulatedCrash("page-split", self.crash.page_splits)

    def checkpoint(self) -> int:
        """Force every committed-dirty page, then log ``CHECKPOINT``.

        Returns the number of pages flushed.  Must be called between
        transactions (the force policy would otherwise write uncommitted
        data); an open transaction raises.
        """
        if self._txn is not None and self._txn.began:
            raise RuntimeError("checkpoint inside an open transaction")
        # Committed frees leave stale pages behind in the durable image;
        # the checkpoint is the moment they are reclaimed.
        live = set(self.store.page_ids())
        for page_id in [pid for pid in self.durable_pages if pid not in live]:
            del self.durable_pages[page_id]
            del self.durable_checksums[page_id]
        to_flush = sorted(set(self.pool.dirty_pages) | (live - set(self.durable_pages)))
        start = self.io_env.now
        for page_id in to_flush:
            self.flush_page(page_id)
        self.log.append(RecordType.CHECKPOINT, SYSTEM_TXN, NO_PAGE, self._meta().pack())
        self.checkpoints += 1
        if self._tracer.enabled:
            self._tracer.complete(
                "checkpoint", "walmgr", start, cat="wal", pages=len(to_flush)
            )
        return len(to_flush)

    def _snapshot_all(self) -> None:
        """Seed the durable image with every live page (no disk charge)."""
        for page_id in sorted(self.store.page_ids()):
            data = encode_page(self.tree, self.store.page(page_id))
            self.durable_pages[page_id] = data
            self.durable_checksums[page_id] = zlib.crc32(data)
            self.pool.mark_clean(page_id)

    # -- introspection -------------------------------------------------------

    def crash_state(self) -> CrashImage:
        """Freeze the post-crash durable state for recovery."""
        return CrashImage(
            wal_data=self.log.data,
            pages=dict(self.durable_pages),
            checksums=dict(self.durable_checksums),
            page_size=self.page_size,
        )

    def stats(self) -> WalStats:
        return WalStats(
            commits=self.commits,
            wal_appends=self.log.appends,
            wal_bytes=self.log.bytes_written,
            pages_flushed=self.pages_flushed,
            evict_flushes=self.pool.evict_flushes,
            checkpoints=self.checkpoints,
            write_us=self.io_env.now,
        )

    def detach(self) -> None:
        """Unhook from the tree's substrate (used when swapping managers)."""
        if self.store.write_observer is self._observer_cb:
            self.store.write_observer = None
        if self.pool.flush_hook is self._flush_cb:
            self.pool.flush_hook = None
        if getattr(self.tree.env, "wal", None) is self:
            self.tree.env.wal = None
