"""Redo-from-checkpoint recovery.

Recovery is a pure function of the crash image (log bytes + durable pages):

1. **Analysis** — parse the longest valid log prefix (a torn tail truncates
   at the first CRC-failing record) and collect the set of committed
   transaction ids.  Everything logged by a transaction with no ``COMMIT``
   in the valid prefix is discarded — that is how atomicity of multi-page
   splits falls out of the log format.
2. **Load** — install every durable page whose bytes still match the
   checksum stamped when its write began; a torn page write fails this
   check and is deferred to redo.
3. **Redo** — replay committed ``PAGE_IMAGE``/``FREE`` records after the
   last durable ``CHECKPOINT`` in LSN order (physical redo is idempotent,
   so replaying over an already-newer evict-flushed page is harmless), then
   restore the tree metadata from the last committed ``COMMIT``.
4. **Verify** — run the :mod:`repro.scrub` structural verifier over the
   recovered tree.

Because every step is deterministic, the same crash image always recovers
to the same tree — byte-identical under
:func:`repro.image.dump_tree_bytes`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..des import Environment
from ..faults.errors import StorageFault
from ..image import decode_page
from ..storage.config import StorageConfig
from ..storage.disk import DiskArray
from .manager import CrashImage, SYSTEM_TXN
from .records import RecordType, TreeMeta, scan_records

__all__ = ["RecoveryError", "RecoveryStats", "recover"]


class RecoveryError(StorageFault):
    """The crash image cannot be recovered to a consistent tree."""


@dataclass(frozen=True)
class RecoveryStats:
    """What recovery found and did, for tests and benchmarks."""

    wal_bytes: int
    valid_wal_bytes: int
    truncated_bytes: int
    records_scanned: int
    records_replayed: int
    committed_txns: frozenset[int]
    discarded_txns: frozenset[int]
    torn_pages: tuple[int, ...]
    pages_loaded: int
    pages_restored: int
    recovery_us: float


def recover(
    image: CrashImage,
    make_tree: Callable[[], object],
) -> tuple[object, RecoveryStats]:
    """Rebuild a consistent tree from a :class:`CrashImage`.

    ``make_tree`` must construct a fresh, WAL-free tree of the same type
    and configuration as the crashed one; its initial pages are discarded
    and replaced by the recovered image.  (Attach a new
    :class:`~repro.wal.WalManager` *after* recovery to resume logging.)

    Returns ``(tree, stats)``.  Raises :class:`RecoveryError` if a torn
    page cannot be healed from the log, and lets the scrub verifier's
    :class:`~repro.btree.base.IndexCorruptionError` propagate if the
    recovered structure is inconsistent.
    """
    records, valid_bytes = scan_records(image.wal_data)

    # Analysis: committed vs. discarded transactions, last durable checkpoint.
    committed = frozenset(r.txn_id for r in records if r.type is RecordType.COMMIT)
    discarded = frozenset(
        r.txn_id
        for r in records
        if r.txn_id != SYSTEM_TXN and r.txn_id not in committed
    )
    checkpoint_idx = -1
    meta: Optional[TreeMeta] = None
    for idx, record in enumerate(records):
        if record.type is RecordType.CHECKPOINT:
            checkpoint_idx = idx
            meta = TreeMeta.unpack(record.payload)
    if meta is None:
        raise RecoveryError("no durable CHECKPOINT record; the log is unusable")

    # Load: fresh tree, durable pages that pass their checksum.
    tree = make_tree()
    store, pool = tree.store, tree.pool
    for page_id in list(store.page_ids()):
        store.free(page_id)
        pool.invalidate(page_id)
    torn: list[int] = []
    loaded = 0
    for page_id in sorted(image.pages):
        data = image.pages[page_id]
        if zlib.crc32(data) != image.checksums[page_id]:
            torn.append(page_id)  # torn write: heal from the log, or fail
            continue
        store.place(page_id, decode_page(tree, data))
        loaded += 1

    # Redo: committed records after the checkpoint, in LSN order.
    replayed = 0
    restored: set[int] = set()
    freed: set[int] = set()
    for record in records[checkpoint_idx + 1 :]:
        if record.txn_id not in committed:
            continue
        if record.type is RecordType.PAGE_IMAGE:
            page = decode_page(tree, record.payload)
            if record.page_id in store:
                store.replace(record.page_id, page)
            else:
                store.place(record.page_id, page)
            restored.add(record.page_id)
            freed.discard(record.page_id)
            replayed += 1
        elif record.type is RecordType.FREE:
            if record.page_id in store:
                store.free(record.page_id)
                pool.invalidate(record.page_id)
            restored.discard(record.page_id)
            freed.add(record.page_id)
            replayed += 1
        elif record.type is RecordType.COMMIT:
            meta = TreeMeta.unpack(record.payload)

    unhealed = [pid for pid in torn if pid not in restored and pid not in freed]
    if unhealed:
        raise RecoveryError(
            f"torn page(s) {unhealed} have no committed after-image in the log"
        )

    store.rebuild_free_list()
    pool.clear()
    tree.root_pid = meta.root_pid
    tree.height = meta.height
    tree.first_leaf_pid = meta.first_leaf_pid
    tree._entries = meta.entries

    # Charge simulated disk time: one sequential sweep of the valid log
    # prefix, then a read-modify-write per page redo touched.
    env = Environment()
    config = StorageConfig(page_size=image.page_size, num_disks=1, buffer_pool_pages=1)
    log_device = DiskArray(env, config)
    data_device = DiskArray(env, config)
    if valid_bytes:
        env.run(until=log_device.disks[0].submit(False, 0, valid_bytes))
    for page_id in sorted(restored):
        env.run(until=data_device.read_page(page_id))
        env.run(until=data_device.write_page(page_id))

    from ..scrub import scrub_tree

    scrub_tree(tree)

    stats = RecoveryStats(
        wal_bytes=len(image.wal_data),
        valid_wal_bytes=valid_bytes,
        truncated_bytes=len(image.wal_data) - valid_bytes,
        records_scanned=len(records),
        records_replayed=replayed,
        committed_txns=committed,
        discarded_txns=discarded,
        torn_pages=tuple(torn),
        pages_loaded=loaded,
        pages_restored=len(restored),
        recovery_us=env.now,
    )
    return tree, stats
