"""Redo-from-checkpoint recovery.

Recovery is a pure function of the crash image (log bytes + durable pages):

1. **Analysis** — parse the longest valid log prefix (a torn tail truncates
   at the first CRC-failing record) and collect the set of committed
   transaction ids.  Everything logged by a transaction with no ``COMMIT``
   in the valid prefix is discarded — that is how atomicity of multi-page
   splits falls out of the log format.
2. **Load** — keep the bytes of every durable page that still match the
   checksum stamped when its write began; a torn page write fails this
   check and is deferred to redo.
3. **Redo** — replay committed ``PAGE_IMAGE``/``FREE`` records after the
   last durable ``CHECKPOINT`` over those page bytes in LSN order (physical
   redo is idempotent, so replaying over an already-newer evict-flushed
   page is harmless); the tree metadata is the last committed ``COMMIT``'s.
4. **Install** — decode the final pages and hand them, with that
   ``TreeMeta``, to :func:`repro.image.install_pages`: the same step a
   tree image loads through (an image is a checkpoint: header, meta,
   ``encode_page`` bytes).
5. **Verify** — run the :mod:`repro.scrub` structural verifier over the
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
from ..image import decode_page, install_pages
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

    # Load: durable pages whose bytes still match their checksum.
    pages = {
        pid: data for pid, data in sorted(image.pages.items())
        if zlib.crc32(data) == image.checksums[pid]
    }
    torn = [pid for pid in sorted(image.pages) if pid not in pages]  # heal from the log, or fail
    loaded = len(pages)

    # Redo: committed records after the checkpoint, in LSN order.
    replayed = 0
    restored: set[int] = set()
    freed: set[int] = set()
    for record in records[checkpoint_idx + 1 :]:
        if record.txn_id not in committed:
            continue
        if record.type is RecordType.PAGE_IMAGE:
            pages[record.page_id] = record.payload
            restored.add(record.page_id)
            freed.discard(record.page_id)
            replayed += 1
        elif record.type is RecordType.FREE:
            pages.pop(record.page_id, None)
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

    tree = make_tree()
    install_pages(tree, [(pid, decode_page(tree, pages[pid])) for pid in sorted(pages)], meta)

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
