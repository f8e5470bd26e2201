"""Timed range-scan I/O experiments (paper Figure 18).

Drives a discrete-event simulation of a range scan over a tree's leaf
pages: a scanner process consumes pages in key order, optionally keeping a
window of jump-pointer-array prefetches in flight ahead of itself.  The
disk array serves requests with realistic seek/transfer times, so scattered
leaf pages of a mature tree cost full seeks while bulkloaded trees scan
near-sequentially — exactly the contrast the paper exploits.

Overshooting (Section 2.2): with ``avoid_overshoot`` the scan searches the
end key up front and never prefetches past the end page; the ablation mode
keeps prefetching a full window beyond it, wasting I/Os on pages the scan
never consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..des import Environment
from ..storage.buffer import BufferPool
from ..storage.config import DiskParameters, StorageConfig
from ..storage.disk import DiskArray
from ..storage.pager import PageStore
from ..storage.prefetch import AsyncPageReader

__all__ = ["ScanTiming", "timed_range_scan"]


@dataclass(frozen=True)
class ScanTiming:
    """Outcome of one simulated range scan."""

    elapsed_us: float
    pages_scanned: int
    disk_reads: int
    prefetches: int
    overshoot_reads: int

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0


def timed_range_scan(
    store: PageStore,
    leaf_pids: Sequence[int],
    start_path: Sequence[int] = (),
    end_path: Sequence[int] = (),
    extra_pids: Sequence[int] = (),
    *,
    num_disks: int = 1,
    use_prefetch: bool = False,
    prefetch_depth: int = 16,
    avoid_overshoot: bool = True,
    page_process_us: float = 100.0,
    page_size: Optional[int] = None,
    disk: Optional[DiskParameters] = None,
    pool_frames: Optional[int] = None,
) -> ScanTiming:
    """Simulate one range scan and return its timing.

    ``leaf_pids`` are the pages the scan consumes, in order.  ``start_path``
    / ``end_path`` are the search descents (the end-key search implements
    overshoot avoidance).  ``extra_pids`` are the leaf pages *after* the
    range — prefetched only in the overshooting ablation.
    """
    if page_size is None:
        page_size = store.page_size
    frames = pool_frames if pool_frames is not None else len(leaf_pids) + len(start_path) + len(end_path) + prefetch_depth + 16
    config = StorageConfig(
        page_size=page_size,
        num_disks=num_disks,
        buffer_pool_pages=max(frames, 8),
        disk=disk if disk is not None else DiskParameters(),
    )
    env = Environment()
    disks = DiskArray(env, config)
    pool = BufferPool(config, store)
    reader = AsyncPageReader(env, disks, pool)

    overshoot_targets = list(extra_pids)[:prefetch_depth] if not avoid_overshoot else []
    overshoot_issued = 0

    def scan():
        nonlocal overshoot_issued
        # Search for the start key (demand reads down the tree).
        for pid in start_path:
            yield from reader.demand(pid)
        if use_prefetch and avoid_overshoot:
            # Search for the end key too, remembering the range's end page.
            for pid in end_path:
                yield from reader.demand(pid)
        issued = 0
        for index, pid in enumerate(leaf_pids):
            if use_prefetch:
                while issued < min(index + prefetch_depth, len(leaf_pids)):
                    reader.prefetch(leaf_pids[issued])
                    issued += 1
                if not avoid_overshoot and index + prefetch_depth > len(leaf_pids):
                    # Keep the window full past the end of the range.
                    want = index + prefetch_depth - len(leaf_pids)
                    while overshoot_issued < min(want, len(overshoot_targets)):
                        reader.prefetch(overshoot_targets[overshoot_issued])
                        overshoot_issued += 1
            yield from reader.demand(pid)
            yield env.timeout(page_process_us)

    env.run(until=env.process(scan()))
    return ScanTiming(
        elapsed_us=env.now,
        pages_scanned=len(leaf_pids),
        disk_reads=disks.total_reads,
        prefetches=reader.prefetches,
        overshoot_reads=overshoot_issued,
    )
