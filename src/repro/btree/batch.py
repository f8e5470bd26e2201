"""The one served tree descent, and level-wise batched point lookups.

Every served tree op — :meth:`~repro.dbms.engine.MiniDbms.serve_lookup`,
``serve_scan``, ``serve_insert`` and :class:`LevelWiseLookupBatch` — walks
the disk-first fpB+-Tree through :func:`descend`, the way the paper walks
a page: read it, route through it, descend.  A single op is a batch of one
key.  What keeps the walk safe against concurrent splits is the latch
protocol it is given (:mod:`repro.btree.cc`): ``begin`` before a page is
trusted, ``validate`` after it was used.

A batch of B lookups applies the paper's core move (fetch a whole fractal
level in one prefetch wave) *across* queries, in the spirit of the FPGA
level-wise batch-search design (arXiv:2604.21117) and BS-tree's
data-parallel node layout (arXiv:2505.01180):

* **Sort and dedup.**  The batch's keys are routed together, so all keys
  that fall into one page share a single demand read, a single
  ``page_process_us`` charge and a single routing call — upper levels
  (the root above all) collapse to one visit per page per batch.
* **Level-wise waves.**  The frontier of pages needed for the next level
  is issued as one :meth:`~repro.storage.prefetch.AsyncPageReader.prefetch_wave`
  in sorted page-id order before any demand blocks, so the spindles see a
  near-sequential run of short seeks instead of B independent random
  reads, and the per-page latencies overlap.
* **One routing primitive.**  Each visited page is routed through its
  cached flat ``(keys, ptrs)`` pair
  (:meth:`~repro.core.disk_first.DiskFirstFpTree.page_entries`) with one
  ``np.searchsorted`` for all of the page's keys — equal to the paper's
  in-page node walk, at numpy speed.  A run of one key searches with its
  scalar, so a single-key op never builds a probe array or splits a run.

Keys whose pass failed validation restart from the root; after the
protocol's ``retry_budget`` passes they fall back to single-key lookups,
which escalate to pessimistic latching and always terminate.  Keys that
reached a leaf after the topology epoch moved (null protocol) are
re-resolved with an atomic ``index.search`` — the batched results are
always what a per-key ``serve_lookup`` would have returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .cc import NullProtocol

__all__ = [
    "Arrival",
    "LevelWiseLookupBatch",
    "descend",
]

#: The protocol of callers that pass none.
NULL_PROTOCOL = NullProtocol()

_PID = itemgetter(0)


@dataclass
class Arrival:
    """One leaf a descent reached, with the keys routed to it."""

    pid: int
    #: Indices (into the descent's ``keys``) routed to this leaf.
    idxs: list
    #: Page ids from the root down to the leaf's parent.
    above: list
    #: The protocol's ``begin`` token for the leaf.
    token: object
    #: False if the topology epoch moved during the descent (null
    #: protocol): the leaf may be stale, so re-resolve its keys atomically.
    fresh: bool
    #: Per key, the tuple id found in the leaf (0: absent); None when the
    #: descent stopped above the leaf (``visit_leaf=False``).
    tids: Optional[list]


def descend(
    db,
    reader,
    keys: list,
    protocol: NullProtocol,
    owner=None,
    page_process_us: float = 150.0,
    visit_leaf: bool = True,
    wave: bool = False,
):
    """Process generator: the one root-to-leaf descent of every served op.

    Routes ``keys`` level by level: each page is demand-paged and pinned
    for its ``page_process_us`` charge, and only then routed from, so a
    split that lands while the descent waits on disk re-routes it.  Around
    each page the ``protocol`` takes a ``begin`` token (before the page is
    trusted) and validates the parent after its children's tokens are in
    hand — hand-over-hand, so a page that changed underneath fails the
    pass for every key routed through it.  ``wave`` issues each level's
    pages as one prefetch wave (batches); ``visit_leaf=False`` stops at the
    leaf without reading it (a scan's span walk reads it).

    Returns ``(arrivals, retry, pages)``: the :class:`Arrival` per leaf
    reached, the key indices whose pass failed validation (restart them
    from the root), and the number of pages read.
    """
    tree = db.index
    env = reader.env
    pool = reader.pool
    page_of = tree.store.page
    entries = tree.page_entries
    latched = not protocol.latch_free_begin
    epoch = None if protocol.trusts_routes or not visit_leaf else db.leaf_map_epoch()
    # The keys in sorted order: the keys routed to one page are a run
    # [lo, hi) of them, every run is sorted, and sibling leaves are visited
    # left-to-right (the near-sequential run the disk model rewards).
    # A one-key run probes with its scalar, so one key needs no probe array.
    if len(keys) == 1:
        order, ordered = [0], keys
    else:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ordered = [keys[i] for i in order]
        probes = np.array(ordered, dtype=np.int64)
    root = tree.root_pid
    token = (yield from protocol.begin(root, owner)) if latched else None
    if root != tree.root_pid:
        # The root split while we waited on its latch: restart on the new one.
        return [], order, 0
    # One (pid, lo, hi, token, page ids above) run per page of the level,
    # in ascending page-id order.  A page has one parent and a split moves
    # entries only into a fresh page, so no page is reached twice a level.
    level = [(root, 0, len(keys), token, [])]
    arrivals: list[Arrival] = []
    retry: list[int] = []
    pages = 0
    while level:
        if wave:
            reader.prefetch_wave([run[0] for run in level if not pool.contains(run[0])])
        below = []
        for pid, lo, hi, token, above in level:
            leaf = page_of(pid).level == 0
            if leaf and not visit_leaf:
                arrivals.append(Arrival(pid, order[lo:hi], above, token, True, None))
                continue
            yield from reader.demand(pid)
            pin = pool.pin(pid, owner)
            try:
                yield env.timeout(page_process_us)
            finally:
                pool.unpin(pid, pin, owner)
            pages += 1
            # Everything below here is atomic in simulated time: the page
            # is routed/searched and validated with no yield.
            seps, ptrs = entries(pid)
            if leaf:
                # Exact match: the leftmost entry >= key, if it equals key.
                if hi - lo == 1:
                    slots = [int(seps.searchsorted(ordered[lo], side="left"))]
                else:
                    slots = seps.searchsorted(probes[lo:hi], side="left").tolist()
                size = len(seps)
                tids = [
                    int(ptrs[slot]) if slot < size and seps[slot] == key else 0
                    for slot, key in zip(slots, ordered[lo:hi])
                ]
                if not protocol.validate(pid, token):
                    retry.extend(order[lo:hi])
                    continue
                fresh = epoch is None or db.leaf_map_epoch() == epoch
                arrivals.append(Arrival(pid, order[lo:hi], above, token, fresh, tids))
                continue
            # Route: the rightmost separator <= key (the first child for
            # keys below every separator).  A run of more than one key
            # splits into one child run per distinct slot; sorted keys give
            # non-decreasing slots.
            if hi - lo == 1:
                slot = int(seps.searchsorted(ordered[lo], side="right")) or 1
                runs = [(int(ptrs[slot - 1]), lo, hi)]
            else:
                slots = seps.searchsorted(probes[lo:hi], side="right").tolist()
                runs = []
                start, current = lo, slots[0] or 1
                for at, slot in enumerate(slots, lo):
                    if (slot or 1) != current:
                        runs.append((int(ptrs[current - 1]), start, at))
                        start, current = at, slot
                runs.append((int(ptrs[current - 1]), start, hi))
                runs.sort(key=_PID)
            path = above + [pid]
            children = []
            for child, c_lo, c_hi in runs:
                c_token = (yield from protocol.begin(child, owner)) if latched else None
                children.append((child, c_lo, c_hi, c_token, path))
            if not protocol.validate(pid, token):
                # The parent moved after routing: nothing routed from it
                # (or the tokens just taken) can be trusted.
                retry.extend(order[lo:hi])
                continue
            below += children
        below.sort(key=_PID)
        level = below
    return arrivals, retry, pages


class LevelWiseLookupBatch:
    """One batch of point lookups executed level-by-level.

    ``run`` is a DES process generator; results come back aligned with the
    input ``keys`` (rows, or ``None`` for misses).  ``on_result(index, row)``
    fires the moment each key's row (or miss) is decided — per-op latency
    attribution for the serving layer, without waiting for batch stragglers.
    """

    def __init__(
        self,
        db,
        keys,
        page_process_us: float = 150.0,
        owner=None,
        protocol: Optional[NullProtocol] = None,
    ) -> None:
        self.db = db
        self.keys = [int(k) for k in keys]
        self.page_process_us = page_process_us
        self.owner = owner
        self.protocol = protocol if protocol is not None else NULL_PROTOCOL
        # Batch-shaped instrumentation (read by tests and benchmarks).
        self.pages_visited = 0
        self.restarts = 0
        self.fallback_lookups = 0
        self.epoch_fallbacks = 0

    def run(self, reader, on_result: Optional[Callable] = None):
        """Process generator: resolve every key; returns the row list."""
        if not self.keys:
            return []
        return (yield from self.protocol.guarded(self._run(reader, on_result), self.owner))

    def _run(self, reader, on_result):
        n = len(self.keys)
        rows: list = [None] * n
        tids = [0] * n
        done = [False] * n
        pending = list(range(n))
        for __ in range(self.protocol.retry_budget):
            arrivals, retry, pages = yield from descend(
                self.db, reader, [self.keys[i] for i in pending], self.protocol,
                self.owner, self.page_process_us, wave=True,
            )
            self.pages_visited += pages
            misses = []
            for leaf in arrivals:
                found = leaf.tids
                if not leaf.fresh:
                    # A split landed between this batch's yields: the
                    # routing that led here may be stale, so re-resolve with
                    # atomic fresh descents (what per-key serve_lookup trusts).
                    self.epoch_fallbacks += len(leaf.idxs)
                    search = self.db.index.search
                    found = [search(self.keys[pending[j]]) or 0 for j in leaf.idxs]
                for j, tid in zip(leaf.idxs, found):
                    tids[pending[j]] = tid
                    if not tid:
                        misses.append(pending[j])
            for i in misses:
                done[i] = True
                if on_result is not None:
                    on_result(i, None)
            if retry:
                self.restarts += 1
            pending = [pending[j] for j in retry]
            if not pending:
                break
        # The optimistic batch burned its budget: resolve the stragglers one
        # key at a time, through the path that escalates and terminates.
        self.fallback_lookups += len(pending)
        for i in pending:
            rows[i] = yield from self.db._lookup(
                reader, self.keys[i], self.page_process_us, self.owner, self.protocol
            )
            done[i] = True
            if on_result is not None:
                on_result(i, rows[i])
        yield from self._heap_pass(reader, rows, tids, done, on_result)
        return rows

    def _heap_pass(self, reader, rows, tids, done, on_result):
        """Fetch every hit's heap page, one wave, one visit per page."""
        env = reader.env
        by_heap_page: dict[int, list[int]] = {}
        for i, tid in enumerate(tids):
            if done[i] or not tid:
                continue
            heap_pid, __ = self.db.table.tid_to_location(tid - 1)
            by_heap_page.setdefault(heap_pid, []).append(i)
        heap_pids = sorted(by_heap_page)
        reader.prefetch_wave([pid for pid in heap_pids if not reader.pool.contains(pid)])
        for pid in heap_pids:
            yield from reader.demand(pid)
            yield env.timeout(self.page_process_us)
            self.pages_visited += 1
            for i in by_heap_page[pid]:
                rows[i] = self.db.table.fetch(tids[i] - 1)
                done[i] = True
                if on_result is not None:
                    on_result(i, rows[i])
