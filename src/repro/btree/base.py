"""The common index interface implemented by every tree in the repo.

All four disk-resident structures (disk-optimized B+-Tree, micro-indexing,
disk-first fpB+-Tree, cache-first fpB+-Tree) implement :class:`Index`, so
experiments iterate over them uniformly.  The contract:

* keys and tuple ids are unsigned ints that fit the tree's
  :class:`repro.btree.keys.KeySpec` / 4-byte tuple-id width;
* duplicate keys are permitted (stored adjacently);
* ``range_scan`` is inclusive on both ends and returns a count plus a tuple-id
  checksum so implementations can be cross-validated without materializing
  results; ``range_count`` returns just that count;
* ``validate()`` walks the whole structure once and raises
  ``IndexCorruptionError`` on any violation (used heavily by tests, and by
  the post-recovery scrubber).  :meth:`Index.validate` is the one walk for
  every kind: a bounded descent from the root that checks key order,
  separator bounds, depth, the entry count and the leaf chain, with a
  per-node and a whole-tree hook for each format's own checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .keys import INVALID_PAGE_ID, KeySpec

__all__ = [
    "Index", "ScanResult", "IndexCorruptionError", "WalkCounts", "as_key_array", "check_key",
    "chunk_evenly", "span_bounds",
]


class IndexCorruptionError(AssertionError):
    """A structural invariant was violated."""


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a range scan: entry count and tuple-id checksum."""

    count: int
    tid_sum: int

    def __add__(self, other: "ScanResult") -> "ScanResult":
        return ScanResult(self.count + other.count, self.tid_sum + other.tid_sum)


EMPTY_SCAN = ScanResult(0, 0)


@dataclass(frozen=True)
class WalkCounts:
    """What :meth:`Index.validate` walked on a passing tree."""

    nodes: int  # pages, for the page-per-node trees
    leaves: int
    entries: int


def as_key_array(keys: Sequence[int] | np.ndarray, spec: KeySpec) -> np.ndarray:
    """Validate and convert keys to the spec's dtype (no copy if possible)."""
    array = np.asarray(keys)
    if array.ndim != 1:
        raise ValueError(f"keys must be one-dimensional, got shape {array.shape}")
    if array.size and (int(array.min()) < 0 or int(array.max()) > spec.max_key):
        raise ValueError(f"keys out of range for {spec.size}-byte keys")
    return array.astype(spec.dtype, copy=False)


def check_key(key: int, spec: KeySpec) -> None:
    """Reject one key outside ``[0, spec.max_key]``, as :func:`as_key_array` does."""
    if not 0 <= key <= spec.max_key:
        raise ValueError(f"key {key} out of range for {spec.size}-byte keys")


#: Routing key of a trailing empty leaf page: above every storable key.
_PAST_LAST_KEY = np.iinfo(np.int64).max


def span_bounds(firsts: np.ndarray, start_key: int, end_key: int) -> tuple[int, int]:
    """``(lo, hi)``: leaves ``lo:hi`` of a first-key array cover [start_key, end_key].

    ``firsts`` is :meth:`Index.leaf_first_keys` of the leaf chain.  The span
    starts at the last leaf whose first key is at most ``start_key`` and
    ends at the last one whose first key is at most ``end_key``; it always
    holds at least one leaf.
    """
    lo = max(int(firsts.searchsorted(start_key, side="right")) - 1, 0)
    hi = max(int(firsts.searchsorted(end_key, side="right")) - 1, lo)
    return lo, hi + 1


def chunk_evenly(total: int, max_chunk: int) -> list[int]:
    """Split ``total`` items into near-equal chunks of at most ``max_chunk``.

    Used by bulkload to fill sibling nodes evenly (so later insertions find
    empty slots — Section 3.1.2) while respecting node capacity.
    """
    if max_chunk <= 0:
        raise ValueError(f"max_chunk must be positive, got {max_chunk}")
    if total <= 0:
        return []
    pieces = -(-total // max_chunk)  # ceil division
    base, remainder = divmod(total, pieces)
    return [base + (1 if i < remainder else 0) for i in range(pieces)]


class Index(ABC):
    """Abstract ordered index over (key, tuple-id) entries."""

    #: Human-readable name used in experiment output.
    name: str = "index"

    @abstractmethod
    def bulkload(self, keys: Sequence[int], tids: Sequence[int], fill: float = 1.0) -> None:
        """Build the tree from sorted keys with the given node fill factor."""

    @abstractmethod
    def search(self, key: int) -> Optional[int]:
        """Return the tuple id for ``key``, or None if absent."""

    @abstractmethod
    def insert(self, key: int, tid: int) -> None:
        """Insert an entry (duplicates allowed)."""

    @abstractmethod
    def delete(self, key: int) -> bool:
        """Lazily delete one entry with ``key``; True if one was removed."""

    @abstractmethod
    def range_scan(self, start_key: int, end_key: int) -> ScanResult:
        """Count entries with start_key <= key <= end_key (inclusive)."""

    def range_count(self, start_key: int, end_key: int) -> int:
        """``range_scan(start_key, end_key).count``, for callers that need no checksum.

        Subclasses may override it with an untraced walk that skips the
        per-entry work; the result must equal the scan's count.
        """
        return self.range_scan(start_key, end_key).count

    def range_scan_reverse(self, start_key: int, end_key: int) -> ScanResult:
        """Scan the same range walking leaves right-to-left.

        Mirrors the paper's DB2 integration, which added sibling links in
        both directions to support reverse scans (Section 4.3.3).  The
        result is identical to :meth:`range_scan`; only the access pattern
        differs.  Optional: structures without backward links may not
        implement it.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support reverse scans")

    # -- leaf walks over page-id storage -----------------------------------
    #
    # Every disk-resident tree keeps its leaf pages in a ``next_page`` chain
    # headed by ``first_leaf_pid`` in ``self.store``, and every leaf page
    # answers ``first_key()``, ``entries()`` and ``len(page)`` for its own
    # format.  A tree without pages overrides ``leaf_page_ids`` and ``items``.

    def _leaf_pages(self) -> Iterator[tuple[int, Any]]:
        pid = self.first_leaf_pid
        while pid != INVALID_PAGE_ID:
            page = self.store.page(pid)
            yield pid, page
            pid = page.next_page

    def leaf_page_ids(self) -> list[int]:
        """Page ids of all leaf pages, in key order (for I/O experiments)."""
        return [pid for pid, __ in self._leaf_pages()]

    def items(self) -> Iterable[tuple[int, int]]:
        """All (key, tid) entries in key order (untraced; for testing)."""
        for __, page in self._leaf_pages():
            keys, tids = page.entries()
            yield from zip(keys.tolist(), tids.tolist())

    def leaf_first_keys(self, pids: Sequence[int]) -> np.ndarray:
        """First key of each leaf page in ``pids`` (chain order), for routing.

        Deletes are lazy, so a leaf page can be empty.  An empty page takes its
        successor's first key (past the last key if none follows): the array
        stays non-decreasing for ``np.searchsorted``, no scan starts or ends on
        an empty page, and one that crosses it still walks through it.
        """
        firsts = np.empty(len(pids), dtype=np.int64)
        following = _PAST_LAST_KEY
        for i in range(len(pids) - 1, -1, -1):
            key = self.store.page(pids[i]).first_key()
            if key is not None:
                following = key
            firsts[i] = following
        return firsts

    def leaf_span(self, start_key: int, end_key: int) -> tuple[list[int], list[int]]:
        """Leaf pages covering [start_key, end_key], plus the pages after them.

        The second list (up to 64 following pages) feeds the overshooting
        ablation (paper Section 2.2).
        """
        pids = self.leaf_page_ids()
        lo, hi = span_bounds(self.leaf_first_keys(pids), start_key, end_key)
        return pids[lo:hi], pids[hi : hi + 64]

    # -- the structural walk ------------------------------------------------
    #
    # A node is what the tree routes through: a page id in ``self.store`` by
    # default, a node object for trees that override the hooks below.

    def validate(self) -> WalkCounts:
        """Check structural invariants; raise IndexCorruptionError if broken.

        One bounded descent from the root.  Keys never decrease within a
        node, and child ``i`` holds keys within [sep ``i``, sep ``i+1``]:
        child 0 inherits its parent's lower bound (routing clamps to slot
        0, so it may hold keys below a stale first separator) and the upper
        bound is inclusive (duplicates may span a boundary).  Every leaf
        sits at depth ``height``, the leaves hold ``num_entries`` entries,
        and the leaf chain visits exactly the walk's leaves in order (so,
        by the bounds, its keys never decrease: a leaf's upper bound is the
        next leaf's lower bound).  :meth:`_node_entries` reads each node and
        runs the format's per-node checks; :meth:`_check_tree` runs its
        whole-tree checks.
        """
        leaves: list = []
        nodes = entries = 0

        def walk(node, level: int, lo, hi) -> None:
            nonlocal nodes, entries
            keys, children = self._node_entries(node, level)
            nodes += 1
            if (children is None) != (level == 0):
                kind = "leaf" if children is None else "non-leaf"
                raise IndexCorruptionError(
                    f"{self._node_label(node)} is a {kind} at level {level} of {self.height}"
                )
            for left, right in zip(keys, keys[1:]):
                if left > right:
                    raise IndexCorruptionError(f"{self._node_label(node)} keys out of order")
            if keys:
                if lo is not None and keys[0] < lo:
                    raise IndexCorruptionError(
                        f"{self._node_label(node)} holds key {keys[0]} below its separator {lo}"
                    )
                if hi is not None and keys[-1] > hi:
                    raise IndexCorruptionError(
                        f"{self._node_label(node)} holds key {keys[-1]} "
                        f"above its next separator {hi}"
                    )
            if children is None:
                leaves.append(node)
                entries += len(keys)
                return
            for i, child in enumerate(children):
                walk(
                    child, level - 1,
                    lo if i == 0 else keys[i],
                    keys[i + 1] if i + 1 < len(keys) else hi,
                )

        walk(self._walk_root(), self.height - 1, None, None)
        if entries != self.num_entries:
            raise IndexCorruptionError(
                f"entry count mismatch: walk found {entries}, counter says {self.num_entries}"
            )
        # Bounded: a chain that cycles or runs on stops one past the walk's leaves.
        if list(islice(self._leaf_chain(), len(leaves) + 1)) != leaves:
            raise IndexCorruptionError("leaf sibling chain disagrees with tree order")
        self._check_tree(leaves)
        return WalkCounts(nodes, len(leaves), entries)

    def _walk_root(self):
        """The node the structural walk starts from."""
        return self.root_pid

    def _node_label(self, node) -> str:
        return f"page {node}"

    def _node_entries(self, node, level: int) -> tuple[list[int], Optional[list]]:
        """``(keys, children)`` of a node the walk reached at ``level`` (0 = leaf).

        ``children`` is None at a leaf.  The default reads page ``node``
        through :meth:`_check_page`, ``page.entries()`` and ``len(page)``.
        """
        if node not in self.store:
            raise IndexCorruptionError(f"page {node} referenced but not allocated")
        page = self.store.page(node)
        if page.level != level:
            raise IndexCorruptionError(f"page {node} at level {page.level}, parent expected {level}")
        self._check_page(node, page)
        keys, ptrs = page.entries()
        if len(keys) != len(page):
            raise IndexCorruptionError(
                f"page {node} total mismatch: counted {len(keys)}, header {len(page)}"
            )
        return keys.tolist(), (ptrs.tolist() if level else None)

    def _check_page(self, pid: int, page) -> None:
        """Per-page hook: the format's own checks, before its entries are read."""

    def _leaf_chain(self) -> Iterator:
        """The leaves in sibling-chain order, as the walk names them.

        A link to an unallocated page is yielded, not followed.
        """
        pid = self.first_leaf_pid
        while pid != INVALID_PAGE_ID:
            yield pid
            if pid not in self.store:
                return
            pid = self.store.page(pid).next_page

    def _check_tree(self, leaves: list) -> None:
        """Whole-tree hook: the format's own checks after the walk."""

    def scan_items(self, start_key: int, end_key: int) -> Iterable[tuple[int, int]]:
        """Yield (key, tid) entries with start_key <= key <= end_key, in order.

        A cursor-style companion to :meth:`range_scan` that materializes the
        entries instead of aggregating them (untraced).  Subclasses override
        this with a positioned walk; the default filters :meth:`items` and
        is correct for any implementation.
        """
        if end_key < start_key:
            return
        for key, tid in self.items():
            if key > end_key:
                return
            if key >= start_key:
                yield key, tid

    # -- shared conveniences -------------------------------------------------

    def _update_txn(self):
        """Transaction scope for one update, if crash consistency is on.

        Trees wrap each ``insert``/``delete`` body in this context.  With a
        :class:`~repro.wal.WalManager` attached to the tree's environment it
        returns a WAL transaction (multi-page splits become atomic); without
        one it is a no-op, preserving unlogged behaviour.  Reentrant: an
        outer transaction (e.g. a DBMS-level row operation) absorbs it.
        """
        wal = getattr(getattr(self, "env", None), "wal", None)
        return wal.transaction() if wal is not None else nullcontext()

    @property
    @abstractmethod
    def num_entries(self) -> int:
        """Number of live entries."""

    @property
    @abstractmethod
    def num_pages(self) -> int:
        """Number of allocated disk pages (the Figure 16 space metric)."""

    def check_fill(self, fill: float) -> float:
        if not 0.0 < fill <= 1.0:
            raise ValueError(f"fill factor must be in (0, 1], got {fill}")
        return fill

    def _bulkload_input(
        self, keys: Sequence[int], tids: Sequence[int], fill: float
    ) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
        """Checked ``(keys, tids, fill)`` for ``bulkload``; None if there is nothing to load."""
        fill = self.check_fill(fill)
        keys = as_key_array(keys, self.keyspec)
        tids = np.asarray(tids, dtype=np.uint32)
        if keys.shape != tids.shape:
            raise ValueError("keys and tids must have the same length")
        if np.any(keys[:-1] > keys[1:]):
            raise ValueError("bulkload requires sorted keys")
        if self.num_entries:
            raise RuntimeError("bulkload requires an empty tree")
        if keys.size == 0:
            return None
        return keys, tids, fill
