"""Disk-optimized B+-Tree — the paper's baseline index (Figure 3(a)).

Each tree node is one disk page.  A page holds a small header plus two
parallel sorted arrays: keys, and either child page ids (non-leaf) or tuple
ids (leaf).  Keys and pointers are partitioned into separate arrays for
better cache behaviour, as the paper's implementation does (Section 4.1).

This structure is I/O-optimal but cache-hostile: a binary search over the
page-sized key array probes widely-separated cache lines (each a miss), and
insertion shifts half the page's entries on average.  Those two costs are
exactly what the fpB+-Trees attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..btree.base import Index, IndexCorruptionError, ScanResult, check_key, chunk_evenly
from ..btree.context import TreeEnvironment
from ..btree.keys import INVALID_PAGE_ID, PAGE_ID_SIZE, TUPLE_ID_SIZE
from ..btree.search import child_slot, insertion_slot
from ..mem.layout import align_up

__all__ = ["DiskBPlusTree", "DiskPageLayout", "DiskPage"]

PAGE_HEADER_SIZE = 64  # one cache line of control information


@dataclass(frozen=True)
class DiskPageLayout:
    """Byte offsets of the arrays inside a disk-optimized page."""

    page_size: int
    key_size: int
    ptr_size: int
    capacity: int
    key_offset: int
    ptr_offset: int

    @classmethod
    def compute(cls, page_size: int, key_size: int, ptr_size: int = PAGE_ID_SIZE) -> "DiskPageLayout":
        usable = page_size - PAGE_HEADER_SIZE
        if usable <= 0:
            raise ValueError(f"page size {page_size} too small for header")
        capacity = usable // (key_size + ptr_size)
        key_offset = PAGE_HEADER_SIZE
        ptr_offset = align_up(key_offset + capacity * key_size, ptr_size)
        while ptr_offset + capacity * ptr_size > page_size:
            capacity -= 1
            ptr_offset = align_up(key_offset + capacity * key_size, ptr_size)
        if capacity < 2:
            raise ValueError(f"page size {page_size} holds fewer than 2 entries")
        return cls(page_size, key_size, ptr_size, capacity, key_offset, ptr_offset)

    def key_address(self, base: int, slot: int) -> int:
        return base + self.key_offset + slot * self.key_size

    def ptr_address(self, base: int, slot: int) -> int:
        return base + self.ptr_offset + slot * self.ptr_size


class DiskPage:
    """One page-sized tree node."""

    __slots__ = ("level", "count", "keys", "ptrs", "next_page", "prev_page")

    def __init__(self, layout: DiskPageLayout, level: int, key_dtype: np.dtype) -> None:
        self.level = level  # 0 = leaf
        self.count = 0
        self.keys = np.zeros(layout.capacity, dtype=key_dtype)
        self.ptrs = np.zeros(layout.capacity, dtype=np.uint32)
        self.next_page = INVALID_PAGE_ID
        self.prev_page = INVALID_PAGE_ID

    def __len__(self) -> int:
        return self.count

    def first_key(self) -> Optional[int]:
        """Smallest key in the page, or None if it holds no entries."""
        return int(self.keys[0]) if self.count else None

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh copies of the page's sorted ``(keys, ptrs)`` arrays."""
        return self.keys[: self.count].copy(), self.ptrs[: self.count].copy()


class DiskBPlusTree(Index):
    """Classic page-per-node B+-Tree over the simulated substrate."""

    name = "disk-optimized B+tree"

    def __init__(self, env: Optional[TreeEnvironment] = None, **env_kwargs) -> None:
        self.env = env if env is not None else TreeEnvironment(**env_kwargs)
        self.layout = DiskPageLayout.compute(self.env.page_size, self.env.keyspec.size)
        self.store = self.env.store
        self.pool = self.env.pool
        self.tracer = self.env.tracer
        self.keyspec = self.env.keyspec
        self.root_pid = self._new_page(level=0)
        self.height = 1
        self.first_leaf_pid = self.root_pid
        self._entries = 0
        self.leaf_splits = 0
        self.page_splits = 0

    # -- page helpers ---------------------------------------------------------

    def _new_page(self, level: int) -> int:
        page = DiskPage(self.layout, level, self.keyspec.dtype)
        return self.store.allocate(page)

    def _page(self, pid: int) -> tuple[DiskPage, int]:
        """Access a page through the buffer pool; returns (page, base address)."""
        page, base = self.pool.access(pid)
        self.tracer.read(base, 16)  # header: level, count, links
        return page, base

    # -- public interface -----------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._entries

    @property
    def num_pages(self) -> int:
        return self.store.num_pages

    def bulkload(self, keys: Sequence[int], tids: Sequence[int], fill: float = 1.0) -> None:
        checked = self._bulkload_input(keys, tids, fill)
        if checked is None:
            return
        keys, tids, fill = checked
        self.store.free(self.root_pid)
        self.pool.invalidate(self.root_pid)

        per_node = max(2, int(self.layout.capacity * fill))
        # Build the leaf level.
        level_pids: list[int] = []
        level_firsts: list[int] = []
        start = 0
        prev_pid = INVALID_PAGE_ID
        for size in chunk_evenly(len(keys), per_node):
            pid = self._new_page(level=0)
            page = self.store.page(pid)
            page.keys[:size] = keys[start : start + size]
            page.ptrs[:size] = tids[start : start + size]
            page.count = size
            page.prev_page = prev_pid
            if prev_pid != INVALID_PAGE_ID:
                self.store.page(prev_pid).next_page = pid
            level_pids.append(pid)
            level_firsts.append(int(keys[start]))
            prev_pid = pid
            start += size
        self.first_leaf_pid = level_pids[0]

        # Build non-leaf levels until a single root remains.
        level = 1
        while len(level_pids) > 1:
            parent_pids: list[int] = []
            parent_firsts: list[int] = []
            start = 0
            for size in chunk_evenly(len(level_pids), per_node):
                pid = self._new_page(level=level)
                page = self.store.page(pid)
                page.keys[:size] = level_firsts[start : start + size]
                page.ptrs[:size] = level_pids[start : start + size]
                page.count = size
                parent_pids.append(pid)
                parent_firsts.append(level_firsts[start])
                start += size
            level_pids, level_firsts = parent_pids, parent_firsts
            level += 1

        self.root_pid = level_pids[0]
        self.height = level
        self._entries = int(keys.size)

    # -- in-page search hooks (overridden by micro-indexing) -----------------

    def _locate_child(self, page: DiskPage, base: int, key: int, side: str = "right") -> int:
        """Traced search for the child slot within a non-leaf page."""
        return child_slot(
            page.keys, page.count, key,
            self.layout.key_address(base, 0), self.layout.key_size, self.tracer,
            side=side,
        )

    def _after_page_rebuild(self, page: DiskPage, base: int) -> None:
        """Hook: auxiliary structures must be rebuilt after a page split."""

    def _after_entry_removed(self, page: DiskPage, base: int, slot: int) -> None:
        """Hook: auxiliary structures must be fixed after a deletion shift."""

    def _locate_slot(self, page: DiskPage, base: int, key: int) -> int:
        """Traced search for the insertion slot within a leaf page."""
        return insertion_slot(
            page.keys, page.count, key,
            self.layout.key_address(base, 0), self.layout.key_size, self.tracer,
        )

    def _descend(self, key: int, record_path: bool = False, side: str = "right"):
        """Walk from the root to the leaf for ``key``.

        Returns ``(leaf_pid, leaf_page, leaf_base, path)`` where path is a
        list of ``(pid, slot)`` for each non-leaf page visited.
        """
        path: list[tuple[int, int]] = []
        pid = self.root_pid
        page, base = self._page(pid)
        while page.level > 0:
            self.tracer.visit_node()
            slot = self._locate_child(page, base, key, side=side)
            self.tracer.read(self.layout.ptr_address(base, slot), self.layout.ptr_size)
            if record_path:
                path.append((pid, slot))
            pid = int(page.ptrs[slot])
            page, base = self._page(pid)
        return pid, page, base, path

    def search(self, key: int) -> Optional[int]:
        self.tracer.call_overhead()
        __, leaf, base, __ = self._descend(key)
        self.tracer.visit_node()
        slot = self._locate_slot(leaf, base, key)
        if slot < leaf.count and int(leaf.keys[slot]) == key:
            self.tracer.read(self.layout.ptr_address(base, slot), TUPLE_ID_SIZE)
            return int(leaf.ptrs[slot])
        return None

    # -- insertion ---------------------------------------------------------------

    def insert(self, key: int, tid: int) -> None:
        check_key(key, self.keyspec)
        self.tracer.call_overhead()
        with self._update_txn():
            pid, leaf, base, path = self._descend(key, record_path=True)
            slot = self._locate_slot(leaf, base, key)
            if leaf.count < self.layout.capacity:
                self._insert_into_page(leaf, base, slot, key, tid)
                self.store.mark_dirty(pid)
            else:
                self._split_and_insert(pid, leaf, path, slot, key, tid, is_leaf=True)
            self._entries += 1

    def _insert_into_page(self, page: DiskPage, base: int, slot: int, key: int, ptr: int) -> None:
        """Shift entries right of ``slot`` and write the new entry."""
        moved = page.count - slot
        if moved > 0:
            page.keys[slot + 1 : page.count + 1] = page.keys[slot:page.count].copy()
            page.ptrs[slot + 1 : page.count + 1] = page.ptrs[slot:page.count].copy()
            self.tracer.move(
                self.layout.key_address(base, slot + 1),
                self.layout.key_address(base, slot),
                moved * self.layout.key_size,
            )
            self.tracer.move(
                self.layout.ptr_address(base, slot + 1),
                self.layout.ptr_address(base, slot),
                moved * self.layout.ptr_size,
            )
        page.keys[slot] = key
        page.ptrs[slot] = ptr
        page.count += 1
        self.tracer.write(self.layout.key_address(base, slot), self.layout.key_size)
        self.tracer.write(self.layout.ptr_address(base, slot), self.layout.ptr_size)
        self.tracer.write(base, 4)  # count field in the header

    def _split_and_insert(
        self,
        pid: int,
        page: DiskPage,
        path: list[tuple[int, int]],
        slot: int,
        key: int,
        ptr: int,
        is_leaf: bool,
    ) -> None:
        """Split a full page, insert the entry, and update the parent."""
        self.page_splits += 1
        if is_leaf:
            self.leaf_splits += 1
        new_pid = self._new_page(level=page.level)
        new_page = self.store.page(new_pid)
        half = page.count // 2
        moved = page.count - half
        new_page.keys[:moved] = page.keys[half:page.count]
        new_page.ptrs[:moved] = page.ptrs[half:page.count]
        new_page.count = moved
        page.count = half
        base = self.pool.address_of(pid)
        new_base = self.pool.address_of(new_pid)
        self.tracer.move(
            self.layout.key_address(new_base, 0),
            self.layout.key_address(base, half),
            moved * self.layout.key_size,
        )
        self.tracer.move(
            self.layout.ptr_address(new_base, 0),
            self.layout.ptr_address(base, half),
            moved * self.layout.ptr_size,
        )
        if is_leaf:
            new_page.next_page = page.next_page
            new_page.prev_page = pid
            if page.next_page != INVALID_PAGE_ID:
                self.store.page(page.next_page).prev_page = new_pid
                self.store.mark_dirty(page.next_page)
            page.next_page = new_pid
        self._after_page_rebuild(page, base)
        self._after_page_rebuild(new_page, new_base)

        # Insert the pending entry into the correct half.
        if slot <= half and not (slot == half and not is_leaf):
            self._insert_into_page(page, base, slot, key, ptr)
        else:
            self._insert_into_page(new_page, new_base, slot - half, key, ptr)
        self.store.mark_dirty(pid)
        self.store.mark_dirty(new_pid)

        separator = int(new_page.keys[0])
        self._insert_into_parent(path, pid, separator, new_pid)

    def _insert_into_parent(self, path: list[tuple[int, int]], left_pid: int, key: int, right_pid: int) -> None:
        if not path:
            # The split page was the root: grow the tree.
            old_root = self.store.page(left_pid)
            new_root_pid = self._new_page(level=old_root.level + 1)
            new_root = self.store.page(new_root_pid)
            left_first = int(old_root.keys[0]) if old_root.count else 0
            new_root.keys[0] = min(left_first, key)
            new_root.ptrs[0] = left_pid
            new_root.keys[1] = key
            new_root.ptrs[1] = right_pid
            new_root.count = 2
            self.root_pid = new_root_pid
            self.height += 1
            base = self.pool.address_of(new_root_pid)
            self.tracer.write(self.layout.key_address(base, 0), 2 * self.layout.key_size)
            self.tracer.write(self.layout.ptr_address(base, 0), 2 * self.layout.ptr_size)
            self.store.mark_dirty(new_root_pid)
            return
        parent_pid, parent_slot = path[-1]
        parent = self.store.page(parent_pid)
        base = self.pool.address_of(parent_pid)
        if key < int(parent.keys[parent_slot]):
            # The left child holds keys below its stale separator (possible
            # because the first separator acts as -infinity and routing
            # clamps).  Refresh it to the child's true minimum so inserting
            # the new separator keeps the array sorted.
            left = self.store.page(left_pid)
            parent.keys[parent_slot] = left.keys[0]
            self.tracer.write(self.layout.key_address(base, parent_slot), self.layout.key_size)
        slot = parent_slot + 1
        if parent.count < self.layout.capacity:
            self._insert_into_page(parent, base, slot, key, right_pid)
            self.store.mark_dirty(parent_pid)
        else:
            self._split_and_insert(parent_pid, parent, path[:-1], slot, key, right_pid, is_leaf=False)

    # -- deletion ---------------------------------------------------------------

    def delete(self, key: int) -> bool:
        self.tracer.call_overhead()
        with self._update_txn():
            pid, leaf, base, __ = self._descend(key)
            slot = self._locate_slot(leaf, base, key)
            if slot >= leaf.count or int(leaf.keys[slot]) != key:
                return False
            moved = leaf.count - slot - 1
            if moved > 0:
                leaf.keys[slot:leaf.count - 1] = leaf.keys[slot + 1 : leaf.count].copy()
                leaf.ptrs[slot:leaf.count - 1] = leaf.ptrs[slot + 1 : leaf.count].copy()
                self.tracer.move(
                    self.layout.key_address(base, slot),
                    self.layout.key_address(base, slot + 1),
                    moved * self.layout.key_size,
                )
                self.tracer.move(
                    self.layout.ptr_address(base, slot),
                    self.layout.ptr_address(base, slot + 1),
                    moved * self.layout.ptr_size,
                )
            leaf.count -= 1
            self.tracer.write(base, 4)
            self._after_entry_removed(leaf, base, slot)
            self._entries -= 1
            self.store.mark_dirty(pid)
            return True

    # -- range scan --------------------------------------------------------------

    def range_scan(self, start_key: int, end_key: int) -> ScanResult:
        if end_key < start_key:
            return ScanResult(0, 0)
        self.tracer.call_overhead()
        # Left-biased descent: with duplicates spanning leaves, the scan
        # must start at the first occurrence, not the right sibling.
        pid, leaf, base, __ = self._descend(start_key, side="left")
        slot = insertion_slot(
            leaf.keys, leaf.count, start_key,
            self.layout.key_address(base, 0), self.layout.key_size, self.tracer,
        )
        count = 0
        tid_sum = 0
        while True:
            hi = int(np.searchsorted(leaf.keys[: leaf.count], end_key, side="right"))
            taken = hi - slot
            if taken > 0:
                # Sequential reads of the scanned key and tid ranges; the
                # disk-optimized tree has no prefetch, so every new line is
                # a demand miss.
                self.tracer.scan(self.layout.key_address(base, slot), taken * self.layout.key_size)
                self.tracer.scan(self.layout.ptr_address(base, slot), taken * TUPLE_ID_SIZE)
                count += taken
                tid_sum += int(leaf.ptrs[slot:hi].sum(dtype=np.uint64))
            if hi < leaf.count or leaf.next_page == INVALID_PAGE_ID:
                break
            pid = leaf.next_page
            leaf, base = self._page(pid)
            slot = 0
        return ScanResult(count, tid_sum)

    def range_scan_reverse(self, start_key: int, end_key: int) -> ScanResult:
        """Scan [start_key, end_key] walking the leaf chain right-to-left."""
        if end_key < start_key:
            return ScanResult(0, 0)
        self.tracer.call_overhead()
        __, leaf, base, __ = self._descend(end_key)
        count = 0
        tid_sum = 0
        while True:
            hi = int(np.searchsorted(leaf.keys[: leaf.count], end_key, side="right"))
            lo = int(np.searchsorted(leaf.keys[: leaf.count], start_key, side="left"))
            taken = hi - lo
            if taken > 0:
                self.tracer.scan(self.layout.key_address(base, lo), taken * self.layout.key_size)
                self.tracer.scan(self.layout.ptr_address(base, lo), taken * TUPLE_ID_SIZE)
                count += taken
                tid_sum += int(leaf.ptrs[lo:hi].sum(dtype=np.uint64))
            if lo > 0 or leaf.prev_page == INVALID_PAGE_ID:
                break
            leaf, base = self._page(leaf.prev_page)
        return ScanResult(count, tid_sum)

    # -- introspection ----------------------------------------------------------

    def page_path(self, key: int) -> list[int]:
        """Page ids visited by a search (untraced; for I/O experiments)."""
        path = [self.root_pid]
        page = self.store.page(self.root_pid)
        while page.level > 0:
            slot = max(int(np.searchsorted(page.keys[: page.count], key, side="right")) - 1, 0)
            pid = int(page.ptrs[slot])
            path.append(pid)
            page = self.store.page(pid)
        return path

    def scan_items(self, start_key: int, end_key: int) -> Iterable[tuple[int, int]]:
        """Positioned cursor: descend to the start key, then walk leaves."""
        if end_key < start_key:
            return
        pid = self.page_path_biased(start_key)
        page = self.store.page(pid)
        slot = int(np.searchsorted(page.keys[: page.count], start_key, side="left"))
        while True:
            for i in range(slot, page.count):
                key = int(page.keys[i])
                if key > end_key:
                    return
                yield key, int(page.ptrs[i])
            if page.next_page == INVALID_PAGE_ID:
                return
            page = self.store.page(page.next_page)
            slot = 0

    def page_path_biased(self, key: int) -> int:
        """Leaf pid for a left-biased (scan) descent, untraced."""
        page = self.store.page(self.root_pid)
        pid = self.root_pid
        while page.level > 0:
            slot = max(int(np.searchsorted(page.keys[: page.count], key, side="left")) - 1, 0)
            pid = int(page.ptrs[slot])
            page = self.store.page(pid)
        return pid

    def _check_page(self, pid: int, page: DiskPage) -> None:
        if page.count > self.layout.capacity:
            raise IndexCorruptionError(f"page {pid} overfull: {page.count}")
