"""Disk-first fpB+-Tree (paper Section 3.1).

Starts from a disk-optimized B+-Tree — one page per overall-tree node — but
organizes each page's keys and pointers as a small cache-optimized tree of
multi-line nodes (Figure 5) instead of one huge sorted array.  Non-leaf
in-page nodes use 2-byte line offsets; in-page leaf nodes hold child page
ids (interior pages) or tuple ids (leaf pages).  Node widths come from the
Table 2 optimizer.

Operation highlights (Section 3.1.2):

* *Search* is two-granularity: a page-level descent, with a prefetched
  in-page tree walk inside every page.
* *Insertion* shifts entries only inside one small node.  A full node splits
  within the page if line slots are free; if not, the page is either
  **reorganized** in place (when total occupancy is still far below the page
  fan-out) or **split** (when fewer than one empty slot per in-page leaf
  node remains).
* *Deletion* is lazy, shifting within one node.
* *Range scans* prefetch all the in-page leaf nodes of a page before
  scanning it, and remember the end page to avoid overshooting.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..btree.base import Index, IndexCorruptionError, ScanResult, check_key, chunk_evenly
from ..btree.context import TreeEnvironment
from ..btree.keys import INVALID_PAGE_ID, TUPLE_ID_SIZE
from ..btree.search import child_slot, insertion_slot
from .inpage import LEAF, NONLEAF, DiskFirstLayout, FpPage, InPageNode
from .optimizer import DiskFirstWidths

__all__ = ["DiskFirstFpTree"]


class DiskFirstFpTree(Index):
    """fpB+-Tree built disk-first: a cache-optimized tree inside each page."""

    name = "disk-first fpB+tree"

    def __init__(
        self,
        env: Optional[TreeEnvironment] = None,
        widths: Optional[DiskFirstWidths] = None,
        **env_kwargs,
    ) -> None:
        self.env = env if env is not None else TreeEnvironment(**env_kwargs)
        mem = self.env.mem
        self.layout = DiskFirstLayout(
            self.env.page_size,
            self.env.keyspec,
            line_size=self.env.line_size,
            widths=widths,
            t1=mem.config.t1 if mem else 150,
            tnext=mem.config.tnext if mem else 10,
        )
        self.store = self.env.store
        self.pool = self.env.pool
        self.tracer = self.env.tracer
        self.keyspec = self.env.keyspec
        self.height = 1
        self._entries = 0
        self.node_splits = 0
        self.page_splits = 0
        self.reorganizations = 0
        #: page id -> (write token, its :meth:`FpPage.entries` pair).
        self._flat: dict[int, tuple[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.root_pid = self._new_page(level=0)
        self._init_empty_page(self.root_pid)
        self.first_leaf_pid = self.root_pid

    # -- page helpers -----------------------------------------------------------

    def _new_page(self, level: int) -> int:
        return self.store.allocate(FpPage(level, self.layout.total_lines))

    def _init_empty_page(self, pid: int) -> None:
        page = self.store.page(pid)
        node = self.layout.new_node(page, LEAF, hint=self.layout.root_hint(pid))
        page.root_line = node.line

    def _page(self, pid: int) -> tuple[FpPage, int]:
        page, base = self.pool.access(pid)
        self.tracer.read(base, 16)  # page header
        return page, base

    # -- traced in-page operations ---------------------------------------------------

    def _fetch_node(self, base: int, node: InPageNode) -> None:
        self.tracer.prefetch(self.layout.node_address(base, node), self.layout.node_bytes(node))
        self.tracer.read(self.layout.node_address(base, node), 4)
        self.tracer.visit_node()

    def _inpage_descend(
        self, page: FpPage, base: int, key: int, record_path: bool = False, side: str = "right"
    ) -> tuple[InPageNode, list[tuple[InPageNode, int]]]:
        """Walk the in-page tree to the in-page leaf node for ``key``."""
        path: list[tuple[InPageNode, int]] = []
        node = page.root
        self._fetch_node(base, node)
        while node.kind == NONLEAF:
            slot = child_slot(
                node.keys, node.count, key,
                self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
                side=side,
            )
            self.tracer.read(self.layout.ptr_address(base, node, slot), 2)
            if record_path:
                path.append((node, slot))
            node = page.nodes[int(node.ptrs[slot])]
            self._fetch_node(base, node)
        return node, path

    def _locate_child_pid(self, page: FpPage, base: int, key: int, side: str = "right") -> int:
        """Route ``key`` through an interior page to a child page id."""
        node, __ = self._inpage_descend(page, base, key, side=side)
        slot = child_slot(
            node.keys, node.count, key,
            self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
            side=side,
        )
        self.tracer.read(self.layout.ptr_address(base, node, slot), 4)
        return int(node.ptrs[slot])

    def _node_insert(
        self, page: FpPage, base: int, node: InPageNode, slot: int, key: int, value: int
    ) -> None:
        """Shift within one small node and write the new entry."""
        moved = node.count - slot
        if moved > 0:
            node.keys[slot + 1 : node.count + 1] = node.keys[slot:node.count].copy()
            node.ptrs[slot + 1 : node.count + 1] = node.ptrs[slot:node.count].copy()
            self.tracer.move(
                self.layout.key_address(base, node, slot + 1),
                self.layout.key_address(base, node, slot),
                moved * self.keyspec.size,
            )
            ptr_size = self.layout.ptr_size(node)
            self.tracer.move(
                self.layout.ptr_address(base, node, slot + 1),
                self.layout.ptr_address(base, node, slot),
                moved * ptr_size,
            )
        node.keys[slot] = key
        node.ptrs[slot] = value
        node.count += 1
        self.tracer.write(self.layout.key_address(base, node, slot), self.keyspec.size)
        self.tracer.write(self.layout.ptr_address(base, node, slot), self.layout.ptr_size(node))
        self.tracer.write(self.layout.node_address(base, node), 4)  # node header

    # -- public interface ----------------------------------------------------------

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

        per_page = max(1, int(self.layout.page_fanout * fill))
        level_pids: list[int] = []
        level_firsts: list[int] = []
        start = 0
        prev_pid = INVALID_PAGE_ID
        for size in chunk_evenly(len(keys), per_page):
            pid = self._new_page(level=0)
            page = self.store.page(pid)
            self._rebuild_page(
                pid, page, keys[start : start + size], tids[start : start + size], spread=True
            )
            page.prev_page = prev_pid
            if prev_pid != INVALID_PAGE_ID:
                self.store.page(prev_pid).next_page = pid
            level_pids.append(pid)
            level_firsts.append(int(keys[start]))
            prev_pid = pid
            start += size
        self.first_leaf_pid = level_pids[0]

        level = 1
        while len(level_pids) > 1:
            parent_pids: list[int] = []
            parent_firsts: list[int] = []
            start = 0
            prev_pid = INVALID_PAGE_ID
            for size in chunk_evenly(len(level_pids), per_page):
                pid = self._new_page(level=level)
                page = self.store.page(pid)
                self._rebuild_page(
                    pid,
                    page,
                    np.asarray(level_firsts[start : start + size], dtype=self.keyspec.dtype),
                    np.asarray(level_pids[start : start + size], dtype=np.uint32),
                    spread=False,
                )
                page.prev_page = prev_pid
                if prev_pid != INVALID_PAGE_ID:
                    self.store.page(prev_pid).next_page = pid
                parent_pids.append(pid)
                parent_firsts.append(level_firsts[start])
                prev_pid = pid
                start += size
            level_pids, level_firsts = parent_pids, parent_firsts
            level += 1
        self.root_pid = level_pids[0]
        self.height = level
        self._entries = int(keys.size)

    def _descend_to_leaf_page(self, key: int, record_path: bool = False, side: str = "right"):
        """Page-level descent; returns (pid, page, base, path_of_pids).

        ``side="left"`` biases toward the leftmost candidate leaf page
        (range scans must catch duplicates spanning page boundaries).
        """
        path: list[int] = []
        pid = self.root_pid
        page, base = self._page(pid)
        while page.level > 0:
            if record_path:
                path.append(pid)
            pid = self._locate_child_pid(page, base, key, side=side)
            page, base = self._page(pid)
        return pid, page, base, path

    def search(self, key: int) -> Optional[int]:
        self.tracer.call_overhead()
        __, page, base, __ = self._descend_to_leaf_page(key)
        node, __ = self._inpage_descend(page, base, key)
        slot = insertion_slot(
            node.keys, node.count, key,
            self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
        )
        if slot < node.count and int(node.keys[slot]) == key:
            self.tracer.read(self.layout.ptr_address(base, node, slot), TUPLE_ID_SIZE)
            return int(node.ptrs[slot])
        return None

    # -- insertion ----------------------------------------------------------------------

    def insert(self, key: int, tid: int) -> None:
        check_key(key, self.keyspec)
        self.tracer.call_overhead()
        with self._update_txn():
            pid, page, base, path = self._descend_to_leaf_page(key, record_path=True)
            self._insert_entry(pid, page, base, key, tid, path)
            self._entries += 1

    def _insert_entry(
        self, pid: int, page: FpPage, base: int, key: int, value: int, path_above: list[int]
    ) -> None:
        """Insert an entry into a page's in-page tree, splitting as needed."""
        node, node_path = self._inpage_descend(page, base, key, record_path=True)
        slot = insertion_slot(
            node.keys, node.count, key,
            self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
        )
        if node.count < node.capacity:
            self._node_insert(page, base, node, slot, key, value)
            page.total += 1
            self.store.mark_dirty(pid)
            return
        if self._try_node_split(page, base, node, node_path, slot, key, value):
            page.total += 1
            self.store.mark_dirty(pid)
            return
        # No room to grow the in-page tree: reorganize or split the page.
        if page.total < self.layout.page_fanout - self.layout.max_leaf_nodes:
            self._reorganize_page(pid, page, base)
            # Retry: the even redistribution guarantees a free slot.
            node, node_path = self._inpage_descend(page, base, key, record_path=True)
            slot = insertion_slot(
                node.keys, node.count, key,
                self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
            )
            if node.count < node.capacity:
                self._node_insert(page, base, node, slot, key, value)
            elif not self._try_node_split(page, base, node, node_path, slot, key, value):
                raise IndexCorruptionError("reorganized page still has no room")
            page.total += 1
            self.store.mark_dirty(pid)
            return
        self._split_page_and_insert(pid, page, base, key, value, path_above)

    def _try_node_split(
        self,
        page: FpPage,
        base: int,
        node: InPageNode,
        node_path: list[tuple[InPageNode, int]],
        slot: int,
        key: int,
        value: int,
    ) -> bool:
        """Split a full in-page node if the page has line slots for it."""
        # Determine the chain of splits: the node itself, plus every full
        # ancestor, plus possibly a new in-page root.
        kinds = [node.kind]
        depth = len(node_path) - 1
        while depth >= 0 and node_path[depth][0].count >= node_path[depth][0].capacity:
            kinds.append(NONLEAF)
            depth -= 1
        needs_new_root = depth < 0 and (
            not node_path or node_path[0][0].count >= node_path[0][0].capacity
        )
        if not node_path:
            needs_new_root = True  # splitting the root node itself
        if needs_new_root:
            kinds.append(NONLEAF)
        # Reserve the lines up front; roll back on failure.
        reserved: list[tuple[int, int]] = []
        for kind in kinds:
            width = self.layout.lines_needed(kind)
            line = page.alloc.alloc(width)
            if line is None:
                for got_line, got_width in reversed(reserved):
                    page.alloc.free(got_line, got_width)
                return False
            reserved.append((line, width))
        for got_line, got_width in reversed(reserved):
            page.alloc.free(got_line, got_width)
        self._node_split_insert(page, base, node, node_path, slot, key, value)
        return True

    def _node_split_insert(
        self,
        page: FpPage,
        base: int,
        node: InPageNode,
        node_path: list[tuple[InPageNode, int]],
        slot: int,
        key: int,
        value: int,
    ) -> None:
        """Split ``node`` (allocation guaranteed) and insert the entry."""
        self.node_splits += 1
        new_node = self.layout.new_node(page, node.kind)
        assert new_node is not None, "allocation was pre-checked"
        half = node.count // 2
        moved = node.count - half
        new_node.keys[:moved] = node.keys[half:node.count]
        new_node.ptrs[:moved] = node.ptrs[half:node.count]
        new_node.count = moved
        node.count = half
        self.tracer.move(
            self.layout.key_address(base, new_node, 0),
            self.layout.key_address(base, node, half),
            moved * self.keyspec.size,
        )
        self.tracer.move(
            self.layout.ptr_address(base, new_node, 0),
            self.layout.ptr_address(base, node, half),
            moved * self.layout.ptr_size(node),
        )
        if slot <= half and not (slot == half and node.kind == NONLEAF):
            self._node_insert(page, base, node, slot, key, value)
        else:
            self._node_insert(page, base, new_node, slot - half, key, value)
        separator = int(new_node.keys[0])
        if node_path:
            parent, parent_slot = node_path[-1]
            if separator < int(parent.keys[parent_slot]):
                # Stale leftmost separator: refresh to the left node's minimum.
                parent.keys[parent_slot] = node.keys[0]
                self.tracer.write(
                    self.layout.key_address(base, parent, parent_slot), self.keyspec.size
                )
            if parent.count < parent.capacity:
                self._node_insert(page, base, parent, parent_slot + 1, separator, new_node.line)
            else:
                self._node_split_insert(
                    page, base, parent, node_path[:-1], parent_slot + 1, separator, new_node.line
                )
        else:
            new_root = self.layout.new_node(page, NONLEAF)
            assert new_root is not None, "allocation was pre-checked"
            new_root.keys[0] = min(int(node.keys[0]) if node.count else separator, separator)
            new_root.ptrs[0] = node.line
            new_root.keys[1] = separator
            new_root.ptrs[1] = new_node.line
            new_root.count = 2
            page.root_line = new_root.line
            self.tracer.write(self.layout.node_address(base, new_root), 16)

    # -- reorganize / rebuild --------------------------------------------------------------

    def _rebuild_page(
        self, pid: int, page: FpPage, keys: np.ndarray, ptrs: np.ndarray, spread: bool
    ) -> None:
        """Rebuild a page's in-page tree from scratch with the given entries.

        ``spread=True`` distributes entries evenly over the maximum number of
        in-page leaf nodes (so later insertions find empty slots); False
        packs nodes full, as bulkload does for interior pages.
        """
        layout = self.layout
        page.nodes.clear()
        page.alloc.clear()
        page.total = int(len(keys))
        n = len(keys)
        if n == 0:
            self._init_empty_page(pid)
            return
        if spread:
            node_count = min(layout.max_leaf_nodes, max(1, n))
            node_count = max(node_count, -(-n // layout.leaf_capacity))
            base_size, remainder = divmod(n, node_count)
            sizes = [base_size + (1 if i < remainder else 0) for i in range(node_count)]
        else:
            sizes = chunk_evenly(n, layout.leaf_capacity)
        # Reserve the in-page root at its staggered position first, so the
        # top-level nodes of different pages do not conflict in the cache
        # (Section 4.1).  Optimizer-chosen layouts pack full pages to within
        # a couple of lines, so the stagger only applies when there is
        # enough slack to absorb the fragmentation it causes.
        needed_lines = len(sizes) * layout.leaf_width
        count = len(sizes)
        while count > 1:
            count = -(-count // layout.nonleaf_capacity)
            needed_lines += count * layout.nonleaf_width
        slack = (layout.total_lines - 1) - needed_lines
        root_hint = layout.root_hint(pid)
        use_stagger = slack >= layout.leaf_width + layout.nonleaf_width
        preallocated_root: Optional[InPageNode] = None
        if len(sizes) > 1 and use_stagger:
            preallocated_root = layout.new_node(page, NONLEAF, hint=root_hint)
        leaf_nodes: list[InPageNode] = []
        firsts: list[int] = []
        start = 0
        single_leaf_hint = root_hint if (len(sizes) == 1 and use_stagger) else 0
        for size in sizes:
            node = layout.new_node(page, LEAF, hint=single_leaf_hint)
            if node is None:
                raise IndexCorruptionError(f"page rebuild overflow: {n} entries in page {pid}")
            node.keys[:size] = keys[start : start + size]
            node.ptrs[:size] = ptrs[start : start + size]
            node.count = size
            leaf_nodes.append(node)
            firsts.append(int(keys[start]))
            start += size

        current = leaf_nodes
        current_firsts = firsts
        while len(current) > 1:
            chunks = chunk_evenly(len(current), layout.nonleaf_capacity)
            parents: list[InPageNode] = []
            parent_firsts: list[int] = []
            start = 0
            for size in chunks:
                if len(chunks) == 1 and preallocated_root is not None:
                    parent = preallocated_root
                    preallocated_root = None
                else:
                    parent = layout.new_node(page, NONLEAF)
                if parent is None:
                    raise IndexCorruptionError(f"page rebuild overflow (non-leaf) in page {pid}")
                parent.keys[:size] = current_firsts[start : start + size]
                parent.ptrs[:size] = [child.line for child in current[start : start + size]]
                parent.count = size
                parents.append(parent)
                parent_firsts.append(current_firsts[start])
                start += size
            current, current_firsts = parents, parent_firsts
        if preallocated_root is not None:
            # The reservation turned out to be unused (single leaf node).
            self.layout.free_node(page, preallocated_root)
        page.root_line = current[0].line

    def _rebuild_page_from_nodes(self, pid: int, page: FpPage, leaf_nodes: list[InPageNode]) -> None:
        """Re-place existing leaf nodes in ``page`` and rebuild its non-leaf tree.

        Used by page splits: the leaf nodes themselves (and their entry
        arrays) are preserved; only placement and the small non-leaf index
        over them are reconstructed.
        """
        layout = self.layout
        page.nodes.clear()
        page.alloc.clear()
        live = [n for n in leaf_nodes if n.count]
        if not live:
            page.total = 0
            self._init_empty_page(pid)
            return
        page.total = sum(n.count for n in live)
        for node in live:
            line = page.alloc.alloc(node.width)
            if line is None:
                raise IndexCorruptionError(f"page {pid} cannot hold its leaf nodes")
            node.line = line
            page.nodes[line] = node
        firsts = [int(n.keys[0]) for n in live]
        current: list[InPageNode] = list(live)
        current_firsts = firsts
        while len(current) > 1:
            parents: list[InPageNode] = []
            parent_firsts: list[int] = []
            start = 0
            for size in chunk_evenly(len(current), layout.nonleaf_capacity):
                parent = layout.new_node(page, NONLEAF)
                if parent is None:
                    raise IndexCorruptionError(f"page {pid} cannot hold its non-leaf nodes")
                parent.keys[:size] = current_firsts[start : start + size]
                parent.ptrs[:size] = [child.line for child in current[start : start + size]]
                parent.count = size
                parents.append(parent)
                parent_firsts.append(current_firsts[start])
                start += size
            current, current_firsts = parents, parent_firsts
        page.root_line = current[0].line

    def _charge_nonleaf_rebuild(self, page: FpPage, base: int) -> None:
        """Charge touching the (small) in-page non-leaf structure."""
        for node in page.nodes.values():
            if node.kind == NONLEAF:
                used = node.count * (self.keyspec.size + 2)
                address = self.layout.node_address(base, node)
                self.tracer.move(address, address, used)

    def _charge_rebuild(self, page: FpPage, base: int) -> None:
        """Charge the cost of touching every node during a rebuild."""
        for node in page.nodes.values():
            used = node.count * (self.keyspec.size + self.layout.ptr_size(node))
            address = self.layout.node_address(base, node)
            self.tracer.move(address, address, used)

    def _reorganize_page(self, pid: int, page: FpPage, base: int) -> None:
        self.reorganizations += 1
        keys, ptrs = page.entries()
        self._rebuild_page(pid, page, keys, ptrs, spread=True)
        self._charge_rebuild(page, base)

    # -- page split --------------------------------------------------------------------------

    def _split_page_and_insert(
        self, pid: int, page: FpPage, base: int, key: int, value: int, path_above: list[int]
    ) -> None:
        """Split a page by moving half its in-page *leaf nodes* to a new page.

        Per Section 3.1.2, only the leaf nodes are copied (the moved half);
        the small in-page non-leaf structures are rebuilt in both pages.
        This keeps the split cost comparable to the baseline's half-page
        copy, rather than rewriting two full pages.
        """
        self.page_splits += 1
        wal = getattr(self.env, "wal", None)
        if wal is not None:
            # Crash point: the machine can die the instant a split begins,
            # mid-transaction, leaving the WAL to roll the whole thing back.
            wal.note_page_split()
        nodes = page.leaf_nodes_in_order()
        if len(nodes) < 2:
            # Degenerate single-node page (tiny page sizes): split entries.
            keys_all, ptrs_all = page.entries()
            half_entries = len(keys_all) // 2
            new_pid = self._new_page(page.level)
            new_page = self.store.page(new_pid)
            self._rebuild_page(pid, page, keys_all[:half_entries], ptrs_all[:half_entries], spread=True)
            self._rebuild_page(new_pid, new_page, keys_all[half_entries:], ptrs_all[half_entries:], spread=True)
            new_base = self.pool.address_of(new_pid)
            self._charge_rebuild(page, base)
            self._charge_rebuild(new_page, new_base)
            new_page.next_page = page.next_page
            new_page.prev_page = pid
            if page.next_page != INVALID_PAGE_ID:
                self.store.page(page.next_page).prev_page = new_pid
                self.store.mark_dirty(page.next_page)
            page.next_page = new_pid
            self.store.mark_dirty(pid)
            self.store.mark_dirty(new_pid)
            separator = int(keys_all[half_entries])
            if key < separator:
                self._insert_entry(pid, page, base, key, value, path_above)
            else:
                self._insert_entry(new_pid, new_page, new_base, key, value, path_above)
            self._insert_page_separator(pid, separator, new_pid, path_above)
            return
        half = len(nodes) // 2
        left_nodes, right_nodes = nodes[:half], nodes[half:]
        old_addresses = {id(n): self.layout.node_address(base, n) for n in right_nodes}
        new_pid = self._new_page(page.level)
        new_page = self.store.page(new_pid)
        self._rebuild_page_from_nodes(pid, page, left_nodes)
        self._rebuild_page_from_nodes(new_pid, new_page, right_nodes)
        new_base = self.pool.address_of(new_pid)
        # Charge: the moved half's leaf-node contents are copied to the new
        # page, and the (small) non-leaf structures are rebuilt in both.
        for node in right_nodes:
            used = node.count * (self.keyspec.size + 4)
            self.tracer.move(
                self.layout.node_address(new_base, node), old_addresses[id(node)], used
            )
        self._charge_nonleaf_rebuild(page, base)
        self._charge_nonleaf_rebuild(new_page, new_base)
        # Sibling links (maintained at every page level).
        new_page.next_page = page.next_page
        new_page.prev_page = pid
        if page.next_page != INVALID_PAGE_ID:
            self.store.page(page.next_page).prev_page = new_pid
            self.store.mark_dirty(page.next_page)
        page.next_page = new_pid
        self.store.mark_dirty(pid)
        self.store.mark_dirty(new_pid)
        live_right = [n for n in right_nodes if n.count]
        separator = int(live_right[0].keys[0]) if live_right else key
        # Insert the pending entry into the correct half.
        if key < separator:
            target_pid, target_page, target_base = pid, page, base
        else:
            target_pid, target_page, target_base = new_pid, new_page, new_base
        self._insert_entry(target_pid, target_page, target_base, key, value, path_above)
        self._insert_page_separator(pid, separator, new_pid, path_above)

    def _insert_page_separator(
        self, left_pid: int, separator: int, new_pid: int, path_above: list[int]
    ) -> None:
        """Insert (separator, new page) into the parent page after a split."""
        if not path_above:
            new_root_pid = self._new_page(self.store.page(left_pid).level + 1)
            new_root = self.store.page(new_root_pid)
            left_page = self.store.page(left_pid)
            left_keys, __ = left_page.entries()
            left_min = int(left_keys[0]) if len(left_keys) else separator
            self._rebuild_page(
                new_root_pid,
                new_root,
                np.asarray([min(left_min, separator), separator], dtype=self.keyspec.dtype),
                np.asarray([left_pid, new_pid], dtype=np.uint32),
                spread=False,
            )
            self.root_pid = new_root_pid
            self.height += 1
            self.store.mark_dirty(new_root_pid)
            return
        parent_pid = path_above[-1]
        parent_page, parent_base = self._page(parent_pid)
        self._refresh_stale_separator(parent_page, parent_base, left_pid, separator)
        self._insert_entry(
            parent_pid, parent_page, parent_base, separator, new_pid, path_above[:-1]
        )

    def _refresh_stale_separator(
        self, parent_page: FpPage, parent_base: int, left_pid: int, separator: int
    ) -> None:
        """If the left child's recorded separator exceeds the new one, refresh it.

        Only the leftmost routing chain can be stale (keys below every
        separator clamp to child 0), so the entry is found by descending for
        the new separator.
        """
        node, __ = self._inpage_descend(parent_page, parent_base, separator)
        slot = int(node.keys[: node.count].searchsorted(separator, side="left"))
        # Skip over equal-key entries for other children.
        while (
            slot < node.count
            and int(node.keys[slot]) == separator
            and int(node.ptrs[slot]) != left_pid
        ):
            slot += 1
        # Refresh on <= : if the left child's recorded key equals the new
        # separator, inserting by binary search would land *before* the left
        # child's entry, breaking the order against the sibling chain.
        if slot < node.count and int(node.ptrs[slot]) == left_pid and separator <= int(node.keys[slot]):
            left_keys, __ = self.store.page(left_pid).entries()
            if len(left_keys):
                node.keys[slot] = int(left_keys[0])
                self.tracer.write(
                    self.layout.key_address(parent_base, node, slot), self.keyspec.size
                )

    # -- deletion --------------------------------------------------------------------------------

    def delete(self, key: int) -> bool:
        self.tracer.call_overhead()
        with self._update_txn():
            pid, page, base, __ = self._descend_to_leaf_page(key)
            node, __ = self._inpage_descend(page, base, key)
            slot = insertion_slot(
                node.keys, node.count, key,
                self.layout.key_address(base, node, 0), self.keyspec.size, self.tracer,
            )
            if slot >= node.count or int(node.keys[slot]) != key:
                return False
            moved = node.count - slot - 1
            if moved > 0:
                node.keys[slot : node.count - 1] = node.keys[slot + 1 : node.count].copy()
                node.ptrs[slot : node.count - 1] = node.ptrs[slot + 1 : node.count].copy()
                self.tracer.move(
                    self.layout.key_address(base, node, slot),
                    self.layout.key_address(base, node, slot + 1),
                    moved * self.keyspec.size,
                )
                self.tracer.move(
                    self.layout.ptr_address(base, node, slot),
                    self.layout.ptr_address(base, node, slot + 1),
                    moved * self.layout.ptr_size(node),
                )
            node.count -= 1
            page.total -= 1
            self.tracer.write(self.layout.node_address(base, node), 4)
            self.store.mark_dirty(pid)
            self._entries -= 1
            return True

    # -- range scan ---------------------------------------------------------------------------------

    def range_scan(self, start_key: int, end_key: int) -> ScanResult:
        if end_key < start_key:
            return ScanResult(0, 0)
        self.tracer.call_overhead()
        __, page, base, __ = self._descend_to_leaf_page(start_key, side="left")
        count = 0
        tid_sum = 0
        while True:
            nodes = page.leaf_nodes_in_order()
            # Cache-granularity jump-pointer prefetch: the in-page space
            # management structure locates every leaf node in the page, so
            # they are all prefetched before scanning (Section 3.3).
            for node in nodes:
                self.tracer.prefetch(
                    self.layout.node_address(base, node), self.layout.node_bytes(node)
                )
            done = False
            for node in nodes:
                if node.count == 0:
                    continue
                lo = int(node.keys[: node.count].searchsorted(start_key, side="left"))
                hi = int(node.keys[: node.count].searchsorted(end_key, side="right"))
                taken = hi - lo
                if taken > 0:
                    self.tracer.scan(
                        self.layout.key_address(base, node, lo), taken * self.keyspec.size
                    )
                    self.tracer.scan(
                        self.layout.ptr_address(base, node, lo), taken * TUPLE_ID_SIZE
                    )
                    count += taken
                    tid_sum += int(node.ptrs[lo:hi].sum(dtype=np.uint64))
                if hi < node.count:
                    done = True
            if done or page.next_page == INVALID_PAGE_ID:
                break
            page, base = self._page(page.next_page)
        return ScanResult(count, tid_sum)

    def range_count(self, start_key: int, end_key: int) -> int:
        """:meth:`range_scan`'s count from an untraced walk over page pairs.

        Descends and stops exactly as the scan does, reading each page's
        keys from its cached :meth:`page_entries` pair.  A page that lies
        wholly inside the range (its first key ``>= start_key``, its
        successor's first key ``<= end_key``) contributes its entry count
        with no search; only the boundary pages are searched.
        """
        if end_key < start_key:
            return 0
        pid = self.root_pid
        while self.store.page(pid).level > 0:
            pid = self.child_pid(pid, start_key, side="left")
        keys = self.page_entries(pid)[0]
        count = 0
        while True:
            next_pid = self.store.page(pid).next_page
            following = self.page_entries(next_pid)[0] if next_pid != INVALID_PAGE_ID else None
            if (
                len(keys)
                and following is not None
                and len(following)
                and start_key <= keys[0]
                and following[0] <= end_key
            ):
                count += len(keys)
            else:  # a boundary page (an emptied one has an empty pair)
                hi = int(keys.searchsorted(end_key, side="right"))
                count += hi - int(keys.searchsorted(start_key, side="left"))
                if hi < len(keys):
                    return count
            if following is None:
                return count
            pid, keys = next_pid, following

    def range_scan_reverse(self, start_key: int, end_key: int) -> ScanResult:
        """Scan [start_key, end_key] walking leaf pages right-to-left."""
        if end_key < start_key:
            return ScanResult(0, 0)
        self.tracer.call_overhead()
        __, page, base, __ = self._descend_to_leaf_page(end_key)
        count = 0
        tid_sum = 0
        while True:
            nodes = page.leaf_nodes_in_order()
            for node in nodes:
                self.tracer.prefetch(
                    self.layout.node_address(base, node), self.layout.node_bytes(node)
                )
            done = False
            for node in reversed(nodes):
                if node.count == 0:
                    continue
                lo = int(node.keys[: node.count].searchsorted(start_key, side="left"))
                hi = int(node.keys[: node.count].searchsorted(end_key, side="right"))
                taken = hi - lo
                if taken > 0:
                    self.tracer.scan(
                        self.layout.key_address(base, node, lo), taken * self.keyspec.size
                    )
                    self.tracer.scan(
                        self.layout.ptr_address(base, node, lo), taken * TUPLE_ID_SIZE
                    )
                    count += taken
                    tid_sum += int(node.ptrs[lo:hi].sum(dtype=np.uint64))
                if lo > 0:
                    done = True
            if done or page.prev_page == INVALID_PAGE_ID:
                break
            page, base = self._page(page.prev_page)
        return ScanResult(count, tid_sum)

    # -- the served routing primitive (untraced) ---------------------------------------------------

    def page_entries(self, pid: int) -> tuple[np.ndarray, np.ndarray]:
        """Page ``pid``'s flat sorted ``(keys, ptrs)`` pair (:meth:`FpPage.entries`).

        The keys are signed 64-bit, the dtype of a probe batch, so a
        below-range probe compares below every key instead of wrapping an
        unsigned dtype.  Built lazily and cached per page id; the cached
        pair is valid while the store's write token for the page is
        unchanged, and every in-page mutation restamps it (``mark_dirty``,
        ``allocate``, ``place``, ``replace``).  Every untraced routing of
        the served path is one ``searchsorted`` on this pair: ``side="right"`` routes,
        ``side="left"`` routes a left-biased scan descent and exact-matches
        a leaf.  Routing equals the traced in-page node walk's on both
        sides; an exact match equals ``search``'s for a key stored once
        (the serving tree's discipline; of several duplicates, the walk and
        the pair may pick different ones).
        """
        token = self.store.write_token(pid)
        cached = self._flat.get(pid)
        if cached is not None and cached[0] == token:
            return cached[1]
        keys, ptrs = self.store.page(pid).entries()
        pair = (keys.astype(np.int64, copy=False), ptrs)
        self._flat[pid] = (token, pair)
        return pair

    def child_pid(self, pid: int, key: int, side: str = "right") -> int:
        """The child page id interior page ``pid`` routes ``key`` to."""
        keys, ptrs = self.page_entries(pid)
        return int(ptrs[max(int(keys.searchsorted(key, side=side)) - 1, 0)])

    def leaf_tid(self, pid: int, key: int) -> int:
        """``key``'s tuple id in leaf page ``pid``; 0 if it is absent."""
        keys, ptrs = self.page_entries(pid)
        slot = int(keys.searchsorted(key, side="left"))
        return int(ptrs[slot]) if slot < len(keys) and keys[slot] == key else 0

    def page_path(self, key: int) -> list[int]:
        """Page ids visited by a search (untraced; for I/O experiments)."""
        path = [self.root_pid]
        while self.store.page(path[-1]).level > 0:
            path.append(self.child_pid(path[-1], key))
        return path

    def leaf_pids_via_jump_pointers(self) -> list[int]:
        """Leaf page ids gathered from the leaf-parent level (Section 3.3).

        This is the internal jump-pointer array used for I/O prefetching:
        the in-page leaf nodes of leaf-parent pages collectively hold every
        leaf page id in order.
        """
        if self.height == 1:
            return [self.root_pid]
        # Find the leftmost page at level 1.
        pid = self.root_pid
        page = self.store.page(pid)
        while page.level > 1:
            first_node = page.leaf_nodes_in_order()[0]
            pid = int(first_node.ptrs[0])
            page = self.store.page(pid)
        pids: list[int] = []
        while pid != INVALID_PAGE_ID:
            page = self.store.page(pid)
            for node in page.leaf_nodes_in_order():
                pids.extend(int(p) for p in node.ptrs[: node.count])
            pid = page.next_page
        return pids

    # -- structural-walk hooks (:meth:`Index.validate`) --------------------------------

    def _check_page(self, pid: int, page: FpPage) -> None:
        if page.root_line not in page.nodes:
            raise IndexCorruptionError(f"page {pid} has no root node")
        for node in page.nodes.values():
            if node.count > node.capacity:
                raise IndexCorruptionError(f"page {pid} node overfull")
            lines = range(node.line, node.line + node.width)
            if not all(page.alloc.is_used(line) for line in lines):
                raise IndexCorruptionError(f"page {pid} node lines not allocated")
            if node.kind == NONLEAF and not all(
                int(line) in page.nodes for line in node.ptrs[: node.count]
            ):
                raise IndexCorruptionError(f"page {pid} dangling in-page pointer")
        # The in-page tree under :meth:`Index.validate`'s bounded rule: child
        # i's keys lie within [sep i, sep i+1], child 0 inheriting its
        # parent's lower bound; the page's own bounds are checked on its
        # flat entries by the page-level walk.
        seen: set[int] = set()
        stack = [(page.root_line, None, None)]
        while stack:
            line, lo, hi = stack.pop()
            if line in seen:
                raise IndexCorruptionError(f"page {pid} in-page node at line {line} reached twice")
            seen.add(line)
            node = page.nodes[line]
            keys = node.keys[: node.count].tolist()
            if keys and lo is not None and keys[0] < lo:
                raise IndexCorruptionError(
                    f"page {pid} in-page keys out of order: node at line {line} "
                    f"holds key {keys[0]} below its separator {lo}"
                )
            if keys and hi is not None and keys[-1] > hi:
                raise IndexCorruptionError(
                    f"page {pid} in-page keys out of order: node at line {line} "
                    f"holds key {keys[-1]} above its next separator {hi}"
                )
            if node.kind == NONLEAF:
                for i, child in enumerate(node.ptrs[: node.count].tolist()):
                    stack.append((
                        child,
                        lo if i == 0 else keys[i],
                        keys[i + 1] if i + 1 < len(keys) else hi,
                    ))

    def _check_tree(self, leaves: list[int]) -> None:
        if self.height > 1 and leaves != self.leaf_pids_via_jump_pointers():
            raise IndexCorruptionError("jump-pointer array disagrees with leaf chain")
