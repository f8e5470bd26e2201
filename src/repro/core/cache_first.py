"""Cache-first fpB+-Tree (paper Section 3.2).

Starts from a cache-optimized tree of uniform multi-line nodes (ignoring
page boundaries), then places those nodes into disk pages to salvage I/O
performance (Figure 8):

* **Leaf pages** hold only leaf nodes, and the leaf nodes within one page
  are consecutive siblings — good range-scan I/O.
* **Non-leaf nodes** are placed *aggressively*: a parent and as many of its
  descendants as fit share a page.  The bulkload computes how many levels of
  a full subtree fit per page and spreads the remaining slots ("underflow")
  evenly over the next level's children with a bitmap.  Children that do
  not fit become the top node of their own page — except **leaf parents**,
  which go to shared overflow pages (their children are in leaf pages, so a
  page of their own would hold one node).
* Non-leaf child pointers are page id + in-page offset (6 bytes); search
  touches the buffer manager only when crossing a page boundary.

Structural bookkeeping (who is whose parent) is kept as Python object
references; the *costs* of the paper's lookup mechanisms — the per-leaf-page
back pointer and the leaf-parent sibling links used to find parents during
leaf-page splits — are charged explicitly where the paper uses them.

Non-leaf node splits in full pages follow Figure 9(c): the page's top node
splits and the page divides into two, keeping each half's co-located
subtrees together, rather than orphaning nodes or cascading promotions.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from ..btree.base import Index, IndexCorruptionError, ScanResult, check_key, chunk_evenly
from ..btree.context import TreeEnvironment
from ..btree.keys import INVALID_PAGE_ID, TUPLE_ID_SIZE
from ..btree.search import child_slot, insertion_slot
from .jump_pointer import ExternalJumpPointerArray
from .optimizer import (
    CACHE_FIRST_NODE_HEADER_BYTES,
    PAGE_HEADER_BYTES,
    CacheFirstWidths,
    optimize_cache_first,
)

__all__ = ["CacheFirstFpTree", "CfNode", "CfPage"]

PAGE_NONLEAF = "nonleaf"
PAGE_OVERFLOW = "overflow"
PAGE_LEAF = "leaf"


class CfNode:
    """A uniform-width cache-optimized node."""

    __slots__ = (
        "is_leaf",
        "count",
        "keys",
        "tids",
        "children",
        "parent",
        "next_leaf",
        "next_parent",
        "in_page_level",
        "pid",
        "slot",
    )

    def __init__(self, is_leaf: bool, capacity: int, key_dtype: np.dtype) -> None:
        self.is_leaf = is_leaf
        self.count = 0
        self.keys = np.zeros(capacity, dtype=key_dtype)
        self.tids = np.zeros(capacity, dtype=np.uint32) if is_leaf else None
        self.children: Optional[list["CfNode"]] = None if is_leaf else []
        self.parent: Optional["CfNode"] = None
        self.next_leaf: Optional["CfNode"] = None  # leaf chain
        self.next_parent: Optional["CfNode"] = None  # leaf-parent chain
        self.in_page_level = 0
        self.pid = -1
        self.slot = -1

    @property
    def is_leaf_parent(self) -> bool:
        return not self.is_leaf and bool(self.children) and self.children[0].is_leaf


class CfPage:
    """A disk page holding up to ``slots`` cache-first nodes."""

    __slots__ = ("kind", "slots", "used", "next_page", "prev_page", "back_pointer")

    def __init__(self, kind: str, slot_count: int) -> None:
        self.kind = kind
        self.slots: list[Optional[CfNode]] = [None] * slot_count
        self.used = 0
        self.next_page = INVALID_PAGE_ID  # leaf page chain
        self.prev_page = INVALID_PAGE_ID
        self.back_pointer: Optional[CfNode] = None  # parent of first leaf node

    def free_slot(self) -> Optional[int]:
        for index, node in enumerate(self.slots):
            if node is None:
                return index
        return None

    def nodes(self) -> list[CfNode]:
        return [node for node in self.slots if node is not None]

    # -- a leaf page's entries ------------------------------------------------

    def first_leaf(self) -> Optional[CfNode]:
        """The first (leftmost) leaf node resident in a leaf page.

        The chain has no prev links, so the first node is the resident that
        no other resident's ``next_leaf`` points to.
        """
        residents = self.nodes()
        if not residents:
            return None
        pointed_to = {id(node.next_leaf) for node in residents if node.next_leaf is not None}
        for node in residents:
            if id(node) not in pointed_to:
                return node
        return residents[0]

    def leaves_in_order(self) -> list[CfNode]:
        """A leaf page's resident leaf nodes, in key order."""
        first = self.first_leaf()
        out = []
        node = first
        while node is not None and node.pid == first.pid:
            out.append(node)
            node = node.next_leaf
        return out

    def __len__(self) -> int:
        return sum(node.count for node in self.nodes())

    def first_key(self) -> Optional[int]:
        """Smallest key in a leaf page, or None if it holds no entries."""
        for node in self.leaves_in_order():
            if node.count:
                return int(node.keys[0])
        return None

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """A leaf page's entries as fresh flat sorted ``(keys, tids)`` arrays."""
        leaves = self.leaves_in_order()
        if not leaves:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
        keys = np.concatenate([node.keys[: node.count] for node in leaves])
        tids = np.concatenate([node.tids[: node.count] for node in leaves])
        return keys, tids


class CacheFirstFpTree(Index):
    """fpB+-Tree built cache-first: nodes first, page placement second."""

    name = "cache-first fpB+tree"

    def __init__(
        self,
        env: Optional[TreeEnvironment] = None,
        widths: Optional[CacheFirstWidths] = None,
        num_keys_hint: int = 10_000_000,
        **env_kwargs,
    ) -> None:
        self.env = env if env is not None else TreeEnvironment(**env_kwargs)
        mem = self.env.mem
        if widths is None:
            widths = optimize_cache_first(
                self.env.page_size,
                key_size=self.env.keyspec.size,
                num_keys=num_keys_hint,
                line_size=self.env.line_size,
                t1=mem.config.t1 if mem else 150,
                tnext=mem.config.tnext if mem else 10,
            )
        self.widths = widths
        self.store = self.env.store
        self.pool = self.env.pool
        self.tracer = self.env.tracer
        self.keyspec = self.env.keyspec
        self.node_bytes = widths.node_bytes
        self.nonleaf_capacity = widths.nonleaf_capacity
        self.leaf_capacity = widths.leaf_capacity
        self.slots_per_page = widths.nodes_per_page
        if self.slots_per_page < 2:
            raise ValueError("page too small for cache-first placement")
        # How many levels of a full subtree fit in one page (Section 3.2.1).
        self.full_levels = 1
        total = 1
        while total + self.widths.nonleaf_capacity ** self.full_levels <= self.slots_per_page:
            total += self.widths.nonleaf_capacity ** self.full_levels
            self.full_levels += 1

        self.height = 1
        self._entries = 0
        self.node_splits = 0
        self.leaf_page_splits = 0
        self.nonleaf_page_splits = 0
        self._current_pid: int = -1  # page the current operation is inside
        self._overflow_pids: list[int] = []
        self.jump_pointers = ExternalJumpPointerArray()

        root_page_pid = self.store.allocate(CfPage(PAGE_LEAF, self.slots_per_page))
        self.root = CfNode(True, self.leaf_capacity, self.keyspec.dtype)
        self._place_node(self.root, root_page_pid, 0)
        self.first_leaf = self.root
        self.jump_pointers.build([root_page_pid])

    # -- placement helpers ---------------------------------------------------------

    def _new_page(self, kind: str) -> int:
        return self.store.allocate(CfPage(kind, self.slots_per_page))

    def _place_node(self, node: CfNode, pid: int, slot: int) -> None:
        page = self.store.page(pid)
        if page.slots[slot] is not None:
            raise IndexCorruptionError(f"slot {slot} of page {pid} already occupied")
        page.slots[slot] = node
        page.used += 1
        node.pid = pid
        node.slot = slot

    def _unplace_node(self, node: CfNode) -> None:
        page = self.store.page(node.pid)
        page.slots[node.slot] = None
        page.used -= 1
        node.pid = -1
        node.slot = -1

    def _overflow_slot(self) -> tuple[int, int]:
        """A free slot in an overflow page, allocating a new page if needed."""
        for pid in self._overflow_pids:
            slot = self.store.page(pid).free_slot()
            if slot is not None:
                return pid, slot
        pid = self._new_page(PAGE_OVERFLOW)
        self._overflow_pids.append(pid)
        return pid, 0

    # -- simulated addresses ----------------------------------------------------------

    def _node_address(self, node: CfNode) -> int:
        base = self.pool.address_of(node.pid)
        return base + PAGE_HEADER_BYTES + node.slot * self.node_bytes

    def _key_address(self, node: CfNode, slot: int) -> int:
        return self._node_address(node) + CACHE_FIRST_NODE_HEADER_BYTES + slot * self.keyspec.size

    def _ptr_address(self, node: CfNode, slot: int) -> int:
        entry = TUPLE_ID_SIZE if node.is_leaf else 6
        capacity = self.leaf_capacity if node.is_leaf else self.nonleaf_capacity
        return (
            self._node_address(node)
            + CACHE_FIRST_NODE_HEADER_BYTES
            + capacity * self.keyspec.size
            + slot * entry
        )

    # -- traced node access -------------------------------------------------------------

    def _visit(self, node: CfNode) -> None:
        """Fetch a node, paying the buffer manager only on page crossings."""
        if node.pid != self._current_pid:
            self.pool.access(node.pid)
            self.tracer.read(self.pool.address_of(node.pid), 16)
            self._current_pid = node.pid
        self.tracer.prefetch(self._node_address(node), self.node_bytes)
        self.tracer.read(self._node_address(node), CACHE_FIRST_NODE_HEADER_BYTES)
        self.tracer.visit_node()

    def _begin_op(self) -> None:
        self._current_pid = -1
        self.tracer.call_overhead()

    def _descend(self, key: int, side: str = "right") -> CfNode:
        node = self.root
        self._visit(node)
        while not node.is_leaf:
            slot = child_slot(
                node.keys, node.count, key,
                self._key_address(node, 0), self.keyspec.size, self.tracer,
                side=side,
            )
            self.tracer.read(self._ptr_address(node, slot), 6)
            node = node.children[slot]
            self._visit(node)
        return node

    # -- public interface ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._entries

    @property
    def num_pages(self) -> int:
        return self.store.num_pages

    @property
    def root_pid(self) -> int:
        """The root node's page, as the other trees name their root."""
        return self.root.pid

    @property
    def first_leaf_pid(self) -> int:
        """Head of the leaf page chain: the page of the first leaf node."""
        return self.first_leaf.pid

    @property
    def page_splits(self) -> int:
        """Page splits at any level, as the other disk-resident trees count them."""
        return self.leaf_page_splits + self.nonleaf_page_splits

    def search(self, key: int) -> Optional[int]:
        self._begin_op()
        leaf = self._descend(key)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if slot < leaf.count and int(leaf.keys[slot]) == key:
            self.tracer.read(self._ptr_address(leaf, slot), TUPLE_ID_SIZE)
            return int(leaf.tids[slot])
        return None

    # -- bulkload -------------------------------------------------------------------------------

    def bulkload(self, keys: Sequence[int], tids: Sequence[int], fill: float = 1.0) -> None:
        checked = self._bulkload_input(keys, tids, fill)
        if checked is None:
            return
        keys, tids, fill = checked
        # Discard the empty bootstrap structure.
        self.store.free(self.root.pid)
        self.pool.invalidate(self.root.pid)
        self._overflow_pids.clear()

        # 1. Build the logical node tree, bottom-up.
        per_leaf = max(1, int(self.leaf_capacity * fill))
        per_nonleaf = max(2, int(self.nonleaf_capacity * fill))
        leaves: list[CfNode] = []
        firsts: list[int] = []
        start = 0
        previous: Optional[CfNode] = None
        for size in chunk_evenly(len(keys), per_leaf):
            node = CfNode(True, self.leaf_capacity, self.keyspec.dtype)
            node.keys[:size] = keys[start : start + size]
            node.tids[:size] = tids[start : start + size]
            node.count = size
            if previous is not None:
                previous.next_leaf = node
            leaves.append(node)
            firsts.append(int(keys[start]))
            previous = node
            start += size
        self.first_leaf = leaves[0]

        level_nodes = leaves
        level_firsts = firsts
        height = 1
        while len(level_nodes) > 1:
            parents: list[CfNode] = []
            parent_firsts: list[int] = []
            start = 0
            previous = None
            for size in chunk_evenly(len(level_nodes), per_nonleaf):
                parent = CfNode(False, self.nonleaf_capacity, self.keyspec.dtype)
                parent.keys[:size] = level_firsts[start : start + size]
                parent.children = list(level_nodes[start : start + size])
                parent.count = size
                for child in parent.children:
                    child.parent = parent
                if height == 1 and previous is not None:
                    previous.next_parent = parent  # leaf-parent sibling links
                parents.append(parent)
                parent_firsts.append(level_firsts[start])
                previous = parent
                start += size
            level_nodes, level_firsts = parents, parent_firsts
            height += 1
        self.root = level_nodes[0]
        self.height = height
        self._entries = int(keys.size)

        # 2. Place leaf nodes into leaf pages (consecutive siblings per page).
        leaf_pids: list[int] = []
        prev_pid = INVALID_PAGE_ID
        for chunk_start in range(0, len(leaves), self.slots_per_page):
            pid = self._new_page(PAGE_LEAF)
            page = self.store.page(pid)
            chunk = leaves[chunk_start : chunk_start + self.slots_per_page]
            for index, node in enumerate(chunk):
                self._place_node(node, pid, index)
            page.back_pointer = chunk[0].parent
            page.prev_page = prev_pid
            if prev_pid != INVALID_PAGE_ID:
                self.store.page(prev_pid).next_page = pid
            leaf_pids.append(pid)
            prev_pid = pid
        self.jump_pointers.build(leaf_pids)

        # 3. Place non-leaf nodes: aggressive parent-child grouping.
        if not self.root.is_leaf:
            self._place_top_node(self.root)

    def _place_top_node(self, node: CfNode) -> None:
        """Make ``node`` the top-level node of a fresh page and fill below it."""
        pid = self._new_page(PAGE_NONLEAF)
        node.in_page_level = 0
        self._place_node(node, pid, 0)
        self._place_children(node)

    def _place_children(self, node: CfNode) -> None:
        """Place ``node``'s children per the aggressive scheme (Section 3.2.1)."""
        if node.is_leaf_parent:
            return  # children are leaf nodes, already in leaf pages
        page = self.store.page(node.pid)
        child_level = node.in_page_level + 1
        children = node.children
        if child_level < self.full_levels:
            selected = set(range(len(children)))
        elif child_level == self.full_levels:
            # Spread the underflow slots evenly across the children (bitmap).
            free = self.slots_per_page - page.used
            pick = min(free, len(children))
            if pick > 0:
                selected = {(i * len(children)) // pick for i in range(pick)}
            else:
                selected = set()
        else:
            selected = set()
        for index, child in enumerate(children):
            if index in selected:
                slot = page.free_slot()
            else:
                slot = None
            if slot is not None:
                child.in_page_level = child_level
                self._place_node(child, node.pid, slot)
                self._place_children(child)
            elif child.is_leaf_parent:
                overflow_pid, overflow_slot = self._overflow_slot()
                child.in_page_level = 0
                self._place_node(child, overflow_pid, overflow_slot)
            else:
                self._place_top_node(child)

    # -- insertion -----------------------------------------------------------------------------------

    def insert(self, key: int, tid: int) -> None:
        check_key(key, self.keyspec)
        self._begin_op()
        leaf = self._descend(key)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if leaf.count < self.leaf_capacity:
            self._leaf_insert(leaf, slot, key, tid)
        else:
            self._split_leaf_and_insert(leaf, slot, key, tid)
        self._entries += 1

    def _leaf_insert(self, leaf: CfNode, slot: int, key: int, tid: int) -> None:
        moved = leaf.count - slot
        if moved > 0:
            leaf.keys[slot + 1 : leaf.count + 1] = leaf.keys[slot:leaf.count].copy()
            leaf.tids[slot + 1 : leaf.count + 1] = leaf.tids[slot:leaf.count].copy()
            self.tracer.move(
                self._key_address(leaf, slot + 1), self._key_address(leaf, slot),
                moved * self.keyspec.size,
            )
            self.tracer.move(
                self._ptr_address(leaf, slot + 1), self._ptr_address(leaf, slot),
                moved * TUPLE_ID_SIZE,
            )
        leaf.keys[slot] = key
        leaf.tids[slot] = tid
        leaf.count += 1
        self.tracer.write(self._key_address(leaf, slot), self.keyspec.size)
        self.tracer.write(self._ptr_address(leaf, slot), TUPLE_ID_SIZE)
        self.tracer.write(self._node_address(leaf), 4)

    def _nonleaf_insert(self, node: CfNode, slot: int, key: int, child: CfNode) -> None:
        moved = node.count - slot
        if moved > 0:
            node.keys[slot + 1 : node.count + 1] = node.keys[slot:node.count].copy()
            self.tracer.move(
                self._key_address(node, slot + 1), self._key_address(node, slot),
                moved * self.keyspec.size,
            )
            self.tracer.move(
                self._ptr_address(node, slot + 1), self._ptr_address(node, slot),
                moved * 6,
            )
        node.keys[slot] = key
        node.children.insert(slot, child)
        node.count += 1
        child.parent = node
        self.tracer.write(self._key_address(node, slot), self.keyspec.size)
        self.tracer.write(self._ptr_address(node, slot), 6)
        self.tracer.write(self._node_address(node), 4)

    def _split_leaf_and_insert(self, leaf: CfNode, slot: int, key: int, tid: int) -> None:
        """Split a full leaf node, inside its (possibly just split) leaf page."""
        self.node_splits += 1
        page = self.store.page(leaf.pid)
        if page.free_slot() is None:
            self._split_leaf_page(leaf.pid)
            page = self.store.page(leaf.pid)  # leaf may have moved
        new_slot = page.free_slot()
        assert new_slot is not None, "leaf page split must free slots"
        new_leaf = CfNode(True, self.leaf_capacity, self.keyspec.dtype)
        self._place_node(new_leaf, leaf.pid, new_slot)
        half = leaf.count // 2
        moved = leaf.count - half
        new_leaf.keys[:moved] = leaf.keys[half:leaf.count]
        new_leaf.tids[:moved] = leaf.tids[half:leaf.count]
        new_leaf.count = moved
        leaf.count = half
        self.tracer.move(
            self._key_address(new_leaf, 0), self._key_address(leaf, half),
            moved * self.keyspec.size,
        )
        self.tracer.move(
            self._ptr_address(new_leaf, 0), self._ptr_address(leaf, half),
            moved * TUPLE_ID_SIZE,
        )
        new_leaf.next_leaf = leaf.next_leaf
        leaf.next_leaf = new_leaf
        if slot <= half:
            self._leaf_insert(leaf, slot, key, tid)
        else:
            self._leaf_insert(new_leaf, slot - half, key, tid)
        self._insert_into_parent(leaf, int(new_leaf.keys[0]), new_leaf)

    def _insert_into_parent(self, left: CfNode, separator: int, new_node: CfNode) -> None:
        parent = left.parent
        if parent is None:
            self._grow_root(left, separator, new_node)
            return
        self._visit(parent)
        pslot = self._child_index(parent, left)
        if separator <= int(parent.keys[pslot]) and left.count:
            # Stale leftmost separator (or equal-key boundary): refresh so the
            # new entry sorts after the left child's.
            parent.keys[pslot] = left.keys[0]
            self.tracer.write(self._key_address(parent, pslot), self.keyspec.size)
        if parent.count < self.nonleaf_capacity:
            self._nonleaf_insert(parent, pslot + 1, separator, new_node)
            return
        self._split_nonleaf_and_insert(parent, pslot + 1, separator, new_node)

    def _child_index(self, parent: CfNode, child: CfNode) -> int:
        for index, candidate in enumerate(parent.children):
            if candidate is child:
                return index
        raise IndexCorruptionError("child not found in its recorded parent")

    def _grow_root(self, left: CfNode, separator: int, right: CfNode) -> None:
        new_root = CfNode(False, self.nonleaf_capacity, self.keyspec.dtype)
        left_min = int(left.keys[0]) if left.count else separator
        new_root.keys[0] = min(left_min, separator)
        new_root.keys[1] = separator
        new_root.children = [left, right]
        new_root.count = 2
        left.parent = new_root
        right.parent = new_root
        self._place_top_node_shallow(new_root)
        self.root = new_root
        self.height += 1
        if left.is_leaf:
            self.store.page(left.pid).back_pointer = new_root

    def _place_top_node_shallow(self, node: CfNode) -> None:
        """Place a single new node as top of a fresh page (no recursion)."""
        pid = self._new_page(PAGE_NONLEAF)
        node.in_page_level = 0
        self._place_node(node, pid, 0)
        self.tracer.move(self._node_address(node), self._node_address(node), self.node_bytes)

    def _split_nonleaf_and_insert(self, node: CfNode, slot: int, key: int, child: CfNode) -> None:
        """Split a full non-leaf node and insert the pending (key, child)."""
        new_node = self._split_nonleaf_node(node)
        half = node.count  # counts were already halved by the split
        if slot < half:
            self._nonleaf_insert(node, slot, key, child)
        elif slot == half:
            self._nonleaf_insert(new_node, 0, key, child)
        else:
            self._nonleaf_insert(new_node, slot - half, key, child)
        self._insert_into_parent(node, int(new_node.keys[0]), new_node)

    def _split_nonleaf_node(self, node: CfNode) -> CfNode:
        """Split a full non-leaf node in two, honoring the placement rules.

        The sibling is allocated (in priority order): in the node's own page;
        for leaf parents, in an overflow page; for a page's top node, as the
        top of a new page — the Figure 9(c) page split, which carries the
        moved children's co-located subtrees along; otherwise, after first
        splitting the page at its top node to make room, with "own new page"
        as the final fallback.  Entry redistribution and the leaf-parent
        sibling chain are handled here; the separator is NOT propagated —
        callers do that (with or without a pending insert).
        """
        self.node_splits += 1
        old_pid = node.pid
        new_node = CfNode(False, self.nonleaf_capacity, self.keyspec.dtype)
        page = self.store.page(node.pid)
        free = page.free_slot()
        page_split_mode = False
        if free is not None:
            new_node.in_page_level = node.in_page_level
            self._place_node(new_node, node.pid, free)
        elif node.is_leaf_parent:
            pid, overflow_slot = self._overflow_slot()
            new_node.in_page_level = 0
            self._place_node(new_node, pid, overflow_slot)
            self.pool.access(pid)  # the overflow page is touched
        elif self._top_of_page(node) is node:
            # Figure 9(c): the top node's split divides the page in two.
            self.nonleaf_page_splits += 1
            new_pid = self._new_page(PAGE_NONLEAF)
            new_node.in_page_level = 0
            self._place_node(new_node, new_pid, 0)
            page_split_mode = True
        else:
            # Make room by splitting the page at its top node, then retry.
            self._split_page_at_top(self._top_of_page(node))
            free = self.store.page(node.pid).free_slot()
            if free is not None:
                new_node.in_page_level = node.in_page_level
                self._place_node(new_node, node.pid, free)
            else:
                # Fallback: the overflowed sibling gets its own page.
                new_pid = self._new_page(PAGE_NONLEAF)
                new_node.in_page_level = 0
                self._place_node(new_node, new_pid, 0)
                page_split_mode = True

        half = node.count // 2
        moved = node.count - half
        new_node.keys[:moved] = node.keys[half:node.count]
        new_node.children = node.children[half:]
        node.children = node.children[:half]
        new_node.count = moved
        node.count = half
        for grandchild in new_node.children:
            grandchild.parent = new_node
        self.tracer.move(
            self._key_address(new_node, 0), self._key_address(node, half),
            moved * self.keyspec.size,
        )
        self.tracer.move(
            self._ptr_address(new_node, 0), self._ptr_address(node, half),
            moved * 6,
        )
        if node.is_leaf_parent:
            new_node.next_parent = node.next_parent
            node.next_parent = new_node
            self._fix_back_pointers(new_node)
        elif page_split_mode:
            # Carry the moved children's co-located subtrees to the new page.
            for grandchild in new_node.children:
                if not grandchild.is_leaf and grandchild.pid == old_pid:
                    self._move_subtree(grandchild, old_pid, new_node.pid)
        return new_node

    def _top_of_page(self, node: CfNode) -> CfNode:
        """The in-page-level-0 ancestor sharing ``node``'s page."""
        top = node
        while top.parent is not None and top.parent.pid == top.pid:
            top = top.parent
        return top

    def _split_page_at_top(self, top: CfNode) -> None:
        """Split a full page by splitting its top node (no pending insert)."""
        new_node = self._split_nonleaf_node(top)
        self._insert_into_parent(top, int(new_node.keys[0]), new_node)

    def _move_subtree(self, node: CfNode, from_pid: int, to_pid: int) -> None:
        """Move a node (and its co-located descendants) to another page."""
        new_page = self.store.page(to_pid)
        slot = new_page.free_slot()
        if slot is None:
            raise IndexCorruptionError("page split ran out of slots while moving subtrees")
        old_address = self._node_address(node)
        self._unplace_node(node)
        self._place_node(node, to_pid, slot)
        self.tracer.move(self._node_address(node), old_address, self.node_bytes)
        if node.is_leaf_parent:
            self._fix_back_pointers(node)
            return
        if node.is_leaf:
            return
        for child in node.children:
            if not child.is_leaf and child.pid == from_pid:
                self._move_subtree(child, from_pid, to_pid)

    def _fix_back_pointers(self, parent: CfNode) -> None:
        """Repair leaf-page back pointers after leaf-parent changes.

        A leaf page's back pointer names the parent of its first leaf node.
        Charges the paper's lookup: read the parent's child list.
        """
        self.tracer.read(self._ptr_address(parent, 0), parent.count * 6)
        for child in parent.children or []:
            page = self.store.page(child.pid)
            if page.first_leaf() is child:
                page.back_pointer = child.parent

    # -- leaf page split ------------------------------------------------------------------------------------

    def _split_leaf_page(self, pid: int) -> None:
        """Move the second half of a full leaf page's nodes to a new page."""
        self.leaf_page_splits += 1
        page = self.store.page(pid)
        ordered = page.leaves_in_order()
        half = len(ordered) // 2
        moving = ordered[half:]
        new_pid = self._new_page(PAGE_LEAF)
        new_page = self.store.page(new_pid)
        # Charge the paper's parent lookup: walk from the back pointer along
        # the leaf-parent sibling links, scanning child arrays.
        walker = page.back_pointer
        while walker is not None:
            self.tracer.read(self._node_address(walker), CACHE_FIRST_NODE_HEADER_BYTES)
            self.tracer.read(self._ptr_address(walker, 0), walker.count * 6)
            last_child = walker.children[walker.count - 1] if walker.count else None
            if last_child is None or (last_child.pid == pid and last_child is ordered[-1]):
                break
            if last_child.pid != pid:
                break
            walker = walker.next_parent
        for index, node in enumerate(moving):
            old_address = self._node_address(node)
            self._unplace_node(node)
            self._place_node(node, new_pid, index)
            self.tracer.move(self._node_address(node), old_address, self.node_bytes)
            # Parent's child pointer must be rewritten (6 bytes).
            if node.parent is not None:
                pslot = self._child_index(node.parent, node)
                self.tracer.write(self._ptr_address(node.parent, pslot), 6)
        new_page.back_pointer = moving[0].parent
        new_page.next_page = page.next_page
        new_page.prev_page = pid
        if page.next_page != INVALID_PAGE_ID:
            self.store.page(page.next_page).prev_page = new_pid
        page.next_page = new_pid
        self.jump_pointers.insert_after(pid, new_pid)

    # -- deletion ---------------------------------------------------------------------------------------------

    def delete(self, key: int) -> bool:
        self._begin_op()
        leaf = self._descend(key)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if slot >= leaf.count or int(leaf.keys[slot]) != key:
            return False
        moved = leaf.count - slot - 1
        if moved > 0:
            leaf.keys[slot : leaf.count - 1] = leaf.keys[slot + 1 : leaf.count].copy()
            leaf.tids[slot : leaf.count - 1] = leaf.tids[slot + 1 : leaf.count].copy()
            self.tracer.move(
                self._key_address(leaf, slot), self._key_address(leaf, slot + 1),
                moved * self.keyspec.size,
            )
            self.tracer.move(
                self._ptr_address(leaf, slot), self._ptr_address(leaf, slot + 1),
                moved * TUPLE_ID_SIZE,
            )
        leaf.count -= 1
        self.tracer.write(self._node_address(leaf), 4)
        self._entries -= 1
        return True

    # -- range scan ------------------------------------------------------------------------------------------------

    def range_scan(self, start_key: int, end_key: int) -> ScanResult:
        if end_key < start_key:
            return ScanResult(0, 0)
        self._begin_op()
        # Left-biased descent so duplicates spanning node/page boundaries
        # are scanned from their first occurrence.
        leaf = self._descend(start_key, side="left")
        count = 0
        tid_sum = 0
        prefetched_pid = -1
        node: Optional[CfNode] = leaf
        while node is not None:
            if node.pid != prefetched_pid:
                # New leaf page: prefetch all its resident leaf nodes using
                # the in-page space-management structure (Section 3.3).
                if node.pid != self._current_pid:
                    self.pool.access(node.pid)
                    self._current_pid = node.pid
                page = self.store.page(node.pid)
                for resident in page.nodes():
                    self.tracer.prefetch(self._node_address(resident), self.node_bytes)
                prefetched_pid = node.pid
            lo = int(np.searchsorted(node.keys[: node.count], start_key, side="left"))
            hi = int(np.searchsorted(node.keys[: node.count], end_key, side="right"))
            taken = hi - lo
            if taken > 0:
                self.tracer.scan(self._key_address(node, lo), taken * self.keyspec.size)
                self.tracer.scan(self._ptr_address(node, lo), taken * TUPLE_ID_SIZE)
                count += taken
                tid_sum += int(node.tids[lo:hi].sum(dtype=np.uint64))
            if hi < node.count:
                break
            node = node.next_leaf
        return ScanResult(count, tid_sum)

    def range_scan_reverse(self, start_key: int, end_key: int) -> ScanResult:
        """Scan [start_key, end_key] walking leaf pages right-to-left.

        Leaf nodes carry only forward links, but leaf *pages* are chained
        both ways and each page's nodes are consecutive siblings, so a
        reverse scan walks pages backwards and nodes in reverse within
        each page.
        """
        if end_key < start_key:
            return ScanResult(0, 0)
        self._begin_op()
        leaf = self._descend(end_key)
        pid = leaf.pid
        count = 0
        tid_sum = 0
        while True:
            if pid != self._current_pid:
                self.pool.access(pid)
                self._current_pid = pid
            page = self.store.page(pid)
            for resident in page.nodes():
                self.tracer.prefetch(self._node_address(resident), self.node_bytes)
            done = False
            for node in reversed(page.leaves_in_order()):
                if node.count == 0:
                    continue
                lo = int(np.searchsorted(node.keys[: node.count], start_key, side="left"))
                hi = int(np.searchsorted(node.keys[: node.count], end_key, side="right"))
                taken = hi - lo
                if taken > 0:
                    self.tracer.scan(self._key_address(node, lo), taken * self.keyspec.size)
                    self.tracer.scan(self._ptr_address(node, lo), taken * TUPLE_ID_SIZE)
                    count += taken
                    tid_sum += int(node.tids[lo:hi].sum(dtype=np.uint64))
                if lo > 0:
                    done = True
            page = self.store.page(pid)
            if done or page.prev_page == INVALID_PAGE_ID:
                break
            pid = page.prev_page
        return ScanResult(count, tid_sum)

    # -- introspection -----------------------------------------------------------------------------------------------

    def page_path(self, key: int) -> list[int]:
        """Page ids visited by a search (untraced; for I/O experiments).

        Consecutive nodes on the same page cost one page visit — the
        cache-first search's page-id comparison trick (Section 3.2.2).
        """
        path: list[int] = []
        node = self.root
        while True:
            if not path or path[-1] != node.pid:
                path.append(node.pid)
            if node.is_leaf:
                return path
            slot = max(int(np.searchsorted(node.keys[: node.count], key, side="right")) - 1, 0)
            node = node.children[slot]

    def overflow_page_count(self) -> int:
        return len(self._overflow_pids)

    # -- structural-walk hooks (:meth:`Index.validate`) ------------------------------------------------

    def _walk_root(self) -> CfNode:
        return self.root

    def _node_label(self, node: CfNode) -> str:
        return f"node at page {node.pid} slot {node.slot}"

    def _node_entries(
        self, node: CfNode, level: int
    ) -> tuple[list[int], Optional[list[CfNode]]]:
        label = self._node_label(node)
        if node.pid not in self.store or self.store.page(node.pid).slots[node.slot] is not node:
            raise IndexCorruptionError(f"node location mismatch: {label}")
        capacity = self.leaf_capacity if node.is_leaf else self.nonleaf_capacity
        if node.count > capacity:
            raise IndexCorruptionError(f"{label} overfull")
        if not node.is_leaf:
            if len(node.children) != node.count:
                raise IndexCorruptionError(f"{label} child list length mismatch")
            if any(child.parent is not node for child in node.children):
                raise IndexCorruptionError(f"{label}: a child's parent pointer is wrong")
        return node.keys[: node.count].tolist(), node.children

    def _leaf_chain(self) -> Iterator[CfNode]:
        node = self.first_leaf
        while node is not None:
            yield node
            node = node.next_leaf

    def _check_tree(self, leaves: list[CfNode]) -> None:
        # Slot tables agree with their residents; pages are typed by them.
        for pid in list(self.store.page_ids()):
            page = self.store.page(pid)
            if not isinstance(page, CfPage):
                raise IndexCorruptionError(f"foreign page {pid} in store")
            used = 0
            for slot, node in enumerate(page.slots):
                if node is None:
                    continue
                used += 1
                if node.pid != pid or node.slot != slot:
                    raise IndexCorruptionError(f"node location mismatch at page {pid} slot {slot}")
                if page.kind == PAGE_LEAF and not node.is_leaf:
                    raise IndexCorruptionError(f"non-leaf node in leaf page {pid}")
                if page.kind != PAGE_LEAF and node.is_leaf:
                    raise IndexCorruptionError(f"leaf node in non-leaf page {pid}")
            if used != page.used:
                raise IndexCorruptionError(f"page {pid} used-count mismatch")

        # A leaf page holds consecutive siblings.
        seen_pids: set[int] = set()
        previous_pid = -1
        for leaf in leaves:
            if leaf.pid != previous_pid:
                if leaf.pid in seen_pids:
                    raise IndexCorruptionError("leaf page nodes are not contiguous siblings")
                seen_pids.add(leaf.pid)
                previous_pid = leaf.pid

        # Back pointers and the external jump-pointer array.
        leaf_pids = self.leaf_page_ids()
        for pid in leaf_pids:
            page = self.store.page(pid)
            first = page.first_leaf()
            if first is not None and first.parent is not None:
                if page.back_pointer is not first.parent:
                    raise IndexCorruptionError(f"leaf page {pid} back pointer wrong")
        if self.jump_pointers.to_list() != leaf_pids:
            raise IndexCorruptionError("external jump-pointer array out of sync")

        # The leaf-parent sibling chain links every leaf parent in order.
        if self.height >= 2:
            parents = list(dict.fromkeys(leaf.parent for leaf in leaves))
            chained: list[CfNode] = []
            node = parents[0]
            while node is not None and len(chained) <= len(parents):
                chained.append(node)
                node = node.next_parent
            if chained != parents:
                raise IndexCorruptionError("leaf-parent sibling chain broken")
