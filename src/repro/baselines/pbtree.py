"""Prefetching B+-Tree (pB+-Tree) — Chen, Gibbons & Mowry, SIGMOD 2001.

The cache-optimized, *memory-resident* index the fpB+-Tree's in-page trees
are modeled after, and the comparison point in the paper's Figure 3(b).
Nodes span several cache lines (the width is tuned analytically; 8 lines =
512 bytes for the default parameters) and every node is prefetched in full
before it is searched, so fetching a w-line node costs T1 + (w-1)*Tnext
instead of w*T1.

Being memory-resident, it allocates nodes from a flat simulated address
space rather than disk pages — which is exactly why its *disk* behaviour is
poor: consecutive leaves land on arbitrary pages.  ``num_pages`` reports the
number of page-sized regions its nodes span so that contrast is measurable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..btree.base import Index, IndexCorruptionError, ScanResult, check_key, chunk_evenly
from ..btree.keys import KEY4, KeySpec, TUPLE_ID_SIZE
from ..btree.search import child_slot, insertion_slot
from ..btree.trace import Tracer
from ..core.optimizer import optimal_pbtree_width
from ..mem.hierarchy import MemorySystem
from ..mem.layout import AddressSpace

__all__ = ["PrefetchingBPlusTree", "PBTreeNode"]

NODE_HEADER_BYTES = 8


class PBTreeNode:
    """A multi-line tree node in simulated main memory."""

    __slots__ = ("is_leaf", "count", "keys", "ptrs", "children", "address", "next_leaf")

    def __init__(self, is_leaf: bool, capacity: int, key_dtype: np.dtype, address: int) -> None:
        self.is_leaf = is_leaf
        self.count = 0
        self.keys = np.zeros(capacity, dtype=key_dtype)
        self.ptrs = np.zeros(capacity, dtype=np.uint32)  # tuple ids (leaf only)
        self.children: list["PBTreeNode"] = [] if not is_leaf else None
        self.address = address
        self.next_leaf: Optional["PBTreeNode"] = None


class PrefetchingBPlusTree(Index):
    """Cache-optimized B+-Tree with node-granularity prefetching."""

    name = "pB+tree"

    def __init__(
        self,
        mem: Optional[MemorySystem] = None,
        keyspec: KeySpec = KEY4,
        width_lines: Optional[int] = None,
        line_size: Optional[int] = None,
        address_space: Optional[AddressSpace] = None,
        page_size: int = 16 * 1024,
    ) -> None:
        self.mem = mem
        self.tracer = Tracer(mem)
        self.keyspec = keyspec
        line = line_size if line_size is not None else (mem.config.line_size if mem else 64)
        self.line_size = line
        if width_lines is None:
            t1 = mem.config.t1 if mem else 150
            tnext = mem.config.tnext if mem else 10
            width_lines = optimal_pbtree_width(
                key_size=keyspec.size, line_size=line, t1=t1, tnext=tnext
            )
        self.node_bytes = width_lines * line
        self.capacity = (self.node_bytes - NODE_HEADER_BYTES) // (keyspec.size + TUPLE_ID_SIZE)
        if self.capacity < 2:
            raise ValueError("node width too small for two entries")
        self._space = address_space if address_space is not None else AddressSpace()
        self._page_size = page_size
        self.root = self._new_node(is_leaf=True)
        self.height = 1
        self.first_leaf = self.root
        self._entries = 0
        self._nodes = 1
        self.node_splits = 0

    # -- node management ------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> PBTreeNode:
        address = self._space.alloc(self.node_bytes, alignment=self.line_size)
        return PBTreeNode(is_leaf, self.capacity, self.keyspec.dtype, address)

    def _key_address(self, node: PBTreeNode, slot: int) -> int:
        return node.address + NODE_HEADER_BYTES + slot * self.keyspec.size

    def _ptr_address(self, node: PBTreeNode, slot: int) -> int:
        return (
            node.address
            + NODE_HEADER_BYTES
            + self.capacity * self.keyspec.size
            + slot * TUPLE_ID_SIZE
        )

    def _fetch_node(self, node: PBTreeNode) -> None:
        """Prefetch all the node's lines, then touch its header."""
        self.tracer.prefetch(node.address, self.node_bytes)
        self.tracer.read(node.address, NODE_HEADER_BYTES)
        self.tracer.visit_node()

    # -- Index interface ---------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._entries

    @property
    def num_nodes(self) -> int:
        return self._nodes

    @property
    def num_pages(self) -> int:
        """Page-sized regions spanned by the node pool (poor disk locality)."""
        used = self._nodes * self.node_bytes
        return -(-used // self._page_size)

    def bulkload(self, keys: Sequence[int], tids: Sequence[int], fill: float = 1.0) -> None:
        checked = self._bulkload_input(keys, tids, fill)
        if checked is None:
            return
        keys, tids, fill = checked
        self._nodes = 0
        per_node = max(2, int(self.capacity * fill))

        nodes: list[PBTreeNode] = []
        firsts: list[int] = []
        start = 0
        previous: Optional[PBTreeNode] = None
        for size in chunk_evenly(len(keys), per_node):
            node = self._new_node(is_leaf=True)
            node.keys[:size] = keys[start : start + size]
            node.ptrs[:size] = tids[start : start + size]
            node.count = size
            if previous is not None:
                previous.next_leaf = node
            nodes.append(node)
            firsts.append(int(keys[start]))
            previous = node
            start += size
        self.first_leaf = nodes[0]
        self._nodes = len(nodes)

        height = 1
        while len(nodes) > 1:
            parents: list[PBTreeNode] = []
            parent_firsts: list[int] = []
            start = 0
            for size in chunk_evenly(len(nodes), per_node):
                parent = self._new_node(is_leaf=False)
                parent.keys[:size] = parent_firsts_chunk = firsts[start : start + size]
                parent.children = list(nodes[start : start + size])
                parent.count = size
                parents.append(parent)
                parent_firsts.append(parent_firsts_chunk[0])
                start += size
            self._nodes += len(parents)
            nodes, firsts = parents, parent_firsts
            height += 1
        self.root = nodes[0]
        self.height = height
        self._entries = int(keys.size)

    def _descend(self, key: int, record_path: bool = False, side: str = "right"):
        path: list[tuple[PBTreeNode, int]] = []
        node = self.root
        self._fetch_node(node)
        while not node.is_leaf:
            slot = child_slot(
                node.keys, node.count, key,
                self._key_address(node, 0), self.keyspec.size, self.tracer,
                side=side,
            )
            self.tracer.read(self._ptr_address(node, slot), 8)  # child pointer
            if record_path:
                path.append((node, slot))
            node = node.children[slot]
            self._fetch_node(node)
        return node, path

    def search(self, key: int) -> Optional[int]:
        self.tracer.call_overhead()
        leaf, __ = self._descend(key)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if slot < leaf.count and int(leaf.keys[slot]) == key:
            self.tracer.read(self._ptr_address(leaf, slot), TUPLE_ID_SIZE)
            return int(leaf.ptrs[slot])
        return None

    # -- updates -----------------------------------------------------------------

    def insert(self, key: int, tid: int) -> None:
        check_key(key, self.keyspec)
        self.tracer.call_overhead()
        leaf, path = self._descend(key, record_path=True)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if leaf.count < self.capacity:
            self._insert_into_node(leaf, slot, key, tid)
        else:
            self._split_and_insert(leaf, path, slot, key, tid)
        self._entries += 1

    def _insert_into_node(self, node: PBTreeNode, slot: int, key: int, value) -> None:
        moved = node.count - slot
        if moved > 0:
            node.keys[slot + 1 : node.count + 1] = node.keys[slot:node.count].copy()
            self.tracer.move(
                self._key_address(node, slot + 1),
                self._key_address(node, slot),
                moved * self.keyspec.size,
            )
            if node.is_leaf:
                node.ptrs[slot + 1 : node.count + 1] = node.ptrs[slot:node.count].copy()
                self.tracer.move(
                    self._ptr_address(node, slot + 1),
                    self._ptr_address(node, slot),
                    moved * TUPLE_ID_SIZE,
                )
        if node.is_leaf:
            node.keys[slot] = key
            node.ptrs[slot] = value
        else:
            node.keys[slot] = key
            node.children.insert(slot, value)
            self.tracer.move(
                self._ptr_address(node, slot + 1),
                self._ptr_address(node, slot),
                moved * 8,
            )
        node.count += 1
        self.tracer.write(self._key_address(node, slot), self.keyspec.size)
        self.tracer.write(self._ptr_address(node, slot), TUPLE_ID_SIZE)

    def _split_and_insert(self, node: PBTreeNode, path, slot: int, key: int, value) -> None:
        self.node_splits += 1
        self._nodes += 1
        new_node = self._new_node(node.is_leaf)
        half = node.count // 2
        moved = node.count - half
        new_node.keys[:moved] = node.keys[half:node.count]
        if node.is_leaf:
            new_node.ptrs[:moved] = node.ptrs[half:node.count]
            new_node.next_leaf = node.next_leaf
            node.next_leaf = new_node
        else:
            new_node.children = node.children[half:]
            node.children = node.children[:half]
        new_node.count = moved
        node.count = half
        self.tracer.move(
            self._key_address(new_node, 0), self._key_address(node, half),
            moved * self.keyspec.size,
        )
        self.tracer.move(
            self._ptr_address(new_node, 0), self._ptr_address(node, half),
            moved * TUPLE_ID_SIZE,
        )
        if slot <= half and not (slot == half and not node.is_leaf):
            self._insert_into_node(node, slot, key, value)
        else:
            self._insert_into_node(new_node, slot - half, key, value)
        separator = int(new_node.keys[0])
        self._insert_into_parent(path, node, separator, new_node)

    def _insert_into_parent(self, path, left: PBTreeNode, key: int, right: PBTreeNode) -> None:
        if not path:
            new_root = self._new_node(is_leaf=False)
            self._nodes += 1
            new_root.keys[0] = min(int(left.keys[0]) if left.count else key, key)
            new_root.keys[1] = key
            new_root.children = [left, right]
            new_root.count = 2
            self.root = new_root
            self.height += 1
            self.tracer.write(self._key_address(new_root, 0), 2 * self.keyspec.size)
            return
        parent, parent_slot = path[-1]
        if key < int(parent.keys[parent_slot]):
            parent.keys[parent_slot] = left.keys[0]
            self.tracer.write(self._key_address(parent, parent_slot), self.keyspec.size)
        slot = parent_slot + 1
        if parent.count < self.capacity:
            self._insert_into_node(parent, slot, key, right)
        else:
            self._split_and_insert(parent, path[:-1], slot, key, right)

    def delete(self, key: int) -> bool:
        self.tracer.call_overhead()
        leaf, __ = self._descend(key)
        slot = insertion_slot(
            leaf.keys, leaf.count, key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        if slot >= leaf.count or int(leaf.keys[slot]) != key:
            return False
        moved = leaf.count - slot - 1
        if moved > 0:
            leaf.keys[slot : leaf.count - 1] = leaf.keys[slot + 1 : leaf.count].copy()
            leaf.ptrs[slot : leaf.count - 1] = leaf.ptrs[slot + 1 : leaf.count].copy()
            self.tracer.move(
                self._key_address(leaf, slot), self._key_address(leaf, slot + 1),
                moved * self.keyspec.size,
            )
            self.tracer.move(
                self._ptr_address(leaf, slot), self._ptr_address(leaf, slot + 1),
                moved * TUPLE_ID_SIZE,
            )
        leaf.count -= 1
        self._entries -= 1
        return True

    # -- scans ------------------------------------------------------------------------

    def range_scan(self, start_key: int, end_key: int) -> ScanResult:
        if end_key < start_key:
            return ScanResult(0, 0)
        self.tracer.call_overhead()
        # Left-biased: duplicates spanning leaves must be scanned from the
        # first occurrence.
        leaf, __ = self._descend(start_key, side="left")
        slot = insertion_slot(
            leaf.keys, leaf.count, start_key,
            self._key_address(leaf, 0), self.keyspec.size, self.tracer,
        )
        count = 0
        tid_sum = 0
        while True:
            if leaf.next_leaf is not None:
                # Overlap the next leaf's fetch with processing this one.
                self.tracer.prefetch(leaf.next_leaf.address, self.node_bytes)
            hi = int(np.searchsorted(leaf.keys[: leaf.count], end_key, side="right"))
            taken = hi - slot
            if taken > 0:
                self.tracer.scan(self._key_address(leaf, slot), taken * self.keyspec.size)
                self.tracer.scan(self._ptr_address(leaf, slot), taken * TUPLE_ID_SIZE)
                count += taken
                tid_sum += int(leaf.ptrs[slot:hi].sum(dtype=np.uint64))
            if hi < leaf.count or leaf.next_leaf is None:
                break
            leaf = leaf.next_leaf
            self.tracer.read(leaf.address, NODE_HEADER_BYTES)
            slot = 0
        return ScanResult(count, tid_sum)

    # -- introspection ----------------------------------------------------------------

    def _leaf_chain(self) -> Iterator[PBTreeNode]:
        """Leaf nodes in ``next_leaf`` order."""
        node = self.first_leaf
        while node is not None:
            yield node
            node = node.next_leaf

    def leaf_page_ids(self) -> list[int]:
        """Memory-resident tree: report distinct page regions of the leaves.

        Demonstrates the leaf-page scatter that makes cache-optimized trees
        disk-hostile (Section 1): consecutive leaves rarely share a page.
        """
        return [node.address // self._page_size for node in self._leaf_chain()]

    def items(self) -> Iterable[tuple[int, int]]:
        for node in self._leaf_chain():
            yield from zip(node.keys[: node.count].tolist(), node.ptrs[: node.count].tolist())

    # -- structural-walk hooks (:meth:`Index.validate`) ----------------------------

    def _walk_root(self) -> PBTreeNode:
        return self.root

    def _node_label(self, node: PBTreeNode) -> str:
        return f"node at {node.address:#x}"

    def _node_entries(
        self, node: PBTreeNode, level: int
    ) -> tuple[list[int], Optional[list[PBTreeNode]]]:
        if node.count > self.capacity:
            raise IndexCorruptionError(f"{self._node_label(node)} overfull")
        if not node.is_leaf and len(node.children) != node.count:
            raise IndexCorruptionError(f"{self._node_label(node)} child count mismatch")
        return node.keys[: node.count].tolist(), node.children
