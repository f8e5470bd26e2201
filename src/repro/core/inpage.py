"""In-page node machinery for disk-first fpB+-Trees (paper Section 3.1).

A disk-first fpB+-Tree page is carved into cache-line-granularity slots
holding small, cache-optimized nodes:

* **in-page non-leaf nodes** route within the page using 2-byte line-offset
  pointers (packing more separators per cache line than full pointers would);
* **in-page leaf nodes** hold the page's actual entries — child page ids if
  the page is an interior page of the overall tree, tuple ids if it is a
  leaf page.

Nodes are aligned on cache-line boundaries; a per-page :class:`LineAllocator`
tracks which lines are in use.  Top-level nodes are placed at a line offset
derived from the page id so that the roots of different pages do not map to
the same cache sets (paper Section 4.1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..btree.keys import INPAGE_OFFSET_SIZE, INVALID_PAGE_ID, KeySpec, PAGE_ID_SIZE
from .optimizer import DiskFirstWidths, INPAGE_NODE_HEADER_BYTES, optimize_disk_first

__all__ = ["LineAllocator", "InPageNode", "FpPage", "DiskFirstLayout", "NONLEAF", "LEAF"]

NONLEAF = 0
LEAF = 1


class LineAllocator:
    """Allocates contiguous cache-line slots within one page."""

    def __init__(self, total_lines: int, reserved_lines: int = 1) -> None:
        if reserved_lines >= total_lines:
            raise ValueError("no allocatable lines")
        self.total_lines = total_lines
        self.reserved_lines = reserved_lines
        self._used = bytearray(total_lines)
        self._used[:reserved_lines] = b"\x01" * reserved_lines

    @property
    def free_lines(self) -> int:
        return self._used.count(0)

    def is_used(self, line: int) -> bool:
        return bool(self._used[line])

    def alloc(self, width: int, hint: int = 0) -> Optional[int]:
        """Find ``width`` contiguous free lines, searching from ``hint``.

        First fit from ``hint`` to the end of the page, then wrapping around
        from the first non-reserved line.  Returns the starting line, or
        None if no run is available.
        """
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        used = self._used
        start = max(self.reserved_lines, hint)
        run = bytes(width)
        line = used.find(run, start)
        if line < 0:
            # Wrapped candidates start below ``start``, so each run fits in
            # ``[reserved_lines, start + width - 1)``.
            line = used.find(run, self.reserved_lines, start + width - 1)
            if line < 0:
                return None
        used[line : line + width] = b"\x01" * width
        return line

    def free(self, line: int, width: int) -> None:
        if line < self.reserved_lines or line + width > self.total_lines:
            raise ValueError(f"freeing lines [{line}, {line + width}) out of range")
        used = self._used
        already = used.find(0, line, line + width)
        if already >= 0:
            raise ValueError(f"line {already} already free")
        used[line : line + width] = bytes(width)

    def clear(self) -> None:
        """Free everything except the reserved header lines."""
        self._used[self.reserved_lines :] = bytes(self.total_lines - self.reserved_lines)


class InPageNode:
    """One cache-optimized node inside a page."""

    __slots__ = ("kind", "count", "keys", "ptrs", "line", "width", "capacity")

    def __init__(self, kind: int, capacity: int, key_dtype: np.dtype, line: int, width: int) -> None:
        self.kind = kind
        self.count = 0
        self.keys = np.zeros(capacity, dtype=key_dtype)
        # Offsets (non-leaf, conceptually 2 bytes) or page/tuple ids (leaf).
        self.ptrs = np.zeros(capacity, dtype=np.uint32)
        self.line = line
        self.width = width
        self.capacity = capacity


class FpPage:
    """A disk-first fpB+-Tree page: an allocator plus its in-page nodes."""

    __slots__ = ("level", "total", "root_line", "nodes", "alloc", "next_page", "prev_page")

    def __init__(self, level: int, total_lines: int) -> None:
        self.level = level  # 0 = leaf page of the overall tree
        self.total = 0  # entries stored in this page
        self.root_line = -1
        self.nodes: dict[int, InPageNode] = {}
        self.alloc = LineAllocator(total_lines)
        self.next_page = INVALID_PAGE_ID
        self.prev_page = INVALID_PAGE_ID

    @property
    def root(self) -> InPageNode:
        return self.nodes[self.root_line]

    def leaf_nodes_in_order(self) -> list[InPageNode]:
        """In-page leaf nodes in key order (via tree traversal)."""
        if self.root_line < 0:
            return []
        out: list[InPageNode] = []

        def visit(line: int) -> None:
            node = self.nodes[line]
            if node.kind == LEAF:
                out.append(node)
            else:
                for i in range(node.count):
                    visit(int(node.ptrs[i]))

        visit(self.root_line)
        return out

    def __len__(self) -> int:
        return self.total

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The page's entries as one flat sorted ``(keys, ptrs)`` pair.

        The in-page leaf nodes concatenated in key order: child page ids
        (interior pages) or tuple ids (leaf pages) beside their keys.  Both
        arrays are fresh copies, so later in-place node edits cannot reach
        them.  O(entries): the serving tree caches it per page
        (:meth:`DiskFirstFpTree.page_entries`).
        """
        nodes = self.leaf_nodes_in_order()
        if not nodes:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
        keys = np.concatenate([node.keys[: node.count] for node in nodes])
        ptrs = np.concatenate([node.ptrs[: node.count] for node in nodes])
        return keys, ptrs

    def first_key(self) -> Optional[int]:
        """Smallest key in the page, or None if it holds no entries.

        Follows the leftmost in-page path (one node per in-page level); only
        when that leaf node is empty — deletes are lazy — does it fall back
        to the in-order walk for the first non-empty leaf node.
        """
        if self.root_line < 0:
            return None
        node = self.nodes[self.root_line]
        while node.kind == NONLEAF:
            node = self.nodes[int(node.ptrs[0])]
        if node.count:
            return int(node.keys[0])
        for node in self.leaf_nodes_in_order():
            if node.count:
                return int(node.keys[0])
        return None


class DiskFirstLayout:
    """Geometry and simulated-address arithmetic for disk-first pages."""

    def __init__(
        self,
        page_size: int,
        keyspec: KeySpec,
        line_size: int = 64,
        widths: Optional[DiskFirstWidths] = None,
        t1: int = 150,
        tnext: int = 10,
    ) -> None:
        self.page_size = page_size
        self.keyspec = keyspec
        self.line_size = line_size
        if widths is None:
            widths = optimize_disk_first(
                page_size, key_size=keyspec.size, line_size=line_size, t1=t1, tnext=tnext
            )
        self.widths = widths
        self.total_lines = page_size // line_size
        self.nonleaf_width = widths.nonleaf_bytes // line_size
        self.leaf_width = widths.leaf_bytes // line_size
        self.nonleaf_capacity = widths.nonleaf_capacity
        self.leaf_capacity = widths.leaf_capacity
        self.page_fanout = widths.page_fanout
        self.max_leaf_nodes = widths.leaf_nodes
        # Root-placement stagger: vary the top node's position across pages
        # so page roots do not all conflict in the cache (Section 4.1).
        self._root_stagger = max(1, (self.total_lines - 1) // 8)

    # -- node construction --------------------------------------------------

    def new_node(self, page: FpPage, kind: int, hint: int = 0) -> Optional[InPageNode]:
        """Allocate a node of the right width inside ``page``; None if full."""
        width = self.leaf_width if kind == LEAF else self.nonleaf_width
        capacity = self.leaf_capacity if kind == LEAF else self.nonleaf_capacity
        line = page.alloc.alloc(width, hint)
        if line is None:
            return None
        node = InPageNode(kind, capacity, self.keyspec.dtype, line, width)
        page.nodes[line] = node
        return node

    def root_hint(self, page_id: int) -> int:
        """Preferred starting line for a page's top-level node."""
        return 1 + (page_id % 8) * self._root_stagger

    def free_node(self, page: FpPage, node: InPageNode) -> None:
        page.alloc.free(node.line, node.width)
        del page.nodes[node.line]

    def lines_needed(self, kind: int) -> int:
        return self.leaf_width if kind == LEAF else self.nonleaf_width

    # -- simulated addresses ----------------------------------------------------

    def node_address(self, page_base: int, node: InPageNode) -> int:
        return page_base + node.line * self.line_size

    def node_bytes(self, node: InPageNode) -> int:
        return node.width * self.line_size

    def key_address(self, page_base: int, node: InPageNode, slot: int) -> int:
        return self.node_address(page_base, node) + INPAGE_NODE_HEADER_BYTES + slot * self.keyspec.size

    def ptr_address(self, page_base: int, node: InPageNode, slot: int) -> int:
        ptr_size = PAGE_ID_SIZE if node.kind == LEAF else INPAGE_OFFSET_SIZE
        return (
            self.node_address(page_base, node)
            + INPAGE_NODE_HEADER_BYTES
            + node.capacity * self.keyspec.size
            + slot * ptr_size
        )

    def ptr_size(self, node: InPageNode) -> int:
        return PAGE_ID_SIZE if node.kind == LEAF else INPAGE_OFFSET_SIZE
