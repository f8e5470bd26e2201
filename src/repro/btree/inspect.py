"""Index introspection: occupancy and layout statistics.

``inspect_tree`` walks any of the four disk-resident structures and reports
what a DBA would ask of a real index: page counts per level, leaf fill
factors, storage efficiency, and — for fpB+-Trees — how well the
cache-granularity machinery is utilized (in-page nodes, line slots,
overflow pages).  Used by the examples and handy when debugging space
results like the paper's Figure 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .base import Index

__all__ = ["TreeReport", "inspect_tree"]


@dataclass
class TreeReport:
    """Occupancy summary of one index."""

    kind: str
    num_entries: int
    num_pages: int
    height: int
    page_size: int
    leaf_pages: int
    avg_leaf_fill: float  # fraction of leaf entry slots used
    min_leaf_fill: float
    max_leaf_fill: float
    bytes_per_entry: float  # total index bytes / entries
    # fpB+-Tree specifics (zero/None for sorted-array pages).
    inpage_nodes: int = 0
    avg_node_fill: float = 0.0
    line_utilization: Optional[float] = None  # disk-first: used lines / lines
    overflow_pages: int = 0
    notes: list = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"{self.kind}: {self.num_entries:,} entries in {self.num_pages} pages "
            f"({self.page_size // 1024}KB), height {self.height}",
            f"  leaf pages {self.leaf_pages}, fill avg {self.avg_leaf_fill:.0%} "
            f"(min {self.min_leaf_fill:.0%}, max {self.max_leaf_fill:.0%})",
            f"  {self.bytes_per_entry:.1f} bytes/entry",
        ]
        if self.inpage_nodes:
            lines.append(
                f"  {self.inpage_nodes} cache-optimized nodes, node fill {self.avg_node_fill:.0%}"
            )
        if self.line_utilization is not None:
            lines.append(f"  line-slot utilization {self.line_utilization:.0%}")
        if self.overflow_pages:
            lines.append(f"  {self.overflow_pages} overflow pages (leaf parents)")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def inspect_tree(tree: Index) -> TreeReport:
    """Produce a :class:`TreeReport` for any supported index."""
    leaf_capacity, extras = _kind_specifics(tree)
    leaf_pids = tree.leaf_page_ids()
    fills = [len(tree.store.page(pid)) / leaf_capacity for pid in leaf_pids]
    avg, low, high = _fill_stats(fills)
    return TreeReport(
        kind=tree.name,
        num_entries=tree.num_entries,
        num_pages=tree.num_pages,
        height=tree.height,
        page_size=tree.env.page_size,
        leaf_pages=len(leaf_pids),
        avg_leaf_fill=avg,
        min_leaf_fill=low,
        max_leaf_fill=high,
        bytes_per_entry=tree.num_pages * tree.env.page_size / max(1, tree.num_entries),
        **extras,
    )


def _fill_stats(fills: list[float]) -> tuple[float, float, float]:
    if not fills:
        return 0.0, 0.0, 0.0
    return float(np.mean(fills)), float(min(fills)), float(max(fills))


def _kind_specifics(tree: Index) -> tuple[int, dict]:
    """A leaf page's entry capacity, and the report fields only fpB+-Trees fill."""
    from ..baselines.disk_btree import DiskBPlusTree
    from ..core.cache_first import CacheFirstFpTree
    from ..core.disk_first import DiskFirstFpTree

    if isinstance(tree, DiskFirstFpTree):
        return tree.layout.page_fanout, _disk_first_extras(tree)
    if isinstance(tree, CacheFirstFpTree):
        return tree.slots_per_page * tree.leaf_capacity, _cache_first_extras(tree)
    if isinstance(tree, DiskBPlusTree):  # covers micro-indexing
        return tree.layout.capacity, {}
    raise TypeError(f"cannot inspect index type {type(tree).__name__}")


def _disk_first_extras(tree) -> dict:
    node_count = 0
    node_fill_total = 0.0
    used_lines = 0
    total_lines = 0
    for pid in tree.store.page_ids():
        page = tree.store.page(pid)
        total_lines += tree.layout.total_lines - 1  # header line excluded
        used_lines += (tree.layout.total_lines - 1) - page.alloc.free_lines
        for node in page.nodes.values():
            node_count += 1
            node_fill_total += node.count / node.capacity
    return {
        "inpage_nodes": node_count,
        "avg_node_fill": node_fill_total / max(1, node_count),
        "line_utilization": used_lines / max(1, total_lines),
    }


def _cache_first_extras(tree) -> dict:
    node_count = 0
    node_fill_total = 0.0
    for pid in tree.store.page_ids():
        for node in tree.store.page(pid).nodes():
            capacity = tree.leaf_capacity if node.is_leaf else tree.nonleaf_capacity
            node_count += 1
            node_fill_total += node.count / capacity
    return {
        "inpage_nodes": node_count,
        "avg_node_fill": node_fill_total / max(1, node_count),
        "overflow_pages": tree.overflow_page_count(),
    }
