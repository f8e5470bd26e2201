"""Structural verification of an index — the post-recovery scrubber.

:func:`scrub_tree` generalizes the per-tree ``validate()`` methods into a
single verifier for the kinds the write-ahead log recovers — the disk
B+-Tree, micro-indexing and the disk-first fpB+-Tree, whose pages all
live in page-id storage under a ``root_pid`` — and rejects any other
kind with TypeError before walking anything:

* **page structure** — the tree's own ``validate()`` (node allocator
  consistency, per-node ordering, entry counters, sibling chains, and
  for the fpB+-Tree the jump-pointer array of paper Section 3.3, which
  must enumerate exactly the leaf chain);
* **key ordering with separator/child agreement** — a bounded descent from
  the root: every child's keys must lie within the key range its parent
  separators promise (the leftmost routing chain is exempt below, acting
  as minus infinity, exactly as search routing treats it);
* **leaf chain** — walking the sibling chain visits the same pages as the
  tree walk, in order, with globally non-decreasing keys and a total entry
  count matching the tree's counter.

Failures raise :class:`~repro.btree.base.IndexCorruptionError`; success
returns a :class:`ScrubReport` naming what was checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baselines.disk_btree import DiskBPlusTree
from .btree.base import IndexCorruptionError
from .core.disk_first import DiskFirstFpTree

__all__ = ["ScrubReport", "scrub_tree"]


@dataclass(frozen=True)
class ScrubReport:
    """What the scrubber examined on a passing tree."""

    pages_visited: int
    leaf_pages: int
    entries: int
    checks: tuple[str, ...]


def scrub_tree(tree) -> ScrubReport:
    """Verify a tree's structure; raises ``IndexCorruptionError`` on damage."""
    # MicroIndexTree subclasses DiskBPlusTree.
    if not isinstance(tree, (DiskBPlusTree, DiskFirstFpTree)):
        raise TypeError(
            f"scrub_tree covers the disk, micro and fp-disk trees (the kinds the "
            f"WAL recovers), not {type(tree).__name__}"
        )
    tree.validate()

    store = tree.store
    visited = 0
    leaf_pids: list[int] = []
    total_entries = 0

    def walk(pid: int, level: int, lo, hi) -> None:
        """Descend with the key bounds the parent separators promise.

        ``lo=None`` marks the leftmost routing chain (minus infinity);
        ``hi`` is inclusive: a child's first key may equal the next
        separator when duplicates span the boundary.
        """
        nonlocal visited, total_entries
        if pid not in store:
            raise IndexCorruptionError(f"page {pid} referenced but not allocated")
        page = store.page(pid)
        if page.level != level:
            raise IndexCorruptionError(
                f"page {pid} at level {page.level}, parent expected {level}"
            )
        visited += 1
        keys, ptrs = (array.tolist() for array in page.entries())
        for left, right in zip(keys, keys[1:]):
            if left > right:
                raise IndexCorruptionError(f"page {pid} keys out of order")
        if keys:
            if lo is not None and keys[0] < lo:
                raise IndexCorruptionError(
                    f"page {pid} holds key {keys[0]} below its separator {lo}"
                )
            if hi is not None and keys[-1] > hi:
                raise IndexCorruptionError(
                    f"page {pid} holds key {keys[-1]} above its next separator {hi}"
                )
        if level == 0:
            leaf_pids.append(pid)
            total_entries += len(keys)
            return
        for i, child in enumerate(ptrs):
            # Child 0 inherits the page's own bound: routing clamps to slot
            # 0, so it may legitimately hold keys below its recorded
            # (possibly stale) separator.
            child_lo = lo if i == 0 else keys[i]
            child_hi = keys[i + 1] if i + 1 < len(keys) else hi
            walk(child, level - 1, child_lo, child_hi)

    walk(tree.root_pid, tree.height - 1, None, None)

    if total_entries != tree.num_entries:
        raise IndexCorruptionError(
            f"entry count mismatch: walk found {total_entries}, "
            f"counter says {tree.num_entries}"
        )

    # Leaf chain: same pages as the tree walk, in order, globally sorted.
    chain = tree.leaf_page_ids()
    if chain != leaf_pids:
        raise IndexCorruptionError("leaf sibling chain disagrees with tree order")
    if leaf_pids and tree.first_leaf_pid != leaf_pids[0]:
        raise IndexCorruptionError("first_leaf_pid does not head the leaf chain")
    last_key = None
    for pid in chain:
        keys, __ = store.page(pid).entries()
        if len(keys):
            if last_key is not None and keys[0] < last_key:
                raise IndexCorruptionError(f"leaf chain unsorted at page {pid}")
            last_key = keys[-1]

    return ScrubReport(
        pages_visited=visited,
        leaf_pages=len(leaf_pids),
        entries=total_entries,
        checks=("page-structure", "key-ordering", "separator-agreement", "leaf-chain"),
    )
