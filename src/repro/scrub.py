"""Structural verification of an index — the post-recovery scrubber.

:func:`scrub_tree` verifies the kinds the write-ahead log recovers — the
disk B+-Tree, micro-indexing and the disk-first fpB+-Tree, whose pages all
live in page-id storage under a ``root_pid`` — and rejects any other kind
with TypeError before walking anything.  It runs the tree's one structural
walk, :meth:`~repro.btree.base.Index.validate`, and reports its counts:

* **page structure** — each format's own checks (node allocator
  consistency, node capacity, entry counters, and for the fpB+-Tree the
  jump-pointer array of paper Section 3.3, which must enumerate exactly the
  leaf chain);
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
    walked = tree.validate()
    return ScrubReport(
        pages_visited=walked.nodes,
        leaf_pages=walked.leaves,
        entries=walked.entries,
        checks=("page-structure", "key-ordering", "separator-agreement", "leaf-chain"),
    )
