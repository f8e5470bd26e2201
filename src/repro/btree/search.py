"""Traced binary search over sorted key arrays.

All index structures locate keys with the same binary search so their busy
time and probe counts are directly comparable; what differs between them is
the *addresses* probed, which is exactly what the paper's analysis hinges on
(Section 3: binary search over a page-sized array has no spatial locality,
while a cache-line-sized node turns the last probes into cache hits).
"""

from __future__ import annotations

import numpy as np

from .trace import NULL_TRACER, Tracer

__all__ = ["traced_searchsorted", "child_slot", "insertion_slot"]


def traced_searchsorted(
    keys: np.ndarray,
    count: int,
    key: int,
    base_address: int,
    key_size: int,
    tracer: Tracer = NULL_TRACER,
    side: str = "left",
) -> int:
    """Binary search matching ``np.searchsorted(keys[:count], key, side)``.

    Each probe charges a demand load of the probed key plus compare/branch
    costs.  ``base_address`` is the simulated address of ``keys[0]``.
    """
    if count < 0 or count > len(keys):
        raise ValueError(f"count {count} out of range for capacity {len(keys)}")
    if not tracer.active:
        return int(keys[:count].searchsorted(key, side=side))
    lo, hi = 0, count
    if side == "left":
        while lo < hi:
            mid = (lo + hi) // 2
            tracer.probe(base_address + mid * key_size, key_size)
            if int(keys[mid]) < key:
                lo = mid + 1
            else:
                hi = mid
    elif side == "right":
        while lo < hi:
            mid = (lo + hi) // 2
            tracer.probe(base_address + mid * key_size, key_size)
            if key < int(keys[mid]):
                hi = mid
            else:
                lo = mid + 1
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return lo


def child_slot(
    keys: np.ndarray,
    count: int,
    key: int,
    base_address: int,
    key_size: int,
    tracer: Tracer = NULL_TRACER,
    side: str = "right",
) -> int:
    """Which child to descend into for ``key``.

    Non-leaf nodes store, for each child, the smallest key of its subtree
    (the bulkload convention used throughout): the correct child is the last
    one whose separator is <= key, clamped to the first child.

    ``side="left"`` biases toward the *leftmost* child that may contain the
    key: with duplicate keys spanning a node boundary, the separator of the
    right sibling equals the key, and a range scan's initial descent must
    land before the first duplicate rather than on the sibling.
    """
    position = traced_searchsorted(keys, count, key, base_address, key_size, tracer, side=side)
    return max(position - 1, 0)


def insertion_slot(
    keys: np.ndarray,
    count: int,
    key: int,
    base_address: int,
    key_size: int,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Leaf position for ``key``: first slot with an equal-or-greater key."""
    return traced_searchsorted(keys, count, key, base_address, key_size, tracer, side="left")
