"""Optimal node-width selection (paper Section 3.1.1 and Table 2).

All three cache-sensitive schemes size their cache-granularity units with
the same optimization goal **G**: *maximize the number of entry slots in a
leaf page while keeping the analytic search cost within ``tolerance`` (10%)
of the best achievable*.  The analytic cost of searching an ``L``-level tree
whose non-leaf nodes span ``w`` cache lines and leaf nodes span ``x`` lines,
with every node prefetched on visit, is::

    cost = (L - 1) * (T1 + (w - 1) * Tnext)  +  T1 + (x - 1) * Tnext

where T1 is the full miss latency and Tnext the additional pipelined-miss
latency.  As in the paper, the enumeration is cheap (at most 32x32
combinations) and is done once at index-creation time.

Byte-layout constants are chosen to match the paper's reported fan-outs
exactly (Table 2): a 64-byte page header, a 4-byte in-page node header for
disk-first in-page nodes, and a 6-byte node header for cache-first nodes
(whose non-leaf entries carry 6-byte page-id+offset pointers; Section 4.3.1's
"fan-out of a nonleaf node is 57" for 576-byte nodes pins the header size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "search_cost",
    "DiskFirstWidths",
    "CacheFirstWidths",
    "MicroIndexWidths",
    "optimize_disk_first",
    "optimize_cache_first",
    "optimize_micro_index",
    "optimal_pbtree_width",
    "PAGE_HEADER_BYTES",
    "INPAGE_NODE_HEADER_BYTES",
    "CACHE_FIRST_NODE_HEADER_BYTES",
]

PAGE_HEADER_BYTES = 64
INPAGE_NODE_HEADER_BYTES = 4
CACHE_FIRST_NODE_HEADER_BYTES = 6


def search_cost(levels: int, nonleaf_lines: int, leaf_lines: int, t1: int, tnext: int) -> float:
    """Analytic cost of one root-to-leaf search with per-node prefetch."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    nonleaf = t1 + (nonleaf_lines - 1) * tnext
    leaf = t1 + (leaf_lines - 1) * tnext
    return (levels - 1) * nonleaf + leaf


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- disk-first ------------------------------------------------------------------


@dataclass(frozen=True)
class DiskFirstWidths:
    """Selected in-page tree shape for a disk-first fpB+-Tree."""

    nonleaf_bytes: int
    leaf_bytes: int
    levels: int
    leaf_nodes: int  # in-page leaf nodes per page
    nonleaf_capacity: int  # entries per in-page non-leaf node
    leaf_capacity: int  # entries per in-page leaf node
    page_fanout: int  # total entry slots per page
    cost: float
    cost_ratio: float  # cost / best achievable cost


def _inpage_tree_leaves(usable: int, levels: int, nonleaf_bytes: int, leaf_bytes: int, fanout: int) -> int:
    """Max leaf nodes for an L-level in-page tree that fits in ``usable`` bytes.

    The tree has ``levels - 1`` non-leaf levels above the leaves; the top
    level is a single (possibly fan-out-restricted) root — Figure 7(a)'s
    trick for fitting overflowing trees.
    """
    if levels == 1:
        return 1 if leaf_bytes <= usable else 0
    best = 0
    upper_bound = min(usable // leaf_bytes, fanout ** (levels - 1))
    lo, hi = 1, upper_bound
    while lo <= hi:
        mid = (lo + hi) // 2
        # Non-leaf node counts bottom-up: leaf parents, then up to the root.
        space = mid * leaf_bytes
        nodes = mid
        for __ in range(levels - 1):
            nodes = _ceil_div(nodes, fanout)
            space += nodes * nonleaf_bytes
        feasible = nodes == 1 and space <= usable
        if feasible:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def optimize_disk_first(
    page_size: int,
    key_size: int = 4,
    line_size: int = 64,
    t1: int = 150,
    tnext: int = 10,
    max_lines: int = 32,
    tolerance: float = 0.10,
    offset_size: int = 2,
    ptr_size: int = 4,
) -> DiskFirstWidths:
    """Pick (non-leaf width, leaf width, levels) for disk-first in-page trees."""
    usable = page_size - PAGE_HEADER_BYTES
    candidates: list[DiskFirstWidths] = []
    fallbacks: list[DiskFirstWidths] = []
    for w in range(1, max_lines + 1):
        nonleaf_capacity = (w * line_size - INPAGE_NODE_HEADER_BYTES) // (key_size + offset_size)
        if nonleaf_capacity < 2:
            continue
        for x in range(1, max_lines + 1):
            leaf_capacity = (x * line_size - INPAGE_NODE_HEADER_BYTES) // (key_size + ptr_size)
            if leaf_capacity < 1:
                continue
            # Per the paper, each (w, x) pair contributes one candidate: the
            # level count L that utilizes the most page space (maximum
            # fan-out), with ties broken toward the shallower (cheaper) tree.
            # Degenerate single-node "trees" (L=1) waste almost the whole
            # page and are not reasonable candidates unless nothing deeper
            # fits.  Once the root fan-out no longer limits the leaf count
            # (nonleaf_capacity ** (L - 1) >= usable // leaf_bytes), every
            # deeper tree has the same leaf bound and at least one more
            # non-leaf node, so it holds no more leaves and never wins the
            # tie: the search stops there.
            best = None
            levels = 2
            leaf_bound = usable // (x * line_size)
            while True:
                leaves = _inpage_tree_leaves(usable, levels, w * line_size, x * line_size, nonleaf_capacity)
                if leaves <= 0:
                    break
                if best is None or leaves * leaf_capacity > best[1]:
                    best = (levels, leaves * leaf_capacity, leaves)
                if nonleaf_capacity ** (levels - 1) >= leaf_bound:
                    break
                levels += 1
            pool = candidates
            if best is None:
                # Degenerate single-node layout: kept only as a last resort
                # (e.g. pages too small for any two-level in-page tree).
                leaves = _inpage_tree_leaves(usable, 1, w * line_size, x * line_size, nonleaf_capacity)
                if leaves <= 0:
                    continue
                best = (1, leaves * leaf_capacity, leaves)
                pool = fallbacks
            levels, fanout, leaves = best
            pool.append(
                DiskFirstWidths(
                    nonleaf_bytes=w * line_size,
                    leaf_bytes=x * line_size,
                    levels=levels,
                    leaf_nodes=leaves,
                    nonleaf_capacity=nonleaf_capacity,
                    leaf_capacity=leaf_capacity,
                    page_fanout=fanout,
                    cost=search_cost(levels, w, x, t1, tnext),
                    cost_ratio=0.0,
                )
            )
    return _select(candidates if candidates else fallbacks, tolerance)


def _select(candidates, tolerance):
    if not candidates:
        raise ValueError("no feasible node widths for this page size")
    best_cost = min(c.cost for c in candidates)
    eligible = [c for c in candidates if c.cost <= best_cost * (1 + tolerance)]
    winner = max(eligible, key=lambda c: (c.page_fanout, -c.cost))
    ratio = winner.cost / best_cost
    return type(winner)(**{**winner.__dict__, "cost_ratio": ratio})


# -- cache-first ------------------------------------------------------------------


@dataclass(frozen=True)
class CacheFirstWidths:
    """Selected node size for a cache-first fpB+-Tree."""

    node_bytes: int
    nonleaf_capacity: int
    leaf_capacity: int
    nodes_per_page: int
    page_fanout: int  # entry slots in a full leaf page
    levels: int  # tree levels assumed for the cost model
    cost: float
    cost_ratio: float


def optimize_cache_first(
    page_size: int,
    key_size: int = 4,
    num_keys: int = 10_000_000,
    line_size: int = 64,
    t1: int = 150,
    tnext: int = 10,
    max_lines: int = 32,
    tolerance: float = 0.10,
    child_ptr_size: int = 6,  # page id + in-page offset
    tid_size: int = 4,
) -> CacheFirstWidths:
    """Pick the uniform node size for cache-first fpB+-Trees.

    The tree's depth — and hence the cost — depends on how many keys it
    holds; ``num_keys`` defaults to the paper's 10M-key experiments.
    """
    candidates: list[CacheFirstWidths] = []
    for w in range(1, max_lines + 1):
        node_bytes = w * line_size
        if node_bytes > page_size - PAGE_HEADER_BYTES:
            break
        nonleaf_capacity = (node_bytes - CACHE_FIRST_NODE_HEADER_BYTES) // (key_size + child_ptr_size)
        leaf_capacity = (node_bytes - CACHE_FIRST_NODE_HEADER_BYTES) // (key_size + tid_size)
        if nonleaf_capacity < 2 or leaf_capacity < 1:
            continue
        leaves = max(1, _ceil_div(num_keys, leaf_capacity))
        levels = 1
        nodes = leaves
        while nodes > 1:
            nodes = _ceil_div(nodes, nonleaf_capacity)
            levels += 1
        nodes_per_page = (page_size - PAGE_HEADER_BYTES) // node_bytes
        if nodes_per_page < 2:
            continue  # placement needs several nodes per page
        candidates.append(
            CacheFirstWidths(
                node_bytes=node_bytes,
                nonleaf_capacity=nonleaf_capacity,
                leaf_capacity=leaf_capacity,
                nodes_per_page=nodes_per_page,
                page_fanout=nodes_per_page * leaf_capacity,
                levels=levels,
                cost=levels * (t1 + (w - 1) * tnext),
                cost_ratio=0.0,
            )
        )
    return _select(candidates, tolerance)


# -- micro-indexing -----------------------------------------------------------------


@dataclass(frozen=True)
class MicroIndexWidths:
    """Selected sub-array size for micro-indexing pages."""

    subarray_bytes: int
    subarray_keys: int
    capacity: int  # entries per page
    num_subarrays: int
    micro_bytes: int  # line-aligned size of the micro-index region
    page_fanout: int
    cost: float
    cost_ratio: float


def micro_page_capacity(
    page_size: int, subarray_bytes: int, key_size: int = 4, tid_size: int = 4, line_size: int = 64
) -> MicroIndexWidths:
    """Compute the entry capacity of a micro-indexed page for one sub-array size.

    Layout: header | micro-index (line-aligned) | key array (line-aligned)
    | pointer array.  Returned with cost fields zeroed.
    """
    keys_per_subarray = subarray_bytes // key_size
    if keys_per_subarray < 1:
        raise ValueError("sub-array smaller than one key")
    capacity = (page_size - PAGE_HEADER_BYTES) // (key_size + tid_size)
    while capacity > 0:
        num_subarrays = _ceil_div(capacity, keys_per_subarray)
        micro_bytes = _align(num_subarrays * key_size, line_size)
        key_bytes = _align(capacity * key_size, line_size)
        total = PAGE_HEADER_BYTES + micro_bytes + key_bytes + capacity * tid_size
        if total <= page_size:
            return MicroIndexWidths(
                subarray_bytes=subarray_bytes,
                subarray_keys=keys_per_subarray,
                capacity=capacity,
                num_subarrays=num_subarrays,
                micro_bytes=micro_bytes,
                page_fanout=capacity,
                cost=0.0,
                cost_ratio=0.0,
            )
        capacity -= 1
    raise ValueError(f"page size {page_size} cannot hold a micro-indexed page")


def _align(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


def optimize_micro_index(
    page_size: int,
    key_size: int = 4,
    num_keys: int = 10_000_000,
    line_size: int = 64,
    t1: int = 150,
    tnext: int = 10,
    max_lines: int = 32,
    tolerance: float = 0.10,
    tid_size: int = 4,
) -> MicroIndexWidths:
    """Pick the sub-array size for micro-indexing under the same goal G."""
    candidates: list[MicroIndexWidths] = []
    for s in range(1, max_lines + 1):
        subarray_bytes = s * line_size
        try:
            shape = micro_page_capacity(page_size, subarray_bytes, key_size, tid_size, line_size)
        except ValueError:
            continue
        if shape.num_subarrays < 1:
            continue
        # Per-page search: fetch the (prefetched) micro-index, then the
        # chosen key sub-array and its pointer sub-array together.
        micro_lines = shape.micro_bytes // line_size
        ptr_lines = max(1, _ceil_div(shape.subarray_keys * tid_size, line_size))
        per_page = (t1 + (micro_lines - 1) * tnext) + (t1 + (s + ptr_lines - 1) * tnext)
        levels = 1
        nodes = max(1, _ceil_div(num_keys, shape.capacity))
        while nodes > 1:
            nodes = _ceil_div(nodes, shape.capacity)
            levels += 1
        candidates.append(
            MicroIndexWidths(
                **{**shape.__dict__, "cost": levels * per_page, "cost_ratio": 0.0}
            )
        )
    return _select(candidates, tolerance)


# -- prefetching B+-Tree (Chen et al. 2001) --------------------------------------------


def optimal_pbtree_width(
    key_size: int = 4,
    num_keys: int = 10_000_000,
    line_size: int = 64,
    t1: int = 150,
    tnext: int = 10,
    max_lines: int = 32,
    node_header: int = 8,
    ptr_size: int = 4,
) -> int:
    """Node width (in cache lines) minimizing pB+-Tree search cost.

    With the paper's parameters this selects 8 lines (512-byte nodes), the
    width used in the prefetching-B+-Tree paper the in-page trees are
    modeled after.
    """
    best_width, best_cost = 1, math.inf
    for w in range(1, max_lines + 1):
        capacity = (w * line_size - node_header) // (key_size + ptr_size)
        if capacity < 2:
            continue
        levels = 1
        nodes = max(1, _ceil_div(num_keys, capacity))
        while nodes > 1:
            nodes = _ceil_div(nodes, capacity)
            levels += 1
        cost = levels * (t1 + (w - 1) * tnext)
        if cost < best_cost:
            best_width, best_cost = w, cost
    return best_width
