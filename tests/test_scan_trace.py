"""The fp-disk range scans trace the same ops as the per-node loop they replace.

``range_scan`` and ``range_scan_reverse`` skip in-page leaf nodes wholly
outside the range and stop at the first node past its end.  The reference
below is the loop they had before: it searches every non-empty node of
every page it visits.  Nodes it searched in vain traced nothing, so the two
must record identical :class:`RecordingTracer` ops and return the same
:class:`ScanResult`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.base import ScanResult
from repro.btree.context import TreeEnvironment
from repro.btree.keys import INVALID_PAGE_ID, TUPLE_ID_SIZE
from repro.btree.trace import RecordingTracer
from repro.core import DiskFirstFpTree


def reference_range_scan(tree, start_key, end_key, reverse=False):
    """The old per-node scan loop, both directions."""
    if end_key < start_key:
        return ScanResult(0, 0)
    tracer, layout = tree.tracer, tree.layout
    tracer.call_overhead()
    if reverse:
        __, page, base, __ = tree._descend_to_leaf_page(end_key)
    else:
        __, page, base, __ = tree._descend_to_leaf_page(start_key, side="left")
    count = tid_sum = 0
    while True:
        nodes = page.leaf_nodes_in_order()
        for node in nodes:
            tracer.prefetch(layout.node_address(base, node), layout.node_bytes(node))
        done = False
        for node in reversed(nodes) if reverse else nodes:
            if node.count == 0:
                continue
            lo = int(node.keys[: node.count].searchsorted(start_key, side="left"))
            hi = int(node.keys[: node.count].searchsorted(end_key, side="right"))
            taken = hi - lo
            if taken > 0:
                tracer.scan(layout.key_address(base, node, lo), taken * tree.keyspec.size)
                tracer.scan(layout.ptr_address(base, node, lo), taken * TUPLE_ID_SIZE)
                count += taken
                tid_sum += int(node.ptrs[lo:hi].sum(dtype=np.uint64))
            if (lo > 0) if reverse else (hi < node.count):
                done = True
        link = page.prev_page if reverse else page.next_page
        if done or link == INVALID_PAGE_ID:
            break
        page, base = tree._page(link)
    return ScanResult(count, tid_sum)


def build_tree(keys, deleted):
    """A 1 KB-page tree over ``keys`` (duplicates allowed), then deletes."""
    tree = DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=4096))
    tree.bulkload(keys, [k * 3 + 1 for k in keys], fill=0.8)
    for key in deleted:
        tree.delete(key)
    tree.tracer = RecordingTracer()
    # Warm the pool (it is larger than the tree), so both scans see the
    # same page base addresses.
    tree.range_scan(-1, 1 << 30)
    return tree


def recorded(tree, scan, *args):
    tree.tracer.ops.clear()
    result = scan(*args)
    return result, list(tree.tracer.ops)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 1500),
    dup_every=st.integers(1, 6),
    cut=st.tuples(st.floats(0, 1), st.floats(0, 0.4)),
    ranges=st.lists(st.tuples(st.integers(-5, 700), st.integers(-5, 700)), min_size=1, max_size=8),
)
def test_scans_trace_the_reference_ops(n, dup_every, cut, ranges):
    keys = sorted(i // dup_every for i in range(n))
    # Delete a contiguous run of stored keys, emptying whole in-page nodes.
    first = int(cut[0] * n)
    deleted = keys[first : first + int(cut[1] * n)]
    tree = build_tree(keys, deleted)
    for a, b in ranges:
        for reverse in (False, True):
            scan = tree.range_scan_reverse if reverse else tree.range_scan
            got, got_ops = recorded(tree, scan, a, b)
            want, want_ops = recorded(
                tree, lambda s, e: reference_range_scan(tree, s, e, reverse), a, b
            )
            assert got == want
            assert got_ops == want_ops


def test_reference_covers_emptied_nodes_and_duplicates():
    """The drawn shapes do reach the cases the new loop skips over."""
    keys = sorted(i // 4 for i in range(1200))
    tree = build_tree(keys, keys[300:700])
    nodes = [
        node
        for pid in tree.leaf_page_ids()
        for node in tree.store.page(pid).leaf_nodes_in_order()
    ]
    assert any(node.count == 0 for node in nodes)
    assert tree.range_scan(50, 60) == reference_range_scan(tree, 50, 60)
    assert tree.range_scan(50, 60).count == 44
