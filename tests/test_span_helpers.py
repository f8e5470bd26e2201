"""Tests for the leaf-page interface, the leaf walks over it, and timed-scan parameters.

Every disk-resident tree keeps its leaf pages in a ``next_page`` chain, and
every leaf page answers ``first_key()``, ``entries()`` and ``len(page)``;
``Index`` builds ``leaf_page_ids``, ``items``, ``leaf_first_keys`` and
``leaf_span`` on that alone.  The mature-tree tests check those walks
against references that do not use them: the tree-order descent (or, for
the cache-first tree, its leaf-node chain), the entries the test itself
stored, and a brute-force span rule.
"""

import numpy as np
import pytest

from repro import CacheFirstFpTree, DiskBPlusTree, DiskFirstFpTree, TreeEnvironment
from repro.baselines import MicroIndexTree
from repro.bench.io_scan import timed_range_scan
from repro.workloads import KeyWorkload, build_mature_tree

FACTORIES = {
    "disk": lambda: DiskBPlusTree(TreeEnvironment(page_size=1024, buffer_pages=256)),
    "fp-disk": lambda: DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=256)),
    "fp-cache": lambda: CacheFirstFpTree(
        TreeEnvironment(page_size=1024, buffer_pages=256), num_keys_hint=10_000
    ),
}
#: Where an empty last leaf page routes: above every storable key.
PAST_LAST_KEY = int(np.iinfo(np.int64).max)

MATURE_FACTORIES = {
    **FACTORIES,
    "micro": lambda: MicroIndexTree(TreeEnvironment(page_size=1024, buffer_pages=256)),
}


def loaded(kind, n=5000):
    tree = FACTORIES[kind]()
    keys = list(range(10, 10 + 2 * n, 2))
    tree.bulkload(keys, [1] * n)
    return tree, keys


def first_key(tree, pid):
    return tree.store.page(pid).first_key()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_first_keys_increase_along_chain(kind):
    tree, __ = loaded(kind)
    firsts = [first_key(tree, pid) for pid in tree.leaf_page_ids()]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_span_covers_requested_range(kind):
    tree, keys = loaded(kind)
    lo, hi = keys[1000], keys[3000]
    pids, extra = tree.leaf_span(lo, hi)
    all_pids = tree.leaf_page_ids()
    start = all_pids.index(pids[0])
    assert all_pids[start : start + len(pids)] == pids  # contiguous
    # The covered pages really contain the endpoints.
    assert first_key(tree, pids[0]) <= lo
    if extra:
        assert first_key(tree, extra[0]) > hi
    # Extras continue the chain.
    assert all_pids[start + len(pids) : start + len(pids) + len(extra)] == extra


def test_span_at_keyspace_edges():
    tree, keys = loaded("disk")
    pids, __ = tree.leaf_span(0, keys[0])
    assert pids[0] == tree.leaf_page_ids()[0]
    pids, extra = tree.leaf_span(keys[-1], keys[-1] + 100)
    assert pids[-1] == tree.leaf_page_ids()[-1]
    assert extra == []


# -- mature trees with pages emptied by lazy deletes -------------------------------


def tree_order_leaf_pids(tree):
    """Leaf page ids in key order, without the sibling chain.

    A paged tree is descended level by level through its interior pages;
    the cache-first tree's leaf-node chain is deduplicated by page id.
    """
    if isinstance(tree, CacheFirstFpTree):
        pids = []
        node = tree.first_leaf
        while node is not None:
            if not pids or pids[-1] != node.pid:
                pids.append(node.pid)
            node = node.next_leaf
        return pids
    level = [tree.root_pid]
    while tree.store.page(level[0]).level > 0:
        level = [int(child) for pid in level for child in tree.store.page(pid).entries()[1]]
    return level


@pytest.fixture(scope="module", params=sorted(MATURE_FACTORIES))
def mature(request):
    """A mature tree, the entries it holds, and the leaf pages emptied by deletes."""
    tree = MATURE_FACTORIES[request.param]()
    workload = KeyWorkload(6000, seed=3)
    build_mature_tree(tree, workload, bulk_fraction=0.7)
    pids = tree.leaf_page_ids()
    # Empty the first page, two adjacent middle pages and the last one.
    emptied = [pids[0], pids[len(pids) // 2], pids[len(pids) // 2 + 1], pids[-1]]
    deleted = set()
    for pid in emptied:
        for key in tree.store.page(pid).entries()[0].tolist():
            assert tree.delete(key)
            deleted.add(key)
    tree.validate()
    expected = [
        (key, tid)
        for key, tid in zip(workload.keys.tolist(), workload.tids.tolist())
        if key not in deleted
    ]
    assert len(expected) == tree.num_entries
    return tree, expected, emptied


def test_leaf_page_ids_equal_tree_order(mature):
    tree, __, emptied = mature
    pids = tree.leaf_page_ids()
    assert pids == tree_order_leaf_pids(tree)
    assert set(emptied) <= set(pids)  # lazy deletes free no page


def test_items_are_the_stored_entries(mature):
    tree, expected, __ = mature
    assert list(tree.items()) == expected


def test_each_page_agrees_with_items(mature):
    tree, expected, emptied = mature
    flat = []
    for pid in tree.leaf_page_ids():
        page = tree.store.page(pid)
        keys, tids = page.entries()
        assert len(keys) == len(tids) == len(page)
        assert np.all(keys[:-1] <= keys[1:])
        assert page.first_key() == (int(keys[0]) if len(keys) else None)
        assert (len(page) == 0) == (pid in emptied)
        flat.extend(zip(keys.tolist(), tids.tolist()))
    assert flat == expected


def test_entries_are_fresh_copies(mature):
    tree, __, __ = mature
    pid = next(pid for pid in tree.leaf_page_ids() if len(tree.store.page(pid)))
    page = tree.store.page(pid)
    keys, tids = page.entries()
    before = page.first_key()
    keys[:] = 0
    tids[:] = 0
    assert page.first_key() == before
    assert page.entries()[0][0] == before


def brute_span(firsts, pids, start_key, end_key):
    """The span rule spelled out: an empty page routes as its successor.

    The span runs from the last page routed at or below ``start_key`` (or
    the first page) to the last page routed at or below ``end_key``.
    """
    routed = []
    following = PAST_LAST_KEY
    for key in reversed(firsts):
        following = key if key is not None else following
        routed.append(following)
    routed.reverse()
    lo = max([i for i, key in enumerate(routed) if key <= start_key], default=0)
    hi = max([lo] + [i for i, key in enumerate(routed) if key <= end_key])
    return pids[lo : hi + 1], pids[hi + 1 : hi + 65]


def test_leaf_first_keys_route_empty_pages_as_successor(mature):
    tree, __, emptied = mature
    pids = tree.leaf_page_ids()
    firsts = tree.leaf_first_keys(pids)
    assert np.all(firsts[:-1] <= firsts[1:])
    for i, pid in enumerate(pids):
        own = first_key(tree, pid)
        if own is not None:
            assert firsts[i] == own
        elif i + 1 < len(pids):
            assert firsts[i] == firsts[i + 1]
        else:
            assert firsts[i] == PAST_LAST_KEY
    assert pids[-1] in emptied  # the past-the-last-key case was exercised


def test_leaf_span_matches_brute_force(mature):
    tree, expected, __ = mature
    pids = tree.leaf_page_ids()
    firsts = [first_key(tree, pid) for pid in pids]
    keys = [key for key, __ in expected]
    rng = np.random.default_rng(5)
    bounds = [(0, 0), (0, keys[0]), (keys[-1], keys[-1] + 100), (keys[-1] + 1, keys[-1] + 9)]
    for __ in range(40):
        a, b = sorted(int(k) for k in rng.integers(0, keys[-1] + 20, size=2))
        bounds.append((a, b))
    for start_key, end_key in bounds:
        span, extra = tree.leaf_span(start_key, end_key)
        assert (span, extra) == brute_span(firsts, pids, start_key, end_key)
        # Every stored entry in the range lies on a page of the span.
        holders = {
            pid
            for pid in pids
            for key in tree.store.page(pid).entries()[0].tolist()
            if start_key <= key <= end_key
        }
        assert holders <= set(span)


# -- timed scans --------------------------------------------------------------------


def test_timed_scan_respects_pool_frames():
    """A pool smaller than the range forces re-reads on revisits only."""
    tree, keys = loaded("disk", n=8000)
    pids, __ = tree.leaf_span(keys[0], keys[-1])
    timing = timed_range_scan(tree.store, pids, num_disks=2, use_prefetch=True, pool_frames=8)
    # Forward-only scan: pool size does not force extra reads.
    assert timing.disk_reads == len(pids)


def test_timed_scan_page_process_time_adds_up():
    tree, keys = loaded("disk", n=2000)
    pids, __ = tree.leaf_span(keys[0], keys[-1])
    fast = timed_range_scan(tree.store, pids, num_disks=1, page_process_us=0.0)
    slow = timed_range_scan(tree.store, pids, num_disks=1, page_process_us=5000.0)
    assert slow.elapsed_us - fast.elapsed_us == pytest.approx(5000.0 * len(pids))
