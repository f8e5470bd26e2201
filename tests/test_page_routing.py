"""The served routing primitive: one cached flat ``(keys, ptrs)`` pair per page.

``DiskFirstFpTree.page_entries`` caches each page's flattened entries,
valid while the page store's write token for the page is unchanged.  These
tests interleave routing with every kind of mutation the serving tree sees
— inserts, deletes that empty in-page leaf nodes and whole leaf pages, page
splits, root growth, a WAL crash plus ``recover`` and an image save/load
round trip — on 512-byte and 4 KB pages.  After each step:

* every page's cached pair equals a fresh decode (a missed write-token
  restamp shows up here as a stale pair), and
* every probe — below and above the key range, gap keys, the keys at every
  in-page node and page boundary and their neighbours, repeated probes —
  routes (``side="right"`` and ``"left"``) and exact-matches exactly as the
  traced in-page node walk and ``search`` do under the null tracer, one key
  at a time and as one batched :func:`~repro.btree.batch.descend`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.context import TreeEnvironment
from repro.core.disk_first import DiskFirstFpTree
from repro.dbms.engine import MiniDbms
from repro.image import dump_tree_bytes, load_tree_bytes

from page_walk import (
    assert_descend_matches_search,
    assert_pages_route_like_walk,
    assert_pairs_fresh,
    run_descend,
    walk_pages,
    walk_route,
)

#: Keys live in [KEY_LO, KEY_HI); probes reach beyond both ends.
KEY_LO, KEY_HI = 10, 6000
EXTREMES = [-5, 0, KEY_LO - 1, KEY_HI + 3, 10**7]


def page_probes(page) -> list[int]:
    """Probes around a page's own routing decisions, repeats included.

    Every key of an interior page is a separator; a leaf page is probed at
    each in-page node's first and last key.  Each probe comes with its
    neighbours (gap keys under the unique-key discipline), twice.
    """
    keys = []
    for node in page.leaf_nodes_in_order():
        if page.level > 0:
            keys += node.keys[: node.count].tolist()
        elif node.count:
            keys += [int(node.keys[0]), int(node.keys[node.count - 1])]
    probes = list(EXTREMES)
    for key in keys:
        probes += [key - 1, key, key, key + 1]
    return sorted(probes)


def tree_probes(tree) -> list[int]:
    """The union of every page's probes (for whole-descent checks)."""
    probes = set(EXTREMES)
    for __, page in walk_pages(tree):
        probes.update(page_probes(page))
    return sorted(probes)


def check_routing(tree) -> list[int]:
    """Pair routing and matching equal the node walk on every page, and a
    whole untraced descent ends where ``search`` does; returns the probes."""
    assert_pages_route_like_walk(tree, page_probes)
    probes = tree_probes(tree)
    for key in probes:
        leaf = tree.page_path(key)[-1]
        assert tree.leaf_tid(leaf, key) == (tree.search(key) or 0), f"search({key})"
    return probes


def check_step(tree, db=None) -> None:
    assert assert_pairs_fresh(tree) >= 1
    probes = check_routing(tree)
    if db is not None:
        assert_descend_matches_search(db, probes + probes[::7])  # repeats share a run


def mutate(insert, delete, rng, present: set, steps: int, delete_share: float) -> None:
    """Unique-key inserts and deletes (the serving tree's key discipline)."""
    for __ in range(steps):
        if present and rng.random() < delete_share:
            key = int(rng.choice(sorted(present)))
            assert delete(key)
            present.discard(key)
        else:
            key = int(rng.integers(KEY_LO, KEY_HI))
            if key not in present:
                insert(key)
                present.add(key)


def wipe(delete, rng, present: set) -> None:
    """Delete a whole key interval: empties in-page leaf nodes and leaf pages."""
    if not present:
        return
    first, last = min(present), max(present)
    low = int(rng.integers(first, last + 1))
    for key in [k for k in sorted(present) if low <= k <= low + (last - first) // 3]:
        assert delete(key)
        present.discard(key)


def run_sequence(page_size, seed, rows, steps, delete_share) -> dict:
    """Mutate a WAL-logged serving database, then a saved and reloaded
    tree, checking after every step.  Returns what the sequence exercised."""
    rng = np.random.default_rng(seed)
    db = MiniDbms(num_rows=rows, num_disks=2, page_size=page_size, seed=seed % 1000, mature=False)
    present = {int(k) for k in db._workload.keys}
    db.enable_wal()
    height = db.index.height
    check_step(db.index, db)  # builds and caches every pair before it is mutated

    mutate(db.insert, db.delete, rng, present, steps, delete_share)  # splits, root growth
    check_step(db.index, db)
    seen = {"page_splits": db.index.page_splits, "grew": db.index.height > height}
    wipe(db.delete, rng, present)
    leaves = [db.store.page(pid) for pid in db.index.leaf_page_ids()]
    seen["empty_leaf_pages"] = sum(1 for page in leaves if page.total == 0)
    seen["empty_leaf_nodes"] = sum(
        1 for page in leaves if page.total for node in page.leaf_nodes_in_order() if not node.count
    )
    check_step(db.index, db)
    mutate(db.insert, db.delete, rng, present, steps // 2, delete_share)
    check_step(db.index, db)

    db.crash_and_recover()  # a fresh tree rebuilt by redo over the durable image
    check_step(db.index, db)
    db.enable_wal()
    mutate(db.insert, db.delete, rng, present, steps // 4, delete_share)
    check_step(db.index, db)
    assert sorted(present) == [k for k, __ in db.index.items()]

    # Image round trip (of a standalone tree: a database's store also holds
    # heap pages): the loaded tree routes like the saved one, and its own
    # pairs keep tracking the mutations made after the load.
    tree = DiskFirstFpTree(TreeEnvironment(page_size=page_size, buffer_pages=64))
    keys = sorted(present)
    tree.bulkload(keys, [k + 1 for k in keys], fill=0.7)
    check_step(tree)
    mutate(
        lambda k: tree.insert(k, k + 1), tree.delete, rng, present, steps // 2, delete_share
    )
    check_step(tree)
    loaded = load_tree_bytes(dump_tree_bytes(tree))
    probes = tree_probes(tree)
    assert [loaded.search(k) for k in probes] == [tree.search(k) for k in probes]
    check_step(loaded)
    mutate(
        lambda k: loaded.insert(k, k + 1), loaded.delete, rng, present, steps // 2, 0.5
    )
    wipe(loaded.delete, rng, present)
    check_step(loaded)
    assert sorted(present) == [k for k, __ in loaded.items()]
    return seen


@settings(max_examples=12, deadline=None)
@given(
    page_size=st.sampled_from([512, 4096]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 400),
    steps=st.integers(0, 400),
    delete_share=st.sampled_from([0.0, 0.3, 0.7]),
)
def test_cached_pairs_track_every_mutation(page_size, seed, rows, steps, delete_share):
    run_sequence(page_size, seed, rows, steps, delete_share)


def test_the_sequence_splits_pages_grows_the_root_and_empties_leaf_pages():
    """The mutation sequence reaches every structural change it claims to:
    page splits, root growth, emptied leaf pages and emptied in-page leaf
    nodes inside live pages."""
    for page_size, rows, delete_share in ((512, 20, 0.0), (4096, 2000, 0.1)):
        seen = run_sequence(page_size, 11, rows, 900, delete_share)
        assert seen["page_splits"] > 0, page_size
        assert seen["empty_leaf_pages"] > 0, page_size
        assert seen["empty_leaf_nodes"] > 0, page_size
        assert seen["grew"] or page_size == 4096


def test_duplicates_straddling_node_and_page_boundaries_route_like_the_walk():
    """With duplicate keys (allowed by the tree, never minted by serving),
    both routing sides still equal the node walk, and the left-biased
    ``range_count`` descent still starts at the first duplicate."""
    db = MiniDbms(num_rows=200, num_disks=2, page_size=512, seed=5, mature=False)
    tree = db.index
    dup = int(db._workload.keys[100])
    for __ in range(120):
        tree.insert(dup, 1)
    assert tree.range_count(dup, dup) == tree.range_scan(dup, dup).count == 121
    for pid, page in walk_pages(tree):
        if page.level > 0:
            for side in ("right", "left"):
                for key in (dup - 1, dup, dup + 1):
                    assert tree.child_pid(pid, key, side=side) == walk_route(
                        tree, page, key, side=side
                    )
    assert_pairs_fresh(tree)


# -- a batched descent equals one descent per key ------------------------------

#: Serving trees of three levels (512-byte pages) and two (4 KB pages).
_DESCEND_DBS = {
    page_size: MiniDbms(num_rows=rows, num_disks=2, page_size=page_size, seed=13, mature=False)
    for page_size, rows in ((512, 3000), (4096, 20000))
}


@settings(max_examples=24, deadline=None)
@given(
    page_size=st.sampled_from([512, 4096]),
    at=st.floats(0.0, 1.0),
    cluster=st.integers(2, 12),
    extra=st.lists(st.integers(-50, 10**6), max_size=12),
    visit_leaf=st.booleans(),
)
def test_descend_equals_one_descent_per_key(page_size, at, cluster, extra, visit_leaf):
    """A batch reaches, for every key, the leaf, path and tid a descent of
    that key alone reaches.  Two batches: a cluster of one leaf's keys
    alone (one run that every page sends to one child), and the cluster
    plus a lone key half the key space away (a one-key run once it leaves
    the cluster) plus random probes, repeats and misses included."""
    db = _DESCEND_DBS[page_size]
    stored = [int(k) for k in db._workload.keys]
    first = int(at * (len(stored) - 1))
    lone = stored[(first + len(stored) // 2) % len(stored)]
    leaf = db.index.page_path(stored[first])[-1]
    together = db.index.page_entries(leaf)[0][:cluster].tolist()
    cluster = len(together)
    assert cluster >= 2
    for keys in (together, together + [lone] + extra):
        batched = run_descend(db, keys, visit_leaf=visit_leaf)
        alone = [run_descend(db, [key], visit_leaf=visit_leaf)[0] for key in keys]
        assert [batched[i] for i in range(len(keys))] == alone
    # The cluster is one leaf's keys, so every page on its path routes the
    # whole run to one child; the lone key reaches a leaf of its own.
    leaves = [pid for pid, __, __ in alone]
    assert db.index.height >= 2
    assert set(leaves[:cluster]) == {leaf} != {leaves[cluster]}
