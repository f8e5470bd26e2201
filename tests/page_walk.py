"""Reference routing for the serving tree's cached flat page pairs.

The served path routes every disk-first page through one cached
``(keys, ptrs)`` pair (``DiskFirstFpTree.page_entries``).  The reference it
must agree with is the cache-side in-page node walk the paper's trees
trace: ``_locate_child_pid`` for routing and the leaf step of ``search``
for exact matches, both run here under the null tracer (the tree has no
``MemorySystem``, so nothing is charged).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.btree.batch import NULL_PROTOCOL, descend
from repro.btree.search import insertion_slot
from repro.core.disk_first import DiskFirstFpTree
from repro.des import Environment
from repro.storage import AsyncPageReader, BufferPool, DiskArray, StorageConfig


def walk_pages(tree):
    """Yield ``(pid, page)`` for every index page, root first (BFS)."""
    frontier = [tree.root_pid]
    while frontier:
        next_frontier = []
        for pid in frontier:
            page = tree.store.page(pid)
            yield pid, page
            if page.level > 0:
                for node in page.leaf_nodes_in_order():
                    next_frontier.extend(int(p) for p in node.ptrs[: node.count])
        frontier = next_frontier


def walk_route(tree, page, key: int, side: str = "right") -> int:
    """The child page id the traced node walk routes ``key`` to."""
    assert not tree.tracer.active, "the reference walk runs under the null tracer"
    return tree._locate_child_pid(page, 0, key, side=side)


def walk_match(tree, page, key: int) -> int:
    """``search``'s leaf-page step: ``key``'s tuple id, 0 if absent."""
    assert not tree.tracer.active, "the reference walk runs under the null tracer"
    node, __ = tree._inpage_descend(page, 0, key)
    slot = insertion_slot(node.keys, node.count, key, 0, tree.keyspec.size, tree.tracer)
    return int(node.ptrs[slot]) if slot < node.count and int(node.keys[slot]) == key else 0


def assert_pairs_fresh(tree) -> int:
    """Every page's pair (cached or not) equals a fresh decode; returns pages checked."""
    checked = 0
    for pid, page in walk_pages(tree):
        keys, ptrs = tree.page_entries(pid)
        fresh_keys, fresh_ptrs = page.entries()
        assert np.array_equal(keys, fresh_keys), f"page {pid}: stale cached keys"
        assert np.array_equal(ptrs, fresh_ptrs), f"page {pid}: stale cached ptrs"
        checked += 1
    return checked


def assert_pages_route_like_walk(tree, probes_of) -> tuple[int, int]:
    """Single-key pair routing (both sides) and exact matching equal the
    node walk on every page, probed with ``probes_of(page)``; returns the
    interior and leaf page counts checked."""
    interior = leaves = 0
    for pid, page in walk_pages(tree):
        probes = probes_of(page)
        if page.level > 0:
            for side in ("right", "left"):
                got = [tree.child_pid(pid, key, side=side) for key in probes]
                want = [walk_route(tree, page, key, side=side) for key in probes]
                assert got == want, f"page {pid} routes unlike the node walk (side={side})"
            interior += 1
        else:
            got = [tree.leaf_tid(pid, key) for key in probes]
            want = [walk_match(tree, page, key) for key in probes]
            assert got == want, f"leaf page {pid} matches unlike the node walk"
            leaves += 1
    return interior, leaves


def run_descend(db, keys: list, visit_leaf: bool = True, wave: bool = True):
    """One null-protocol ``descend`` over ``keys`` on a fresh cold reader.

    Returns ``{i: (leaf pid, page ids above it, tid)}`` per key index (tid
    None when ``visit_leaf`` is False); every arrival must be fresh and no
    key may need a retry.
    """
    env = Environment()
    config = StorageConfig(
        page_size=db.page_size, num_disks=db.num_disks,
        buffer_pool_pages=32, disk=db.disk_params,
    )
    reader = AsyncPageReader(env, DiskArray(env, config), BufferPool(config, db.store))
    arrivals, retry, __ = env.run(until=env.process(
        descend(db, reader, keys, NULL_PROTOCOL, visit_leaf=visit_leaf, wave=wave)
    ))
    assert not retry
    reached = {}
    for leaf in arrivals:
        assert leaf.fresh
        tids = leaf.tids if leaf.tids is not None else [None] * len(leaf.idxs)
        for i, tid in zip(leaf.idxs, tids):
            reached[i] = (leaf.pid, leaf.above, tid)
    assert sorted(reached) == list(range(len(keys)))
    return reached


def assert_descend_matches_search(db, probes: list) -> None:
    """One batched ``descend`` over ``probes`` (repeats allowed) ends every
    probe on ``page_path``'s leaf with ``search``'s verdict."""
    reached = {i: (pid, tid) for i, (pid, __, tid) in run_descend(db, probes).items()}
    tree = db.index
    assert reached == {
        i: (tree.page_path(key)[-1], tree.search(key) or 0) for i, key in enumerate(probes)
    }


@contextmanager
def checked_page_entries():
    """Recompute and compare every ``page_entries`` use for the duration.

    The wrapper returns the cached pair as before, so behaviour is
    unchanged; a stale pair is recorded (and also raised, in case the
    caller does not swallow errors) and reported when the block exits.
    """
    original = DiskFirstFpTree.page_entries
    stale: list[str] = []

    def checked(self, pid):
        keys, ptrs = original(self, pid)
        fresh_keys, fresh_ptrs = self.store.page(pid).entries()
        if not (np.array_equal(keys, fresh_keys) and np.array_equal(ptrs, fresh_ptrs)):
            stale.append(f"page {pid}: cached {keys.tolist()} != fresh {fresh_keys.tolist()}")
            raise AssertionError(stale[-1])
        return keys, ptrs

    DiskFirstFpTree.page_entries = checked
    try:
        yield
    finally:
        DiskFirstFpTree.page_entries = original
    assert not stale, "stale cached page pairs: " + "; ".join(stale[:5])
