"""Tests for the disk-first fpB+-Tree."""

import numpy as np
import pytest

from repro.baselines import DiskBPlusTree
from repro.btree.context import TreeEnvironment
from repro.btree.keys import INVALID_PAGE_ID
from repro.core import DiskFirstFpTree, LineAllocator, optimize_disk_first
from repro.core.inpage import LEAF, NONLEAF
from repro.mem import MemorySystem

from index_contract import IndexContract, dense_keys

#: Every cached page pair is recomputed and compared on use (conftest.py).
pytestmark = pytest.mark.usefixtures("checked_page_entries")


class TestDiskFirstContract(IndexContract):
    def make_index(self, **kwargs):
        kwargs.setdefault("page_size", 1024)
        kwargs.setdefault("buffer_pages", 512)
        return DiskFirstFpTree(TreeEnvironment(**kwargs))

    SCRUBBED = True

    def root_separators(self, index):
        return index.store.page(index.root_pid).leaf_nodes_in_order()[0].keys

    def first_leaf_node(self, index):
        node = index.store.page(index.first_leaf_pid).leaf_nodes_in_order()[0]
        return node, node.capacity

    # -- the disk-first format's own structural checks ---------------------------

    def test_validate_catches_missing_inpage_root(self):
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.first_leaf_pid).root_line = -1
        self.assert_corrupt(index, "no root node")

    def test_validate_catches_unallocated_node_lines(self):
        index, __, __ = self.loaded(n=2000)
        page = index.store.page(index.first_leaf_pid)
        page.alloc.free(page.root.line, page.root.width)
        self.assert_corrupt(index, "not allocated")

    def test_validate_catches_inpage_leaf_nodes_out_of_order(self):
        index, __, __ = self.loaded(n=2000)
        first, second = index.store.page(index.first_leaf_pid).leaf_nodes_in_order()[:2]
        second.keys[0] = first.keys[0]  # below the first node's last key
        self.assert_corrupt(index, "out of order")

    def test_validate_catches_dangling_inpage_pointer(self):
        index, __, __ = self.loaded(n=2000)
        page = index.store.page(index.first_leaf_pid)
        assert page.root.kind == NONLEAF
        page.root.ptrs[0] = max(page.nodes) + 1
        self.assert_corrupt(index, "dangling")

    def test_validate_catches_lowered_inpage_separator(self):
        """A lowered in-page separator strands keys of the node to its left."""
        index, keys, __ = self.loaded(n=5000)
        root = index.store.page(index.first_leaf_pid).root
        assert root.kind == NONLEAF and root.count > 2
        root.keys[1] = root.keys[0] + 1  # below the rest of child 0's keys
        missed = [key for key in keys[:300] if index.search(key) is None]
        assert missed  # the damage is real
        self.assert_corrupt(index, "above its next separator")

    def test_validate_catches_page_total_mismatch(self):
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.first_leaf_pid).total += 1
        self.assert_corrupt(index, "total mismatch")

    def test_validate_catches_jump_pointer_gap(self):
        index, __, __ = self.loaded(n=2000, fill=0.1)
        assert index.height >= 3
        pid = index.page_path(0)[-2]  # the first leaf-parent page
        index.store.page(pid).next_page = INVALID_PAGE_ID
        self.assert_corrupt(index, "jump-pointer")


class TestLineAllocator:
    def test_alloc_and_free(self):
        alloc = LineAllocator(16)
        line = alloc.alloc(3)
        assert line == 1  # line 0 reserved for the header
        assert alloc.free_lines == 16 - 1 - 3
        alloc.free(line, 3)
        assert alloc.free_lines == 15

    def test_contiguity_requirement(self):
        alloc = LineAllocator(8)
        a = alloc.alloc(3)  # lines 1-3
        b = alloc.alloc(3)  # lines 4-6
        assert a is not None and b is not None
        alloc.free(a, 3)
        # 4 contiguous lines are not available (1-3 free, 7 free).
        assert alloc.alloc(4) is None
        assert alloc.alloc(3) is not None

    def test_hint_is_respected_when_possible(self):
        alloc = LineAllocator(32)
        line = alloc.alloc(2, hint=10)
        assert line == 10

    def test_hint_wraps_around(self):
        alloc = LineAllocator(8)
        line = alloc.alloc(3, hint=7)  # no room at 7; wraps to 1
        assert line == 1

    def test_double_free_rejected(self):
        alloc = LineAllocator(8)
        line = alloc.alloc(2)
        alloc.free(line, 2)
        with pytest.raises(ValueError):
            alloc.free(line, 2)

    def test_cannot_free_header(self):
        alloc = LineAllocator(8)
        with pytest.raises(ValueError):
            alloc.free(0, 1)

    def test_clear(self):
        alloc = LineAllocator(8)
        alloc.alloc(5)
        alloc.clear()
        assert alloc.free_lines == 7

    def test_failed_free_changes_nothing(self):
        alloc = LineAllocator(8)
        alloc.alloc(2)  # lines 1-2; line 3 is free
        with pytest.raises(ValueError, match="line 3 already free"):
            alloc.free(1, 3)
        assert alloc.is_used(1) and alloc.is_used(2)


class TestDiskFirstStructure:
    def make_tree(self, page_size=1024, **kw):
        return DiskFirstFpTree(TreeEnvironment(page_size=page_size, buffer_pages=512, **kw))

    def test_page_fanout_matches_optimizer(self):
        for page_size in (4096, 8192, 16384):
            widths = optimize_disk_first(page_size)
            tree = DiskFirstFpTree(TreeEnvironment(page_size=page_size, buffer_pages=256))
            assert tree.layout.page_fanout == widths.page_fanout

    def test_bulkload_builds_inpage_trees(self):
        tree = self.make_tree(page_size=4096)
        n = 5 * tree.layout.page_fanout
        keys = dense_keys(n)
        tree.bulkload(keys, keys)
        root_page = tree.store.page(tree.root_pid)
        assert root_page.level >= 1
        # Leaf pages must have multi-node in-page trees.
        leaf = tree.store.page(tree.first_leaf_pid)
        kinds = {node.kind for node in leaf.nodes.values()}
        assert kinds == {LEAF, NONLEAF}
        tree.validate()

    def test_leaf_page_entries_spread_evenly(self):
        tree = self.make_tree(page_size=4096)
        keys = dense_keys(tree.layout.page_fanout)  # exactly one full page
        tree.bulkload(keys, keys, fill=0.7)
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            counts = [n.count for n in page.leaf_nodes_in_order() if n.count]
            assert max(counts) - min(counts) <= 1

    def test_interior_pages_packed(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(30000)
        tree.bulkload(keys, keys)
        root_page = tree.store.page(tree.root_pid)
        nodes = root_page.leaf_nodes_in_order()
        # All but the last in-page leaf node of a packed page are full.
        for node in nodes[:-1]:
            assert node.count == node.capacity

    def test_inserts_into_fresh_tree_split_nodes_not_pages(self):
        """Growing from empty: in-page node splits happen long before any
        page split (free line slots absorb growth)."""
        tree = self.make_tree(page_size=4096)
        for key in range(200):
            tree.insert(key, key)
        assert tree.node_splits > 0
        assert tree.page_splits == 0
        tree.validate()

    def test_bulkloaded_leaf_pages_reorganize_not_node_split(self):
        """Bulkload allocates all in-page leaf nodes, so a full node in a
        non-full page reorganizes instead of splitting (Section 3.1.2)."""
        tree = self.make_tree(page_size=4096)
        keys = dense_keys(2 * tree.layout.page_fanout)
        tree.bulkload(keys, keys, fill=0.7)
        for key in range(2, 3000, 6):
            tree.insert(key, key)
        assert tree.reorganizations > 0
        tree.validate()

    def test_full_tree_insertion_triggers_page_splits(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(3000)
        tree.bulkload(keys, keys, fill=1.0)
        rng = np.random.default_rng(3)
        for key in rng.integers(1, 9000, size=500):
            tree.insert(int(key), 1)
        assert tree.page_splits > 0
        tree.validate()

    def test_reorganize_avoids_page_split(self):
        """A page with free fan-out but fragmented lines reorganizes in place."""
        tree = self.make_tree(page_size=4096)
        keys = dense_keys(tree.layout.page_fanout // 2)
        tree.bulkload(keys, keys, fill=0.5)
        rng = np.random.default_rng(9)
        pages_before = tree.num_pages
        # Hammer one region to split nodes until lines run out.
        for key in sorted(rng.choice(np.arange(2, keys[-1]), size=600, replace=False)):
            key = int(key)
            if (key - 10) % 3 != 0:
                tree.insert(key, key)
        tree.validate()

    def test_jump_pointer_array_lists_all_leaves(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(20000)
        tree.bulkload(keys, keys)
        assert tree.height >= 2
        assert tree.leaf_pids_via_jump_pointers() == tree.leaf_page_ids()

    def test_jump_pointers_survive_updates(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(5000)
        tree.bulkload(keys, keys)
        rng = np.random.default_rng(4)
        for key in rng.integers(1, 20000, size=800):
            tree.insert(int(key), 2)
        assert tree.leaf_pids_via_jump_pointers() == tree.leaf_page_ids()
        tree.validate()

    def test_root_placement_varies_when_pages_have_slack(self):
        # Sparse pages have line-slot slack, so top-level node placement is
        # staggered by page id to avoid cache conflicts (Section 4.1).
        trees = []
        lines = set()
        for __ in range(6):
            tree = self.make_tree(page_size=4096)
            for key in range(40):
                tree.insert(key, key)
            # Force a rebuild so the stagger logic runs with this page id.
            pid = tree.root_pid
            page = tree.store.page(pid)
            import numpy as np

            keys, ptrs = page.entries()
            tree._rebuild_page(pid, page, keys, ptrs, spread=True)
            lines.add((pid, page.root_line))
            trees.append(tree)
        hints = {tree.layout.root_hint(p) for p in range(8)}
        assert len(hints) > 1  # the hint function itself varies

    def test_stagger_never_breaks_full_pages(self):
        tree = self.make_tree(page_size=4096)
        keys = dense_keys(10 * tree.layout.page_fanout)
        tree.bulkload(keys, keys, fill=1.0)
        tree.validate()


def in_order_first_key(page):
    """The first key by the in-order walk of every in-page leaf node."""
    for node in page.leaf_nodes_in_order():
        if node.count:
            return int(node.keys[0])
    return None


class TestFirstKeyAndRangeCount:
    def make_tree(self):
        tree = DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=512))
        keys = dense_keys(3000)
        tree.bulkload(keys, keys)
        rng = np.random.default_rng(5)
        fresh = rng.choice(np.arange(1, keys[-1]), size=900, replace=False)
        for key in fresh[fresh % 3 != 1].tolist():  # distinct from the bulkloaded keys
            tree.insert(key, key)
        for key in rng.choice(keys, 400, replace=False).tolist():
            tree.delete(key)
        tree.validate()
        return tree, keys

    def test_first_key_matches_in_order_rule_on_every_page(self):
        tree, __ = self.make_tree()
        assert tree.height > 1 and tree.page_splits > 0
        pages = [tree.store.page(pid) for pid in tree.store.page_ids()]
        assert all(page.first_key() == in_order_first_key(page) for page in pages)

    def test_first_key_skips_an_emptied_leftmost_node(self):
        tree, __ = self.make_tree()
        page = tree.store.page(tree.leaf_page_ids()[5])
        leftmost, second = page.leaf_nodes_in_order()[:2]
        for key in leftmost.keys[: leftmost.count].tolist():
            assert tree.delete(key)
        assert leftmost.count == 0 and page.total > 0
        assert page.first_key() == in_order_first_key(page) == int(second.keys[0])
        for node in page.leaf_nodes_in_order():
            for key in node.keys[: node.count].tolist():
                assert tree.delete(key)
        assert page.total == 0
        assert page.first_key() is None and in_order_first_key(page) is None

    def test_range_count_crosses_an_emptied_page(self):
        tree, keys = self.make_tree()
        pids = tree.leaf_page_ids()
        page = tree.store.page(pids[len(pids) // 2])
        for node in page.leaf_nodes_in_order():
            for key in node.keys[: node.count].tolist():
                assert tree.delete(key)
        assert page.total == 0
        rng = np.random.default_rng(9)
        for start, end in rng.integers(0, keys[-1] + 50, size=(300, 2)).tolist():
            assert tree.range_count(start, end) == tree.range_scan(start, end).count
        assert tree.range_count(0, keys[-1] + 50) == tree.num_entries

    def test_range_count_tracks_pages_emptied_after_their_pairs_were_cached(self):
        # range_count reads first keys from the cached page pairs: a full
        # count caches every leaf's pair, then the first leaf page, a run of
        # three middle ones and the last one are emptied (and one leftmost
        # in-page node), so a stale pair would count deleted entries.
        tree, keys = self.make_tree()
        before = tree.num_entries
        assert tree.range_count(0, keys[-1] + 50) == before
        pids = tree.leaf_page_ids()
        middle = len(pids) // 2
        for pid in [pids[0], *pids[middle:middle + 3], pids[-1]]:
            for node in tree.store.page(pid).leaf_nodes_in_order():
                for key in node.keys[: node.count].tolist():
                    assert tree.delete(key)
        leftmost = tree.store.page(pids[2]).leaf_nodes_in_order()[0]
        for key in leftmost.keys[: leftmost.count].tolist():
            assert tree.delete(key)
        rng = np.random.default_rng(11)
        bounds = rng.integers(0, keys[-1] + 50, size=(300, 2)).tolist()
        for start, end in bounds + [[0, keys[-1] + 50], [keys[0], keys[0]]]:
            assert tree.range_count(start, end) == tree.range_scan(start, end).count
        assert tree.range_count(0, keys[-1] + 50) == tree.num_entries < before


class TestDiskFirstCacheBehaviour:
    def build_pair(self, n=60000, page_size=16384):
        mem = MemorySystem()
        fp = DiskFirstFpTree(TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=1024))
        disk = DiskBPlusTree(TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=1024))
        keys = dense_keys(n)
        with mem.paused():
            fp.bulkload(keys, keys)
            disk.bulkload(keys, keys)
        return fp, disk, mem, keys

    def measure(self, fn, mem, items):
        mem.clear_caches()
        with mem.measure() as phase:
            for item in items:
                fn(item)
        return phase

    def test_search_beats_disk_optimized(self):
        """Figure 10's direction: fpB+-Tree search is faster."""
        fp, disk, mem, keys = self.build_pair()
        rng = np.random.default_rng(1)
        picks = [int(k) for k in rng.choice(keys, size=80)]
        fp_phase = self.measure(fp.search, mem, picks)
        disk_phase = self.measure(disk.search, mem, picks)
        assert fp_phase.total_cycles < disk_phase.total_cycles

    def test_insertion_much_faster_when_not_splitting(self):
        """Figure 13's direction: ~10x+ win from small-node data movement."""
        fp, disk, mem, keys = self.build_pair(page_size=16384)
        # 70%-full trees: no page splits, data movement dominates.
        mem2 = MemorySystem()
        fp2 = DiskFirstFpTree(TreeEnvironment(page_size=16384, mem=mem2, buffer_pages=1024))
        disk2 = DiskBPlusTree(TreeEnvironment(page_size=16384, mem=mem2, buffer_pages=1024))
        with mem2.paused():
            fp2.bulkload(keys, keys, fill=0.7)
            disk2.bulkload(keys, keys, fill=0.7)
        rng = np.random.default_rng(2)
        picks = [int(k) + 1 for k in rng.choice(keys, size=60)]
        fp_phase = self.measure(lambda k: fp2.insert(k, 1), mem2, picks)
        disk_phase = self.measure(lambda k: disk2.insert(k, 1), mem2, picks)
        assert disk_phase.total_cycles > 4 * fp_phase.total_cycles

    def test_range_scan_beats_disk_optimized(self):
        """Figure 15's direction: prefetched leaf nodes win."""
        fp, disk, mem, keys = self.build_pair()
        lo, hi = keys[1000], keys[50000]
        mem.clear_caches()
        with mem.measure() as fp_phase:
            fp_result = fp.range_scan(lo, hi)
        mem.clear_caches()
        with mem.measure() as disk_phase:
            disk_result = disk.range_scan(lo, hi)
        assert fp_result == disk_result
        assert fp_phase.total_cycles < disk_phase.total_cycles

    def test_search_uses_prefetch(self):
        fp, __, mem, keys = self.build_pair(n=5000)
        mem.clear_caches()
        with mem.measure() as phase:
            fp.search(keys[42])
        assert phase.prefetches_issued > 0
