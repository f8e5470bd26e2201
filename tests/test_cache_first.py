"""Tests for the cache-first fpB+-Tree."""

import numpy as np

from repro.baselines import DiskBPlusTree
from repro.btree.context import TreeEnvironment
from repro.core.cache_first import PAGE_LEAF, PAGE_NONLEAF, PAGE_OVERFLOW, CacheFirstFpTree
from repro.mem import MemorySystem

from index_contract import IndexContract, dense_keys


class TestCacheFirstContract(IndexContract):
    def make_index(self, **kwargs):
        kwargs.setdefault("page_size", 1024)
        kwargs.setdefault("buffer_pages", 512)
        env_kwargs = {k: v for k, v in kwargs.items() if k != "num_keys_hint"}
        return CacheFirstFpTree(
            TreeEnvironment(**env_kwargs), num_keys_hint=kwargs.get("num_keys_hint", 100_000)
        )

    def root_separators(self, index):
        return index.root.keys

    def first_leaf_node(self, index):
        return index.first_leaf, index.leaf_capacity

    # -- the cache-first format's own structural checks --------------------------

    def test_validate_catches_foreign_page(self):
        index, __, __ = self.loaded(n=2000)
        index.store.allocate(object())
        self.assert_corrupt(index, "foreign page")

    def test_validate_catches_node_location_mismatch(self):
        index, __, __ = self.loaded(n=2000)
        assert index.first_leaf.slot == 0
        index.first_leaf.slot = 1
        self.assert_corrupt(index, "location mismatch")

    def test_validate_catches_page_typing(self):
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.first_leaf_pid).kind = PAGE_NONLEAF
        self.assert_corrupt(index, "leaf node in non-leaf page")
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.root.pid).kind = PAGE_LEAF
        self.assert_corrupt(index, "non-leaf node in leaf page")

    def test_validate_catches_used_count_mismatch(self):
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.first_leaf_pid).used += 1
        self.assert_corrupt(index, "used-count")

    def test_validate_catches_short_child_list(self):
        index, __, __ = self.loaded(n=2000)
        index.root.children.pop()
        self.assert_corrupt(index, "child list")

    def test_validate_catches_wrong_parent_pointer(self):
        index, __, __ = self.loaded(n=2000)
        index.root.children[1].parent = None
        self.assert_corrupt(index, "parent pointer")

    def test_validate_catches_scattered_leaf_page(self):
        """Two leaf nodes swap pages: the slot tables agree, residency does not."""
        index, __, __ = self.loaded(n=2000)
        a = index.first_leaf.next_leaf
        node = a
        while node.pid == a.pid:
            node = node.next_leaf
        b = node.next_leaf
        assert b.pid == node.pid
        index.store.page(a.pid).slots[a.slot] = b
        index.store.page(b.pid).slots[b.slot] = a
        a.pid, a.slot, b.pid, b.slot = b.pid, b.slot, a.pid, a.slot
        self.assert_corrupt(index, "contiguous")

    def test_validate_catches_wrong_back_pointer(self):
        index, __, __ = self.loaded(n=2000)
        index.store.page(index.first_leaf_pid).back_pointer = None
        self.assert_corrupt(index, "back pointer")

    def test_validate_catches_stale_jump_pointer_array(self):
        index, __, __ = self.loaded(n=2000)
        index.jump_pointers.remove(index.leaf_page_ids()[1])
        self.assert_corrupt(index, "jump-pointer")

    def test_validate_catches_broken_leaf_parent_chain(self):
        index, __, __ = self.loaded(n=2000)
        index.first_leaf.parent.next_parent = None
        self.assert_corrupt(index, "leaf-parent")


class TestCacheFirstPlacement:
    def make_tree(self, page_size=4096, n_hint=100_000, **kw):
        return CacheFirstFpTree(
            TreeEnvironment(page_size=page_size, buffer_pages=1024, **kw), num_keys_hint=n_hint
        )

    def test_leaf_pages_hold_only_leaves(self):
        tree = self.make_tree()
        keys = dense_keys(30000)
        tree.bulkload(keys, keys)
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            assert page.kind == PAGE_LEAF
            assert all(node.is_leaf for node in page.nodes())
        tree.validate()

    def test_parent_and_children_share_pages(self):
        """Aggressive placement: some children co-locate with their parent."""
        tree = self.make_tree(page_size=16384)
        keys = dense_keys(200_000)
        tree.bulkload(keys, keys)
        root = tree.root
        assert not root.is_leaf
        same_page = sum(1 for child in root.children if child.pid == root.pid)
        # With 16KB pages / Table 2 geometry, ~22 of 69 children co-locate.
        assert same_page > 0
        assert same_page < root.count

    def test_leaf_parents_in_overflow_pages(self):
        tree = self.make_tree(page_size=4096)
        keys = dense_keys(100_000)
        tree.bulkload(keys, keys)
        assert tree.overflow_page_count() > 0
        kinds = {tree.store.page(pid).kind for pid in tree._overflow_pids}
        assert kinds == {PAGE_OVERFLOW}

    def test_full_levels_matches_paper_example(self):
        # 16KB pages, 704B nodes: 23 slots, 69-way fan-out -> 1 full level.
        tree = self.make_tree(page_size=16384, n_hint=10_000_000)
        if tree.node_bytes == 704:
            assert tree.full_levels == 1
            assert tree.slots_per_page == 23

    def test_leaf_page_contiguity_after_updates(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(3000)
        tree.bulkload(keys, keys)
        rng = np.random.default_rng(8)
        for key in rng.integers(1, 9000, size=800):
            tree.insert(int(key), 7)
        tree.validate()  # includes the contiguous-siblings check
        assert tree.leaf_page_splits > 0

    def test_jump_pointer_array_tracks_leaf_pages(self):
        tree = self.make_tree(page_size=1024)
        keys = dense_keys(5000)
        tree.bulkload(keys, keys)
        assert tree.jump_pointers.to_list() == tree.leaf_page_ids()
        for key in range(2, 5000, 3):
            tree.insert(key, 1)
        assert tree.jump_pointers.to_list() == tree.leaf_page_ids()

    def test_nonleaf_page_split_keeps_subtrees_together(self):
        """Figure 9(c): after heavy growth, non-leaf pages split cleanly."""
        tree = self.make_tree(page_size=1024)
        for key in range(30000):
            tree.insert(key, key)
        assert tree.nonleaf_page_splits > 0
        tree.validate()

    def test_mature_tree_space_overhead_grows(self):
        """Figure 16(b)'s direction: placement decays under churn."""
        bulk = self.make_tree(page_size=1024)
        keys = dense_keys(6000)
        bulk.bulkload(keys, keys)
        mature = self.make_tree(page_size=1024)
        mature.bulkload(keys[:600], [k for k in keys[:600]])
        rng = np.random.default_rng(12)
        for key in keys[600:]:
            mature.insert(key, key)
        assert mature.num_pages > bulk.num_pages
        mature.validate()


class TestCacheFirstCacheBehaviour:
    def build_pair(self, n=60000, page_size=16384):
        mem = MemorySystem()
        cf = CacheFirstFpTree(
            TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=2048), num_keys_hint=n
        )
        disk = DiskBPlusTree(TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=2048))
        keys = dense_keys(n)
        with mem.paused():
            cf.bulkload(keys, keys)
            disk.bulkload(keys, keys)
        return cf, disk, mem, keys

    def measure(self, fn, mem, items):
        mem.clear_caches()
        with mem.measure() as phase:
            for item in items:
                fn(item)
        return phase

    def test_search_beats_disk_optimized(self):
        cf, disk, mem, keys = self.build_pair()
        rng = np.random.default_rng(1)
        picks = [int(k) for k in rng.choice(keys, size=80)]
        cf_phase = self.measure(cf.search, mem, picks)
        disk_phase = self.measure(disk.search, mem, picks)
        assert cf_phase.total_cycles < disk_phase.total_cycles

    def test_insertion_much_faster_than_disk_optimized(self):
        mem = MemorySystem()
        cf = CacheFirstFpTree(
            TreeEnvironment(page_size=16384, mem=mem, buffer_pages=2048), num_keys_hint=60000
        )
        disk = DiskBPlusTree(TreeEnvironment(page_size=16384, mem=mem, buffer_pages=2048))
        keys = dense_keys(60000)
        with mem.paused():
            cf.bulkload(keys, keys, fill=0.7)
            disk.bulkload(keys, keys, fill=0.7)
        rng = np.random.default_rng(2)
        picks = [int(k) + 1 for k in rng.choice(keys, size=60)]
        cf_phase = self.measure(lambda k: cf.insert(k, 1), mem, picks)
        disk_phase = self.measure(lambda k: disk.insert(k, 1), mem, picks)
        assert disk_phase.total_cycles > 4 * cf_phase.total_cycles

    def test_range_scan_beats_disk_optimized(self):
        cf, disk, mem, keys = self.build_pair()
        lo, hi = keys[1000], keys[50000]
        mem.clear_caches()
        with mem.measure() as cf_phase:
            cf_result = cf.range_scan(lo, hi)
        mem.clear_caches()
        with mem.measure() as disk_phase:
            disk_result = disk.range_scan(lo, hi)
        assert cf_result == disk_result
        assert cf_phase.total_cycles < disk_phase.total_cycles

    def test_same_page_descent_skips_buffer_manager(self):
        """Section 3.2.2: child on the same page costs no pool access."""
        cf, __, mem, keys = self.build_pair(n=200_000)
        mem.clear_caches()
        rng = np.random.default_rng(6)
        picks = [int(k) for k in rng.choice(keys, size=60)]
        before = cf.pool.hits + cf.pool.misses
        for key in picks:
            cf.search(key)
        pool_accesses = (cf.pool.hits + cf.pool.misses) - before
        # Co-location makes average page accesses per search less than the
        # number of node levels (some children share the parent's page).
        assert pool_accesses / len(picks) < cf.height - 0.1
