"""Tests for the disk-optimized B+-Tree baseline."""

import numpy as np
import pytest

from repro.baselines import DiskBPlusTree, DiskPageLayout
from repro.btree import KEY8
from repro.btree.context import TreeEnvironment
from repro.mem import MemorySystem

from index_contract import IndexContract, dense_keys


class TestDiskBPlusTreeContract(IndexContract):
    def make_index(self, **kwargs):
        kwargs.setdefault("page_size", 1024)
        kwargs.setdefault("buffer_pages", 512)
        return DiskBPlusTree(TreeEnvironment(**kwargs))

    SCRUBBED = True

    def root_separators(self, index):
        return index.store.page(index.root_pid).keys

    def first_leaf_node(self, index):
        return index.store.page(index.first_leaf_pid), index.layout.capacity


class TestDiskPageLayout:
    def test_capacity_matches_paper_example(self):
        # "an 8KB page can hold over 1000 entries" with 4B keys + 4B ids.
        layout = DiskPageLayout.compute(8192, key_size=4)
        assert layout.capacity == 1016

    def test_arrays_fit_in_page(self):
        for page_size in (512, 4096, 8192, 16384, 32768):
            layout = DiskPageLayout.compute(page_size, key_size=4)
            assert layout.ptr_offset + layout.capacity * layout.ptr_size <= page_size
            assert layout.key_offset + layout.capacity * layout.key_size <= layout.ptr_offset

    def test_key8_layout(self):
        layout = DiskPageLayout.compute(4096, key_size=8)
        assert layout.capacity == (4096 - 64) // 12

    def test_addresses(self):
        layout = DiskPageLayout.compute(4096, key_size=4)
        assert layout.key_address(1000, 0) == 1064
        assert layout.key_address(1000, 3) == 1076
        assert layout.ptr_address(1000, 0) == 1000 + layout.ptr_offset

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            DiskPageLayout.compute(64, key_size=4)


class TestDiskTreeStructure:
    def make_tree(self, page_size=1024, **kw):
        return DiskBPlusTree(TreeEnvironment(page_size=page_size, buffer_pages=512, **kw))

    def test_multilevel_after_bulkload(self):
        tree = self.make_tree()
        keys = dense_keys(20000)
        tree.bulkload(keys, keys)
        assert tree.height >= 3
        tree.validate()

    def test_height_grows_on_root_split(self):
        tree = self.make_tree(page_size=512)
        height_before = tree.height
        for key in range(5000):
            tree.insert(key, key)
        assert tree.height > height_before
        tree.validate()

    def test_key8_tree_roundtrip(self):
        tree = self.make_tree(keyspec=KEY8)
        big = 1 << 40
        keys = [big + i * 10 for i in range(2000)]
        tree.bulkload(keys, list(range(2000)))
        assert tree.search(big + 370) == 37
        assert tree.search(big + 371) is None

    def test_leaf_chain_matches_items(self):
        tree = self.make_tree()
        keys = dense_keys(5000)
        tree.bulkload(keys, keys)
        total = 0
        last = -1
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            assert page.level == 0
            assert int(page.keys[0]) > last
            last = int(page.keys[page.count - 1])
            total += page.count
        assert total == len(keys)

    def test_split_counters(self):
        tree = self.make_tree(page_size=512)
        keys = dense_keys(3000)
        tree.bulkload(keys, keys)
        assert tree.leaf_splits == 0
        for key in range(1, 3000, 2):
            if (key - 10) % 3 != 0:
                tree.insert(key, key)
        assert tree.leaf_splits > 0
        tree.validate()


class TestDiskTreeCacheBehaviour:
    """The cost-model properties the paper's Figure 3 analysis relies on."""

    def build(self, n=60000, page_size=8192):
        mem = MemorySystem()
        tree = DiskBPlusTree(
            TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=1024)
        )
        keys = dense_keys(n)
        with mem.paused():
            tree.bulkload(keys, keys)
        mem.clear_caches()
        return tree, mem, keys

    def test_search_charges_dcache_stalls(self):
        tree, mem, keys = self.build()
        tree.search(keys[len(keys) // 2])
        assert mem.stats.dcache_stall_cycles > 0
        assert mem.stats.busy_cycles > 0

    def test_binary_search_misses_scale_with_page_size(self):
        """Bigger pages -> more probe misses per page (poor spatial locality)."""
        stalls = {}
        for page_size in (4096, 32768):
            tree, mem, keys = self.build(page_size=page_size)
            rng = np.random.default_rng(3)
            with mem.measure() as phase:
                for key in rng.choice(keys, size=50):
                    tree.search(int(key))
            stalls[page_size] = phase.dcache_stall_cycles / 50
        # A 32KB page has 8x the entries of a 4KB page: 3 more probe misses
        # per page level, though fewer levels; stalls per search must not
        # drop, and misses per *leaf* page strictly grow.
        assert stalls[32768] >= stalls[4096] * 0.9

    def test_insert_data_movement_dominates(self):
        """Insertion into a big sorted array moves ~half the page."""
        tree, mem, keys = self.build(page_size=32768)
        rng = np.random.default_rng(5)
        with mem.measure() as search_phase:
            for key in rng.choice(keys, size=30):
                tree.search(int(key))
        with mem.measure() as insert_phase:
            for key in rng.choice(keys, size=30):
                tree.insert(int(key) + 1, 1)
        assert insert_phase.total_cycles > 2 * search_phase.total_cycles

    def test_untraced_operations_charge_nothing(self):
        tree, mem, keys = self.build(n=5000)
        with mem.paused():
            tree.search(keys[0])
            tree.insert(keys[0] + 1, 5)
        assert mem.stats.total_cycles == 0

    def test_buffer_pool_overhead_in_busy_time(self):
        tree, mem, keys = self.build(n=5000)
        with mem.measure() as phase:
            tree.search(keys[10])
        # At least one buffer access per level.
        assert phase.busy_cycles >= tree.height * mem.cpu.buffer_pool_access
