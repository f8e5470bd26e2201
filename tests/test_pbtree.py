"""Tests for the prefetching B+-Tree (pB+-Tree) baseline."""

import numpy as np

from repro.baselines import DiskBPlusTree, PrefetchingBPlusTree
from repro.btree.context import TreeEnvironment
from repro.mem import MemorySystem

from index_contract import IndexContract, dense_keys


class TestPBTreeContract(IndexContract):
    def make_index(self, **kwargs):
        return PrefetchingBPlusTree(**kwargs)

    def root_separators(self, index):
        return index.root.keys

    def first_leaf_node(self, index):
        return index.first_leaf, index.capacity

    def test_validate_catches_short_child_list(self):
        index, __, __ = self.loaded(n=2000)
        index.root.children.pop()
        self.assert_corrupt(index, "child count")

    def test_partial_fill_uses_more_pages(self):
        full = self.make_index()
        full.bulkload(dense_keys(self.N), dense_keys(self.N), fill=1.0)
        sparse = self.make_index()
        sparse.bulkload(dense_keys(self.N), dense_keys(self.N), fill=0.6)
        assert sparse.num_nodes > full.num_nodes

    def test_leaf_page_ids_nonempty_and_unique(self):
        # Memory-resident: consecutive leaves map to page regions; ids are
        # increasing but NOT unique (several nodes share a page region).
        index, __, __ = self.loaded()
        pids = index.leaf_page_ids()
        assert len(pids) > 1
        assert pids == sorted(pids)


class TestPBTreeGeometry:
    def test_default_width_is_eight_lines(self):
        tree = PrefetchingBPlusTree()
        assert tree.node_bytes == 8 * 64
        assert tree.capacity == (512 - 8) // 8

    def test_node_addresses_line_aligned(self):
        tree = PrefetchingBPlusTree()
        tree.bulkload(dense_keys(5000), dense_keys(5000))
        node = tree.first_leaf
        while node is not None:
            assert node.address % 64 == 0
            node = node.next_leaf

    def test_height_shallower_than_binary(self):
        tree = PrefetchingBPlusTree()
        n = 100_000
        tree.bulkload(dense_keys(n), dense_keys(n))
        assert tree.height <= 4  # 63-ary tree: 63^3 > 100k


class TestPBTreeCacheBehaviour:
    def build(self, n=200_000):
        mem = MemorySystem()
        tree = PrefetchingBPlusTree(mem=mem)
        keys = dense_keys(n)
        with mem.paused():
            tree.bulkload(keys, keys)
        return tree, mem, keys

    def test_node_fetch_is_pipelined(self):
        """One node costs ~T1 + (w-1)*Tnext, not w*T1."""
        tree, mem, keys = self.build(n=5000)
        mem.clear_caches()
        with mem.measure() as phase:
            tree.search(keys[123])
        w = tree.node_bytes // 64
        per_node_pipelined = 150 + (w - 1) * 10
        assert phase.dcache_stall_cycles < tree.height * per_node_pipelined * 1.25
        assert phase.dcache_stall_cycles < tree.height * w * 150 * 0.5

    def test_search_beats_disk_optimized_tree(self):
        """Reproduces the direction of Figure 3(b)."""
        n = 200_000
        mem = MemorySystem()
        pb = PrefetchingBPlusTree(mem=mem)
        disk = DiskBPlusTree(TreeEnvironment(page_size=8192, mem=mem, buffer_pages=2048))
        keys = dense_keys(n)
        with mem.paused():
            pb.bulkload(keys, keys)
            disk.bulkload(keys, keys)
        rng = np.random.default_rng(2)
        picks = [int(k) for k in rng.choice(keys, size=100)]
        mem.clear_caches()
        with mem.measure() as pb_phase:
            for key in picks:
                pb.search(key)
        mem.clear_caches()
        with mem.measure() as disk_phase:
            for key in picks:
                disk.search(key)
        assert pb_phase.total_cycles < disk_phase.total_cycles
        # Data-cache stalls are where the win comes from.
        assert pb_phase.dcache_stall_cycles < disk_phase.dcache_stall_cycles

    def test_leaves_span_many_pages(self):
        """The disk-hostility the paper motivates fpB+-Trees with."""
        tree, __, __ = self.build(n=200_000)
        pids = tree.leaf_page_ids()
        distinct_transitions = sum(1 for a, b in zip(pids, pids[1:]) if a != b)
        # A 16KB page holds 32 nodes; every ~32nd leaf crosses a page.
        assert distinct_transitions >= len(pids) // 40
