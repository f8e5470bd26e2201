"""Tests for the micro-indexing B+-Tree."""

import numpy as np

from repro.baselines import DiskBPlusTree, MicroIndexTree, MicroPageLayout
from repro.btree.context import TreeEnvironment
from repro.mem import MemorySystem

from index_contract import IndexContract, dense_keys


class TestMicroIndexContract(IndexContract):
    def make_index(self, **kwargs):
        kwargs.setdefault("page_size", 1024)
        kwargs.setdefault("buffer_pages", 512)
        return MicroIndexTree(TreeEnvironment(**kwargs))

    SCRUBBED = True

    def root_separators(self, index):
        return index.store.page(index.root_pid).keys

    def first_leaf_node(self, index):
        return index.store.page(index.first_leaf_pid), index.layout.capacity


class TestMicroPageLayout:
    def test_regions_do_not_overlap(self):
        for page_size in (1024, 4096, 8192, 16384, 32768):
            layout = MicroPageLayout.compute(page_size, key_size=4)
            assert layout.micro_offset == 64
            assert layout.key_offset >= layout.micro_offset + layout.num_subarrays * 4
            assert layout.ptr_offset >= layout.key_offset + layout.capacity * 4
            assert layout.ptr_offset + layout.capacity * 4 <= page_size

    def test_explicit_subarray_size(self):
        layout = MicroPageLayout.compute(16384, key_size=4, subarray_bytes=128)
        assert layout.subarray_keys == 32

    def test_key_array_line_aligned(self):
        layout = MicroPageLayout.compute(16384, key_size=4)
        assert layout.key_offset % 64 == 0

    def test_subarray_helpers(self):
        layout = MicroPageLayout.compute(4096, key_size=4, subarray_bytes=128)
        assert layout.subarray_of(0) == 0
        assert layout.subarray_of(32) == 1
        assert layout.used_subarrays(0) == 0
        assert layout.used_subarrays(1) == 1
        assert layout.used_subarrays(33) == 2


class TestMicroSearchBehaviour:
    def build(self, n=40000, page_size=16384):
        mem = MemorySystem()
        micro = MicroIndexTree(TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=1024))
        plain = DiskBPlusTree(TreeEnvironment(page_size=page_size, mem=mem, buffer_pages=1024))
        keys = dense_keys(n)
        with mem.paused():
            micro.bulkload(keys, keys)
            plain.bulkload(keys, keys)
        return micro, plain, mem, keys

    def measure_search(self, tree, mem, keys, count=60, seed=1):
        rng = np.random.default_rng(seed)
        mem.clear_caches()
        with mem.measure() as phase:
            for key in rng.choice(keys, size=count):
                tree.search(int(key))
        return phase

    def test_search_faster_than_plain_btree(self):
        """The paper's headline search claim: micro-indexing beats the baseline."""
        micro, plain, mem, keys = self.build()
        micro_phase = self.measure_search(micro, mem, keys)
        plain_phase = self.measure_search(plain, mem, keys)
        assert micro_phase.total_cycles < plain_phase.total_cycles

    def test_search_uses_prefetches(self):
        micro, __, mem, keys = self.build(n=5000)
        phase = self.measure_search(micro, mem, keys, count=20)
        assert phase.prefetches_issued > 0
        assert phase.prefetch_covered > 0

    def test_insert_as_slow_as_plain_btree(self):
        """Micro-indexing keeps the big arrays, so updates stay expensive."""
        micro, plain, mem, keys = self.build(page_size=16384)
        rng = np.random.default_rng(5)
        picks = [int(k) + 1 for k in rng.choice(keys, size=40)]
        mem.clear_caches()
        with mem.measure() as micro_phase:
            for key in picks:
                micro.insert(key, 1)
        mem.clear_caches()
        with mem.measure() as plain_phase:
            for key in picks:
                plain.insert(key, 1)
        # Within 2x of the baseline (and certainly not an fp-like 10x win).
        assert micro_phase.total_cycles > 0.5 * plain_phase.total_cycles

    def test_same_results_as_plain_btree(self):
        micro, plain, mem, keys = self.build(n=5000)
        with mem.paused():
            for probe in range(0, 20000, 97):
                assert micro.search(probe) == plain.search(probe)
            lo, hi = keys[100], keys[4000]
            assert micro.range_scan(lo, hi) == plain.range_scan(lo, hi)

    def test_micro_pages_hold_more_entries_than_disk_pages(self):
        # Fewer total pages than the plain tree would be wrong: micro-index
        # area costs a little capacity, so page count is slightly higher.
        micro, plain, __, keys = self.build(n=40000)
        assert micro.num_pages >= plain.num_pages
        assert micro.num_pages <= plain.num_pages * 1.1
