"""Reusable conformance suite for every Index implementation.

Each concrete tree's test module subclasses :class:`IndexContract` and
provides ``make_index()``.  The suite checks functional behaviour only
(correctness of search/insert/delete/scan and structural invariants); tree-
specific layout and performance-model properties live in the per-tree test
modules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import IndexCorruptionError, ScanResult
from repro.scrub import scrub_tree


def dense_keys(n, stride=3, start=10):
    """n distinct, sorted keys with gaps (so misses exist between keys)."""
    return list(range(start, start + stride * n, stride))


class IndexContract:
    """Mixin of behavioural tests; subclasses define make_index()."""

    #: Number of keys for the larger tests; subclasses may lower it.
    N = 3000

    #: Whether ``scrub_tree`` covers this kind (the kinds the WAL recovers).
    SCRUBBED = False

    def make_index(self, **kwargs):
        raise NotImplementedError

    def first_leaf_node(self, index):
        """``(node, capacity)``: the first leaf node (or leaf page) and its entry capacity."""
        raise NotImplementedError

    def root_separators(self, index):
        """The root's writable separator array; its first three entries route children 0-2."""
        raise NotImplementedError

    def loaded(self, n=None, fill=1.0, **kwargs):
        n = n if n is not None else self.N
        keys = dense_keys(n)
        tids = [k * 2 + 1 for k in keys]
        index = self.make_index(**kwargs)
        index.bulkload(keys, tids, fill=fill)
        return index, keys, tids

    # -- bulkload + search ---------------------------------------------------

    def test_bulkload_then_search_every_key(self):
        index, keys, tids = self.loaded()
        for key, tid in zip(keys[:: max(1, len(keys) // 200)], tids[:: max(1, len(keys) // 200)]):
            assert index.search(key) == tid
        assert index.search(keys[0]) == tids[0]
        assert index.search(keys[-1]) == tids[-1]

    def test_search_missing_keys(self):
        index, keys, __ = self.loaded()
        assert index.search(keys[0] - 1) is None
        assert index.search(keys[-1] + 1) is None
        assert index.search(keys[0] + 1) is None  # gap between keys

    def test_bulkload_requires_sorted(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.bulkload([5, 3, 4], [1, 2, 3])

    def test_bulkload_requires_empty_tree(self):
        index, __, __ = self.loaded(n=50)
        with pytest.raises(RuntimeError):
            index.bulkload([1, 2, 3], [1, 2, 3])

    def test_bulkload_length_mismatch(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.bulkload([1, 2, 3], [1, 2])

    def test_bulkload_bad_fill_factor(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.bulkload([1, 2], [1, 2], fill=0.0)
        index2 = self.make_index()
        with pytest.raises(ValueError):
            index2.bulkload([1, 2], [1, 2], fill=1.5)

    def test_empty_tree_operations(self):
        index = self.make_index()
        assert index.search(42) is None
        assert index.delete(42) is False
        assert index.range_scan(0, 100) == ScanResult(0, 0)
        assert index.num_entries == 0
        assert list(index.items()) == []

    def test_num_entries_after_bulkload(self):
        index, keys, __ = self.loaded()
        assert index.num_entries == len(keys)

    def test_validate_after_bulkload(self):
        index, __, __ = self.loaded()
        index.validate()

    def test_partial_fill_uses_more_pages(self):
        full, __, __ = self.loaded(fill=1.0)
        sparse, __, __ = self.loaded(fill=0.6)
        assert sparse.num_pages > full.num_pages

    def test_items_sorted_and_complete(self):
        index, keys, tids = self.loaded(n=500)
        got = list(index.items())
        assert got == sorted(zip(keys, tids))

    # -- insertion ---------------------------------------------------------------

    def test_insert_into_empty_tree(self):
        index = self.make_index()
        index.insert(7, 70)
        assert index.search(7) == 70
        assert index.num_entries == 1
        index.validate()

    def test_insert_below_and_above_range(self):
        index, keys, __ = self.loaded(n=500)
        index.insert(1, 11)
        index.insert(keys[-1] + 100, 22)
        assert index.search(1) == 11
        assert index.search(keys[-1] + 100) == 22
        index.validate()

    def test_insert_into_gaps(self):
        index, keys, __ = self.loaded(n=500)
        for key in keys[10:60]:
            index.insert(key + 1, key + 1)
        for key in keys[10:60]:
            assert index.search(key + 1) == key + 1
        index.validate()

    def test_inserts_force_splits(self):
        """Insert into a 100%-full tree so pages/nodes must split."""
        index, keys, __ = self.loaded(fill=1.0)
        rng = np.random.default_rng(7)
        new_keys = rng.choice(np.arange(1, keys[-1], 1), size=600, replace=False)
        inserted = 0
        for key in new_keys:
            key = int(key)
            if key % 3 == 1:  # avoid colliding with bulkloaded keys (k % 3 == 1)
                continue
            index.insert(key, key + 5)
            inserted += 1
        for key in new_keys:
            key = int(key)
            if key % 3 != 1:
                assert index.search(key) == key + 5
        assert index.num_entries == len(keys) + inserted
        index.validate()

    def test_sequential_inserts_from_scratch(self):
        index = self.make_index()
        for key in range(1000):
            index.insert(key, key * 2)
        for key in range(0, 1000, 37):
            assert index.search(key) == key * 2
        assert index.num_entries == 1000
        index.validate()

    def test_reverse_sequential_inserts(self):
        index = self.make_index()
        for key in range(1000, 0, -1):
            index.insert(key, key)
        assert index.num_entries == 1000
        assert [k for k, __ in index.items()] == list(range(1, 1001))
        index.validate()

    def test_duplicate_keys_allowed(self):
        index = self.make_index()
        for __ in range(5):
            index.insert(42, 1)
        assert index.range_scan(42, 42).count == 5
        assert index.search(42) == 1
        index.validate()

    def test_duplicates_spanning_node_boundaries(self):
        """Scans must start at the first duplicate, not the right sibling."""
        index = self.make_index()
        for __ in range(40):
            index.insert(500, 1)
        for key in range(100, 900, 7):
            index.insert(key, 2)
        assert index.range_scan(500, 500).count == 40
        nearby = [k for k in range(100, 900, 7) if 495 <= k <= 505]
        assert index.range_scan(495, 505).count == 40 + len(nearby)
        index.validate()

    # -- deletion -----------------------------------------------------------------

    def test_delete_existing_key(self):
        index, keys, __ = self.loaded(n=500)
        assert index.delete(keys[100]) is True
        assert index.search(keys[100]) is None
        assert index.num_entries == len(keys) - 1
        index.validate()

    def test_delete_missing_key(self):
        index, keys, __ = self.loaded(n=100)
        assert index.delete(keys[0] + 1) is False
        assert index.num_entries == len(keys)

    def test_delete_then_reinsert(self):
        index, keys, __ = self.loaded(n=200)
        index.delete(keys[50])
        index.insert(keys[50], 999)
        assert index.search(keys[50]) == 999
        index.validate()

    def test_delete_many(self):
        index, keys, tids = self.loaded(n=600)
        for key in keys[::2]:
            assert index.delete(key)
        for key, tid in zip(keys, tids):
            expected = None if key % 2 == int(keys[0]) % 2 and key in keys[::2] else tid
        for key, tid in zip(keys[1::2], tids[1::2]):
            assert index.search(key) == tid
        for key in keys[::2]:
            assert index.search(key) is None
        assert index.num_entries == len(keys) // 2
        index.validate()

    def test_delete_entire_tree(self):
        index, keys, __ = self.loaded(n=300)
        for key in keys:
            assert index.delete(key)
        assert index.num_entries == 0
        assert index.range_scan(0, keys[-1] + 10) == ScanResult(0, 0)
        index.validate()

    # -- range scans -----------------------------------------------------------------

    def test_full_range_scan(self):
        index, keys, tids = self.loaded()
        result = index.range_scan(0, keys[-1] + 1)
        assert result.count == len(keys)
        assert result.tid_sum == sum(tids)

    def test_subrange_scan_matches_reference(self):
        index, keys, tids = self.loaded()
        lo, hi = keys[123], keys[456]
        expected = [(k, t) for k, t in zip(keys, tids) if lo <= k <= hi]
        result = index.range_scan(lo, hi)
        assert result.count == len(expected)
        assert result.tid_sum == sum(t for __, t in expected)

    def test_scan_bounds_inclusive(self):
        index, keys, __ = self.loaded(n=100)
        assert index.range_scan(keys[3], keys[3]).count == 1
        assert index.range_scan(keys[3], keys[4]).count == 2

    def test_scan_bounds_between_keys(self):
        index, keys, __ = self.loaded(n=100)
        # Bounds falling in gaps between keys.
        assert index.range_scan(keys[3] + 1, keys[6] - 1).count == 2

    def test_scan_empty_when_inverted(self):
        index, keys, __ = self.loaded(n=100)
        assert index.range_scan(keys[10], keys[5]) == ScanResult(0, 0)

    def test_scan_outside_key_space(self):
        index, keys, __ = self.loaded(n=100)
        assert index.range_scan(0, keys[0] - 1).count == 0
        assert index.range_scan(keys[-1] + 1, keys[-1] + 100).count == 0

    def test_scan_after_mixed_updates(self):
        index, keys, tids = self.loaded(n=800)
        reference = dict(zip(keys, tids))
        rng = np.random.default_rng(11)
        for key in rng.choice(keys, size=100, replace=False):
            index.delete(int(key))
            del reference[int(key)]
        for key in range(2, 2000, 41):
            if key not in reference:
                index.insert(key, key)
                reference[key] = key
        lo, hi = keys[50], keys[-50]
        expected = [(k, t) for k, t in sorted(reference.items()) if lo <= k <= hi]
        result = index.range_scan(lo, hi)
        assert result.count == len(expected)
        assert result.tid_sum == sum(t for __, t in expected)
        index.validate()

    def test_range_count_matches_scan_count(self):
        """Duplicates, splits, emptied pages, inverted and out-of-range bounds."""

        # Defined per call: one @given function per concrete index class.
        # Hypothesis picks the shape; a seeded generator fills in hundreds
        # of operations, enough to split and empty pages.
        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            bulk=st.integers(0, 600),
            updates=st.integers(0, 600),
            key_hi=st.sampled_from([40, 400, 4000]),
            delete_share=st.sampled_from([0.0, 0.5, 0.9]),
            fill=st.sampled_from([0.5, 1.0]),
            wipe=st.booleans(),
        )
        def check(seed, bulk, updates, key_hi, delete_share, fill, wipe):
            rng = np.random.default_rng(seed)
            index = self.make_index()
            if bulk:
                keys = np.sort(rng.integers(5, key_hi, bulk))
                index.bulkload(keys, keys + 1, fill=fill)
            for key in rng.integers(0, key_hi + 60, updates).tolist():
                if rng.random() < delete_share:
                    index.delete(key)
                else:
                    index.insert(key, key + 1)
            if wipe:  # delete a whole key interval: empties the pages inside it
                low = int(rng.integers(0, key_hi))
                for key in range(low, low + key_hi // 2):
                    while index.delete(key):
                        pass
            bounds = rng.integers(0, key_hi + 100, size=(20, 2)).tolist()
            bounds += [[0, key_hi + 100], [0, 4], [key_hi + 60, key_hi + 100], [key_hi, 0]]
            for start, end in bounds:
                assert index.range_count(start, end) == index.range_scan(start, end).count

        check()

    # -- leaf pages -----------------------------------------------------------------

    def test_leaf_page_ids_nonempty_and_unique(self):
        index, __, __ = self.loaded()
        pids = index.leaf_page_ids()
        assert len(pids) > 1
        assert len(set(pids)) == len(pids)

    # -- randomized mixed workload ----------------------------------------------------

    def test_fuzz_against_dict_reference(self):
        rng = np.random.default_rng(1234)
        keys = dense_keys(1500)
        tids = [k + 7 for k in keys]
        index = self.make_index()
        index.bulkload(keys, tids, fill=0.8)
        reference = dict(zip(keys, tids))
        universe = np.arange(1, keys[-1] + 500)
        for step in range(800):
            op = rng.integers(0, 10)
            key = int(rng.choice(universe))
            if op < 4:  # insert
                if key not in reference:
                    index.insert(key, key + 7)
                    reference[key] = key + 7
            elif op < 7:  # delete
                removed = index.delete(key)
                assert removed == (key in reference)
                reference.pop(key, None)
            else:  # search
                assert index.search(key) == reference.get(key)
        assert index.num_entries == len(reference)
        full = index.range_scan(0, int(universe[-1]) + 1)
        assert full.count == len(reference)
        assert full.tid_sum == sum(reference.values())
        index.validate()

    # -- the structural checker catches damage ------------------------------------------

    def assert_corrupt(self, index, match):
        """``validate()`` (and ``scrub_tree`` where it applies) rejects ``index``."""
        with pytest.raises(IndexCorruptionError, match=match):
            index.validate()
        if self.SCRUBBED:
            with pytest.raises(IndexCorruptionError, match=match):
                scrub_tree(index)

    def test_validate_catches_lowered_root_separator(self):
        """Child 0's keys above the lowered separator become unreachable."""
        index, keys, __ = self.loaded(n=2000)
        seps = self.root_separators(index)
        stranded = keys[keys.index(int(seps[1])) - 1]  # child 0's last key
        seps[1] = seps[0] + 1
        assert index.search(stranded) is None  # the damage is real
        self.assert_corrupt(index, "separator")

    def test_validate_catches_raised_root_separator(self):
        """Child 1's first key falls below the raised separator."""
        index, __, __ = self.loaded(n=2000)
        seps = self.root_separators(index)
        stranded = int(seps[1])  # child 1's first key
        seps[1] = stranded + 1
        assert seps[1] < seps[2]
        assert index.search(stranded) is None
        self.assert_corrupt(index, "separator")

    def test_validate_catches_entry_counter_off_by_one(self):
        index, __, __ = self.loaded(n=2000)
        index._entries += 1
        self.assert_corrupt(index, "entry count")

    def test_validate_catches_broken_leaf_chain_link(self):
        index, __, __ = self.loaded(n=2000)
        first = getattr(index, "first_leaf", None)
        if first is not None:  # node objects linked by next_leaf
            first.next_leaf = first.next_leaf.next_leaf
        else:
            page = index.store.page(index.first_leaf_pid)
            page.next_page = index.store.page(page.next_page).next_page
        self.assert_corrupt(index, "chain")

    def test_validate_catches_overfull_node(self):
        index, __, __ = self.loaded(n=2000)
        node, capacity = self.first_leaf_node(index)
        node.count = capacity + 1
        self.assert_corrupt(index, "overfull")
