"""8-byte-key support across all index structures.

The paper's experiments use 4-byte keys; results for larger keys are in the
technical report.  This module verifies every structure operates correctly
with 8-byte keys and that layouts/optimizers adapt their capacities.
"""

import numpy as np
import pytest

from repro.baselines import DiskBPlusTree, MicroIndexTree, PrefetchingBPlusTree
from repro.btree import KEY8
from repro.btree.base import _PAST_LAST_KEY
from repro.btree.context import TreeEnvironment
from repro.core import (
    CacheFirstFpTree,
    DiskFirstFpTree,
    optimize_cache_first,
    optimize_disk_first,
)

BIG = 1 << 45  # comfortably beyond 32-bit key space

FACTORIES = {
    "disk": lambda: DiskBPlusTree(TreeEnvironment(page_size=2048, keyspec=KEY8, buffer_pages=256)),
    "micro": lambda: MicroIndexTree(TreeEnvironment(page_size=2048, keyspec=KEY8, buffer_pages=256)),
    "fp-disk": lambda: DiskFirstFpTree(TreeEnvironment(page_size=2048, keyspec=KEY8, buffer_pages=256)),
    "fp-cache": lambda: CacheFirstFpTree(
        TreeEnvironment(page_size=2048, keyspec=KEY8, buffer_pages=256), num_keys_hint=10_000
    ),
    "pbtree": lambda: PrefetchingBPlusTree(keyspec=KEY8),
}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_key8_bulkload_and_search(kind):
    tree = FACTORIES[kind]()
    keys = [BIG + i * 1000 for i in range(3000)]
    tids = list(range(3000))
    tree.bulkload(keys, tids)
    assert tree.search(BIG + 777_000) == 777
    assert tree.search(BIG + 777_001) is None
    tree.validate()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_key8_updates(kind):
    tree = FACTORIES[kind]()
    rng = np.random.default_rng(4)
    reference = {}
    for value in rng.integers(0, 1 << 50, size=2000):
        key = int(value)
        if key not in reference:
            tree.insert(key, key % 1_000_000)
            reference[key] = key % 1_000_000
    for key in list(reference)[::5]:
        assert tree.delete(key)
        del reference[key]
    assert tree.num_entries == len(reference)
    for key, tid in list(reference.items())[::37]:
        assert tree.search(key) == tid
    tree.validate()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_key8_range_scan(kind):
    tree = FACTORIES[kind]()
    keys = [BIG + i * 10 for i in range(2000)]
    tree.bulkload(keys, [1] * 2000)
    result = tree.range_scan(BIG + 5000, BIG + 9990)
    assert result.count == 500


def test_key8_keys_up_to_the_cap_route_like_search():
    # Page routing runs in signed 64 bits: keys at the cap must still route
    # to the leaf that search finds, and the untraced count must match.
    assert KEY8.max_key == _PAST_LAST_KEY - 1 == (1 << 63) - 2
    tree = FACTORIES["fp-disk"]()
    keys = list(range(KEY8.max_key - 2999, KEY8.max_key + 1))
    tree.bulkload(keys, list(range(1, 3001)))
    probes = keys[::7] + [key + 1 for key in keys[::7]] + [KEY8.max_key]
    for key in probes:
        leaf = tree.page_path(key)[-1]
        assert tree.leaf_tid(leaf, key) == (tree.search(key) or 0), key
    assert tree.search(KEY8.max_key) == 3000
    assert tree.range_count(keys[0], KEY8.max_key) == 3000
    assert tree.range_scan(keys[0], KEY8.max_key).count == 3000


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_key8_search_is_exact_at_the_cap(kind):
    # Adjacent keys this large share one float64: every comparison must
    # stay in integers.
    tree = FACTORIES[kind]()
    keys = list(range(KEY8.max_key - 2999, KEY8.max_key + 1))
    tree.bulkload(keys, list(range(1, 3001)))
    for slot in range(0, 3000, 7):
        assert tree.search(keys[slot]) == slot + 1, keys[slot]
    assert tree.search(keys[0] - 1) is None


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_key8_rejects_keys_past_the_cap(kind):
    with pytest.raises(ValueError, match="out of range"):
        FACTORIES[kind]().bulkload([1, KEY8.max_key + 1], [1, 2])
    tree = FACTORIES[kind]()
    tree.bulkload([1, 2], [1, 2])
    for key in (KEY8.max_key + 1, (1 << 64) - 1, -1):
        with pytest.raises(ValueError, match="out of range"):
            tree.insert(key, 3)
    tree.insert(KEY8.max_key, 3)
    assert tree.search(KEY8.max_key) == 3


def test_key8_rejects_overflowing_keys_on_key4_tree():
    tree = DiskBPlusTree(TreeEnvironment(page_size=2048, buffer_pages=64))
    with pytest.raises(ValueError):
        tree.bulkload([BIG], [1])


def test_key8_optimizer_reduces_capacities():
    narrow = optimize_disk_first(16384, key_size=4)
    wide = optimize_disk_first(16384, key_size=8)
    assert wide.page_fanout < narrow.page_fanout
    narrow_cf = optimize_cache_first(16384, key_size=4)
    wide_cf = optimize_cache_first(16384, key_size=8)
    assert wide_cf.leaf_capacity < narrow_cf.leaf_capacity


def test_key8_layout_capacity_accounts_for_width():
    tree = FACTORIES["fp-disk"]()
    layout = tree.layout
    nonleaf_bytes = layout.widths.nonleaf_bytes
    assert layout.nonleaf_capacity == (nonleaf_bytes - 4) // (8 + 2)
