"""Property tests for the checkpoint image and the page codec.

A tree image is a header, the tree's ``TreeMeta`` and ``encode_page`` bytes
for every live page; :func:`repro.image.load_tree_bytes` rebuilds the tree
through the install step WAL recovery shares.  These tests drive all four
disk-resident kinds through random inserts and deletes (page splits,
emptied leaf pages and, on the cache-first tree, overflow pages) and check
that an image survives a load byte for byte, and that every page class
re-encodes its decoded bytes unchanged.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CacheFirstFpTree,
    DiskBPlusTree,
    DiskFirstFpTree,
    ImageFormatError,
    MicroIndexTree,
    TreeEnvironment,
    dump_tree_bytes,
    load_tree_bytes,
)
from repro.dbms import MiniDbms
from repro.image import VERSION, decode_page, encode_page

KINDS = {
    "disk": DiskBPlusTree,
    "micro": MicroIndexTree,
    "fp-disk": DiskFirstFpTree,
    "fp-cache": lambda env: CacheFirstFpTree(env, num_keys_hint=2_000),
}
PAGE_SIZES = (512, 1024, 2048, 4096)


def churned_tree(kind, page_size, n, seed, emptied):
    """Bulkload half of ``n`` keys, insert the rest, then delete a third at
    random plus a contiguous run of ``emptied`` keys (which empties leaf
    pages: deletes are lazy, so a drained page stays in the chain)."""
    tree = KINDS[kind](TreeEnvironment(page_size=page_size, buffer_pages=256))
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.arange(1, 20 * n), size=n, replace=False)
    half = n // 2
    tree.bulkload(np.sort(keys[:half]), np.arange(half))
    for tid, key in enumerate(keys[half:], start=half):
        tree.insert(int(key), tid)
    ordered = np.sort(keys)
    start = int(rng.integers(0, n - emptied)) if emptied < n else 0
    doomed = set(ordered[start : start + emptied].tolist())
    doomed.update(rng.choice(keys, size=n // 3, replace=False).tolist())
    for key in sorted(doomed):
        assert tree.delete(key)
    return tree, keys


def assert_same_tree(original, loaded, probes):
    loaded.validate()
    assert dump_tree_bytes(loaded) == dump_tree_bytes(original)
    assert list(loaded.items()) == list(original.items())
    assert loaded.num_entries == original.num_entries
    assert loaded.leaf_page_ids() == original.leaf_page_ids()
    for key in probes:
        assert loaded.search(int(key)) == original.search(int(key))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(KINDS)),
    page_size=st.sampled_from(PAGE_SIZES),
    n=st.integers(20, 1_200),
    seed=st.integers(0, 2**16),
    emptied=st.integers(0, 200),
)
def test_image_roundtrip_is_byte_identical(kind, page_size, n, seed, emptied):
    tree, keys = churned_tree(kind, page_size, n, seed, emptied)
    data = dump_tree_bytes(tree)
    loaded = load_tree_bytes(data)
    assert dump_tree_bytes(loaded) == data
    assert_same_tree(tree, loaded, keys[::7])
    # The loaded tree keeps working (appends past the largest key split
    # pages, so they allocate from the rebuilt free list), and still
    # round-trips afterwards.
    for key in range(20 * n, 20 * n + n // 2 + 40):
        loaded.insert(key, 1)
    loaded.validate()
    again = load_tree_bytes(dump_tree_bytes(loaded))
    assert_same_tree(loaded, again, keys[::11])


@pytest.mark.parametrize("page_size, n", [(512, 1_500), (1024, 5_000)])
def test_cache_first_overflow_and_empty_leaf_pages_roundtrip(page_size, n):
    tree, keys = churned_tree("fp-cache", page_size, n, seed=3, emptied=300)
    assert tree.overflow_page_count() > 0
    assert any(len(tree.store.page(pid)) == 0 for pid in tree.leaf_page_ids())
    loaded = load_tree_bytes(dump_tree_bytes(tree))
    assert loaded.overflow_page_count() == tree.overflow_page_count()
    assert loaded.root_pid == tree.root_pid
    assert_same_tree(tree, loaded, keys[::5])


def _every_page(kind, page_size):
    tree, __ = churned_tree(kind, page_size, 800, seed=11, emptied=100)
    return tree, [tree.store.page(pid) for pid in sorted(tree.store.page_ids())]


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_index_page_reencodes_to_its_bytes(kind, page_size):
    tree, pages = _every_page(kind, page_size)
    for page in pages:
        data = encode_page(tree, page)
        assert encode_page(tree, decode_page(tree, data)) == data


def test_heap_pages_reencode_to_their_bytes():
    db = MiniDbms(num_rows=300, num_disks=2, page_size=4096, mature=False)
    heap = [db.store.page(pid) for pid in db.table.page_ids()]
    assert heap
    for page in heap:
        data = encode_page(db.index, page)
        assert encode_page(db.index, decode_page(db.index, data)) == data


def test_version_one_image_rejected():
    data = bytearray(dump_tree_bytes(churned_tree("disk", 1024, 200, 1, 0)[0]))
    assert struct.unpack_from("<H", data, 4) == (VERSION,)
    struct.pack_into("<H", data, 4, 1)
    with pytest.raises(ImageFormatError, match="version 1"):
        load_tree_bytes(bytes(data))


def test_short_meta_rejected():
    data = dump_tree_bytes(churned_tree("disk", 1024, 200, 1, 0)[0])
    offset = struct.calcsize("<4sHBIB")  # the meta blob's length (no disk widths)
    assert struct.unpack_from("<I", data, offset) == (20,)
    short = data[:offset] + struct.pack("<I", 4) + data[offset + 4 : offset + 8]
    with pytest.raises(ImageFormatError, match="malformed tree meta"):
        load_tree_bytes(short)


def test_dangling_cache_first_reference_rejected():
    tree, __ = churned_tree("fp-cache", 1024, 400, 2, 0)
    leaf = tree.first_leaf
    while leaf.next_leaf is not None:
        leaf = leaf.next_leaf
    leaf.next_leaf = (tree.first_leaf_pid, tree.slots_per_page + 5)  # no such slot
    with pytest.raises(ImageFormatError, match="dangling reference"):
        load_tree_bytes(dump_tree_bytes(tree))


def test_unknown_page_kind_rejected():
    tree, __ = churned_tree("disk", 1024, 200, 1, 0)
    with pytest.raises(ImageFormatError, match="unknown page kind 9"):
        decode_page(tree, bytes([9]) + encode_page(tree, tree.store.page(tree.root_pid))[1:])
    # The same byte inside an image: the first page's kind follows the
    # header, the (empty) disk widths, the meta blob, the page count, the
    # page id and the page's length.
    data = bytearray(dump_tree_bytes(tree))
    offset = struct.calcsize("<4sHBIB") + 4 + 20 + 4 + 4 + 4
    assert data[offset] == 0  # PAGE_KIND_DISK
    data[offset] = 9
    with pytest.raises(ImageFormatError, match="unknown page kind 9"):
        load_tree_bytes(bytes(data))


def test_overfull_page_rejected():
    tree, __ = churned_tree("disk", 1024, 200, 1, 0)
    data = bytearray(encode_page(tree, tree.store.page(tree.first_leaf_pid)))
    capacity = tree.layout.capacity
    struct.pack_into("<I", data, 2, capacity + 1)  # the page's entry count
    data += bytes(16 * (capacity + 1))
    with pytest.raises(ImageFormatError, match="overfill"):
        decode_page(tree, bytes(data))


def test_page_of_another_tree_kind_rejected():
    disk, __ = churned_tree("disk", 1024, 200, 1, 0)
    fp_cache, __ = churned_tree("fp-cache", 1024, 200, 1, 0)
    data = encode_page(fp_cache, fp_cache.store.page(fp_cache.root_pid))
    with pytest.raises(ImageFormatError):
        decode_page(disk, data)
