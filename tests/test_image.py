"""Tests for tree images (save/load round trips)."""

import pytest

from repro import (
    CacheFirstFpTree,
    DiskBPlusTree,
    DiskFirstFpTree,
    ImageFormatError,
    MicroIndexTree,
    TreeEnvironment,
    dump_tree_bytes,
    load_tree,
    load_tree_bytes,
    save_tree,
)
from repro.mem import MemorySystem
from repro.workloads import KeyWorkload, build_mature_tree

FACTORIES = {
    "disk": lambda **kw: DiskBPlusTree(TreeEnvironment(page_size=1024, buffer_pages=256, **kw)),
    "micro": lambda **kw: MicroIndexTree(TreeEnvironment(page_size=1024, buffer_pages=256, **kw)),
    "fp-disk": lambda **kw: DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=256, **kw)),
    "fp-cache": lambda **kw: CacheFirstFpTree(
        TreeEnvironment(page_size=1024, buffer_pages=256, **kw), num_keys_hint=10_000
    ),
}


def mature(kind, n=3000, seed=9):
    tree = FACTORIES[kind]()
    build_mature_tree(tree, KeyWorkload(n, seed=seed), bulk_fraction=0.8)
    return tree


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_roundtrip_preserves_contents(kind):
    original = mature(kind)
    loaded = load_tree_bytes(dump_tree_bytes(original))
    assert loaded.num_entries == original.num_entries
    assert list(loaded.items()) == list(original.items())
    loaded.validate()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_roundtrip_preserves_page_layout(kind):
    """Loaded trees live at the same page ids (disk layout is preserved)."""
    original = mature(kind)
    loaded = load_tree_bytes(dump_tree_bytes(original))
    assert loaded.leaf_page_ids() == original.leaf_page_ids()
    assert loaded.num_pages == original.num_pages


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_loaded_tree_is_fully_operational(kind):
    original = mature(kind)
    workload = KeyWorkload(3000, seed=9)
    loaded = load_tree_bytes(dump_tree_bytes(original))
    # Search.
    probe = int(workload.keys[100])
    assert loaded.search(probe) == original.search(probe)
    # Updates continue to work.
    loaded.insert(1, 11)
    assert loaded.search(1) == 11
    assert loaded.delete(probe)
    # Scans agree with the (unmodified) original modulo the two updates.
    full = loaded.range_scan(0, int(workload.keys[-1]) + 10)
    assert full.count == original.num_entries  # +1 insert, -1 delete
    loaded.validate()


def test_file_roundtrip(tmp_path):
    original = mature("fp-disk")
    path = str(tmp_path / "tree.fpbt")
    nbytes = save_tree(original, path)
    assert nbytes > 0
    loaded = load_tree(path)
    assert list(loaded.items()) == list(original.items())


def test_loaded_tree_can_attach_memory_system(tmp_path):
    original = mature("disk")
    data = dump_tree_bytes(original)
    mem = MemorySystem()
    loaded = load_tree_bytes(data, mem=mem)
    mem.clear_caches()
    loaded.search(int(KeyWorkload(3000, seed=9).keys[50]))
    assert mem.stats.total_cycles > 0


def test_key8_roundtrip():
    from repro.btree import KEY8

    tree = DiskBPlusTree(TreeEnvironment(page_size=1024, keyspec=KEY8, buffer_pages=64))
    keys = [(1 << 40) + i * 5 for i in range(500)]
    tree.bulkload(keys, range(500))
    loaded = load_tree_bytes(dump_tree_bytes(tree))
    assert loaded.search((1 << 40) + 250) == 50
    assert loaded.keyspec.size == 8


def test_bad_magic_rejected():
    with pytest.raises(ImageFormatError):
        load_tree_bytes(b"NOPE" + b"\0" * 100)


def test_truncated_image_rejected():
    data = dump_tree_bytes(mature("disk"))
    with pytest.raises(ImageFormatError):
        load_tree_bytes(data[: len(data) // 2])


def test_empty_tree_roundtrip():
    tree = FACTORIES["fp-disk"]()
    loaded = load_tree_bytes(dump_tree_bytes(tree))
    assert loaded.num_entries == 0
    assert loaded.search(42) is None
    loaded.insert(42, 7)
    assert loaded.search(42) == 7


def test_overflow_pages_restored():
    tree = CacheFirstFpTree(
        TreeEnvironment(page_size=4096, buffer_pages=1024), num_keys_hint=100_000
    )
    workload = KeyWorkload(60_000)
    keys, tids = workload.bulkload_arrays()
    tree.bulkload(keys, tids)
    assert tree.overflow_page_count() > 0
    loaded = load_tree_bytes(dump_tree_bytes(tree))
    assert loaded.overflow_page_count() == tree.overflow_page_count()
    loaded.validate()
