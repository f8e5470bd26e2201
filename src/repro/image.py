"""Tree images: serialize any index to bytes / a file and load it back.

A production index must survive a restart.  ``save_tree`` writes a compact,
versioned binary image of a tree — page table, node contents, sibling
links, and the per-kind metadata (node widths, counters) needed to rebuild
an identical structure — and ``load_tree`` reconstructs it page-for-page at
the *same page ids*, so disk-layout-sensitive experiments (striping, seek
distances) behave identically across a save/load cycle.

All four disk-resident structures are supported:

* disk-optimized B+-Tree and micro-indexing (sorted-array pages),
* disk-first fpB+-Trees (in-page trees at line-granularity slots),
* cache-first fpB+-Trees (node graphs with page/slot references; parent
  pointers, back pointers, sibling chains and the external jump-pointer
  array are reconstructed on load).

The format is self-describing (magic + version + kind) and raises
``ImageFormatError`` on anything it does not recognize.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

import numpy as np

from .baselines.disk_btree import DiskBPlusTree, DiskPage
from .baselines.micro_index import MicroIndexTree
from .btree.base import Index
from .btree.context import TreeEnvironment
from .btree.keys import KEY4, KEY8
from .core.inpage import LEAF, FpPage, InPageNode
from .core.cache_first import CacheFirstFpTree, CfNode, CfPage
from .core.disk_first import DiskFirstFpTree
from .core.optimizer import CacheFirstWidths, DiskFirstWidths

__all__ = [
    "save_tree",
    "load_tree",
    "dump_tree_bytes",
    "load_tree_bytes",
    "encode_page",
    "decode_page",
    "ImageFormatError",
]

MAGIC = b"FPBT"
VERSION = 1

KIND_DISK = 0
KIND_MICRO = 1
KIND_FP_DISK = 2
KIND_FP_CACHE = 3

_KIND_OF_TYPE = {
    MicroIndexTree: KIND_MICRO,  # before DiskBPlusTree: it is a subclass
    DiskBPlusTree: KIND_DISK,
    DiskFirstFpTree: KIND_FP_DISK,
    CacheFirstFpTree: KIND_FP_CACHE,
}

_NO_REF = (0xFFFFFFFF, 0xFFFF)


class ImageFormatError(ValueError):
    """The byte stream is not a valid tree image."""


def _kind_of(tree: Index) -> int:
    for tree_type, kind in _KIND_OF_TYPE.items():
        if isinstance(tree, tree_type):
            return kind
    raise TypeError(f"cannot serialize index type {type(tree).__name__}")


# -- low-level helpers ------------------------------------------------------------


def _write(out: BinaryIO, fmt: str, *values) -> None:
    out.write(struct.pack(fmt, *values))


def _read(src: BinaryIO, fmt: str):
    size = struct.calcsize(fmt)
    data = src.read(size)
    if len(data) != size:
        raise ImageFormatError("truncated image")
    return struct.unpack(fmt, data)


def _write_array(out: BinaryIO, array: np.ndarray, count: int) -> None:
    out.write(array[:count].tobytes())


def _read_array(src: BinaryIO, dtype: np.dtype, count: int, capacity: int) -> np.ndarray:
    nbytes = int(np.dtype(dtype).itemsize) * count
    data = src.read(nbytes)
    if len(data) != nbytes:
        raise ImageFormatError("truncated array")
    array = np.zeros(capacity, dtype=dtype)
    array[:count] = np.frombuffer(data, dtype=dtype)
    return array


# -- per-kind page codecs ----------------------------------------------------------


def _write_disk_page(out: BinaryIO, page: DiskPage) -> None:
    _write(out, "<BIII", page.level, page.count, page.next_page, page.prev_page)
    _write_array(out, page.keys, page.count)
    _write_array(out, page.ptrs, page.count)


def _read_disk_page(src: BinaryIO, tree: DiskBPlusTree) -> DiskPage:
    level, count, next_page, prev_page = _read(src, "<BIII")
    page = DiskPage(tree.layout, level, tree.keyspec.dtype)
    page.count = count
    page.next_page = next_page
    page.prev_page = prev_page
    page.keys = _read_array(src, tree.keyspec.dtype, count, tree.layout.capacity)
    page.ptrs = _read_array(src, np.uint32, count, tree.layout.capacity)
    return page


def _write_fp_page(out: BinaryIO, page: FpPage) -> None:
    nodes = sorted(page.nodes.values(), key=lambda node: node.line)
    _write(out, "<BIHIIH", page.level, page.total, page.root_line,
           page.next_page, page.prev_page, len(nodes))
    for node in nodes:
        _write(out, "<HBH", node.line, node.kind, node.count)
        _write_array(out, node.keys, node.count)
        _write_array(out, node.ptrs, node.count)


def _read_fp_page(src: BinaryIO, tree: DiskFirstFpTree) -> FpPage:
    level, total, root_line, next_page, prev_page, num_nodes = _read(src, "<BIHIIH")
    page = FpPage(level, tree.layout.total_lines)
    page.total = total
    page.root_line = root_line
    page.next_page = next_page
    page.prev_page = prev_page
    for __ in range(num_nodes):
        line, kind, count = _read(src, "<HBH")
        width = tree.layout.lines_needed(kind)
        capacity = tree.layout.leaf_capacity if kind == LEAF else tree.layout.nonleaf_capacity
        got = page.alloc.alloc(width, hint=line)
        if got != line:
            raise ImageFormatError(f"node lines collide at line {line}")
        node = InPageNode(kind, capacity, tree.keyspec.dtype, line, width)
        node.count = count
        node.keys = _read_array(src, tree.keyspec.dtype, count, capacity)
        node.ptrs = _read_array(src, np.uint32, count, capacity)
        page.nodes[line] = node
    return page


def _ref_of(node) -> tuple[int, int]:
    return (node.pid, node.slot) if node is not None else _NO_REF


def _write_cf_page(out: BinaryIO, page: CfPage, kind_codes: dict) -> None:
    _write(out, "<BIIIHH", kind_codes[page.kind], page.next_page, page.prev_page,
           *_ref_of(page.back_pointer), len(page.slots))
    for slot, node in enumerate(page.slots):
        if node is None:
            _write(out, "<B", 0)
            continue
        _write(out, "<BBHB", 1, int(node.is_leaf), node.count, node.in_page_level)
        _write_array(out, node.keys, node.count)
        if node.is_leaf:
            _write_array(out, node.tids, node.count)
            _write(out, "<IH", *_ref_of(node.next_leaf))
        else:
            for child in node.children:
                _write(out, "<IH", child.pid, child.slot)
            _write(out, "<IH", *_ref_of(node.next_parent))


# -- single-page codec (the WAL's page-image payload format) ---------------------------

PAGE_KIND_DISK = 0  # DiskPage (disk-optimized B+-Tree / micro-indexing)
PAGE_KIND_FP = 1  # FpPage (disk-first fpB+-Tree)
PAGE_KIND_HEAP = 2  # HeapPage (mini-DBMS heap table)


def encode_page(tree: Index, page) -> bytes:
    """Serialize one page to self-describing bytes (WAL page images).

    ``tree`` supplies the layout context; the page kind is dispatched on
    the page object's type, so a store mixing index and heap pages (the
    mini DBMS) round-trips every page through the same codec.
    """
    from .dbms.table import HeapPage  # local: avoids a package-init cycle

    out = io.BytesIO()
    if isinstance(page, FpPage):
        _write(out, "<B", PAGE_KIND_FP)
        _write_fp_page(out, page)
    elif isinstance(page, DiskPage):
        _write(out, "<B", PAGE_KIND_DISK)
        _write_disk_page(out, page)
    elif isinstance(page, HeapPage):
        _write(out, "<B", PAGE_KIND_HEAP)
        _write(out, "<II", page.count, page.capacity)
        for column in (page.k1, page.k2, page.k3):
            _write_array(out, column, page.count)
    else:
        raise TypeError(f"cannot encode page type {type(page).__name__}")
    return out.getvalue()


def decode_page(tree: Index, data: bytes):
    """Reconstruct a page object from :func:`encode_page` bytes."""
    from .dbms.table import HeapPage  # local: avoids a package-init cycle

    src = io.BytesIO(data)
    (kind,) = _read(src, "<B")
    if kind == PAGE_KIND_FP:
        if not isinstance(tree, DiskFirstFpTree):
            raise ImageFormatError("fp page image for a non-fp tree")
        return _read_fp_page(src, tree)
    if kind == PAGE_KIND_DISK:
        if not isinstance(tree, DiskBPlusTree):
            raise ImageFormatError("disk page image for a non-disk tree")
        return _read_disk_page(src, tree)
    if kind == PAGE_KIND_HEAP:
        count, capacity = _read(src, "<II")
        page = HeapPage(capacity)
        page.count = count
        page.k1 = _read_array(src, np.uint32, count, capacity)
        page.k2 = _read_array(src, np.uint32, count, capacity)
        page.k3 = _read_array(src, np.uint32, count, capacity)
        return page
    raise ImageFormatError(f"unknown page kind {kind}")


# -- tree-level save ------------------------------------------------------------------


def dump_tree_bytes(tree: Index) -> bytes:
    """Serialize a tree to a bytes object."""
    out = io.BytesIO()
    kind = _kind_of(tree)
    keyspec = tree.keyspec
    _write(out, "<4sHBIB", MAGIC, VERSION, kind, tree.env.page_size, keyspec.size)
    _write(out, "<IQ", tree.num_pages, tree.num_entries)

    if kind in (KIND_DISK, KIND_MICRO):
        _write(out, "<IIII", tree.root_pid, tree.height, tree.first_leaf_pid,
               tree.layout.capacity)
        if kind == KIND_MICRO:
            _write(out, "<I", tree.layout.subarray_keys * tree.layout.key_size)
        for pid in sorted(tree.store.page_ids()):
            _write(out, "<I", pid)
            _write_disk_page(out, tree.store.page(pid))
    elif kind == KIND_FP_DISK:
        widths = tree.layout.widths
        _write(out, "<III", tree.root_pid, tree.height, tree.first_leaf_pid)
        _write(out, "<IIIIIIIdd", widths.nonleaf_bytes, widths.leaf_bytes, widths.levels,
               widths.leaf_nodes, widths.nonleaf_capacity, widths.leaf_capacity,
               widths.page_fanout, widths.cost, widths.cost_ratio)
        for pid in sorted(tree.store.page_ids()):
            _write(out, "<I", pid)
            _write_fp_page(out, tree.store.page(pid))
    else:  # KIND_FP_CACHE
        widths = tree.widths
        _write(out, "<IH", *_ref_of(tree.root))
        _write(out, "<IH", *_ref_of(tree.first_leaf))
        _write(out, "<I", tree.height)
        _write(out, "<IIIIIIdd", widths.node_bytes, widths.nonleaf_capacity,
               widths.leaf_capacity, widths.nodes_per_page, widths.page_fanout,
               widths.levels, widths.cost, widths.cost_ratio)
        kind_codes = {"nonleaf": 0, "overflow": 1, "leaf": 2}
        for pid in sorted(tree.store.page_ids()):
            _write(out, "<I", pid)
            _write_cf_page(out, tree.store.page(pid), kind_codes)
    return out.getvalue()


def save_tree(tree: Index, path: str) -> int:
    """Write a tree image to ``path``; returns the byte count."""
    data = dump_tree_bytes(tree)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


# -- tree-level load --------------------------------------------------------------------


def load_tree_bytes(data: bytes, **env_kwargs) -> Index:
    """Reconstruct a tree from the bytes produced by :func:`dump_tree_bytes`.

    ``env_kwargs`` (e.g. ``mem=...``, ``buffer_pages=...``) configure the
    fresh :class:`TreeEnvironment` the loaded tree is attached to.
    """
    src = io.BytesIO(data)
    magic, version, kind, page_size, key_size = _read(src, "<4sHBIB")
    if magic != MAGIC:
        raise ImageFormatError("bad magic: not a tree image")
    if version != VERSION:
        raise ImageFormatError(f"unsupported image version {version}")
    keyspec = {4: KEY4, 8: KEY8}.get(key_size)
    if keyspec is None:
        raise ImageFormatError(f"unsupported key size {key_size}")
    num_pages, entries = _read(src, "<IQ")

    env_kwargs.setdefault("buffer_pages", 8192)
    env = TreeEnvironment(page_size=page_size, keyspec=keyspec, **env_kwargs)

    if kind in (KIND_DISK, KIND_MICRO):
        return _load_disk_like(src, kind, env, num_pages, entries)
    if kind == KIND_FP_DISK:
        return _load_fp_disk(src, env, num_pages, entries)
    if kind == KIND_FP_CACHE:
        return _load_fp_cache(src, env, num_pages, entries)
    raise ImageFormatError(f"unknown tree kind {kind}")


def load_tree(path: str, **env_kwargs) -> Index:
    """Load a tree image from a file."""
    with open(path, "rb") as handle:
        return load_tree_bytes(handle.read(), **env_kwargs)


def _fresh_store(tree: Index) -> None:
    """Drop the bootstrap page the tree constructor created."""
    for pid in list(tree.store.page_ids()):
        tree.store.free(pid)
        tree.pool.invalidate(pid)


def _load_disk_like(src, kind, env, num_pages, entries):
    root_pid, height, first_leaf, capacity = _read(src, "<IIII")
    if kind == KIND_MICRO:
        (subarray_bytes,) = _read(src, "<I")
        tree = MicroIndexTree(env, subarray_bytes=subarray_bytes)
    else:
        tree = DiskBPlusTree(env)
    if tree.layout.capacity != capacity:
        raise ImageFormatError("page capacity mismatch (different layout parameters)")
    _fresh_store(tree)
    for __ in range(num_pages):
        (pid,) = _read(src, "<I")
        tree.store.place(pid, _read_disk_page(src, tree))
    tree.store.rebuild_free_list()
    tree.root_pid = root_pid
    tree.height = height
    tree.first_leaf_pid = first_leaf
    tree._entries = entries
    return tree


def _load_fp_disk(src, env, num_pages, entries):
    root_pid, height, first_leaf = _read(src, "<III")
    values = _read(src, "<IIIIIIIdd")
    widths = DiskFirstWidths(*values)
    tree = DiskFirstFpTree(env, widths=widths)
    _fresh_store(tree)
    for __ in range(num_pages):
        (pid,) = _read(src, "<I")
        tree.store.place(pid, _read_fp_page(src, tree))
    tree.store.rebuild_free_list()
    tree.root_pid = root_pid
    tree.height = height
    tree.first_leaf_pid = first_leaf
    tree._entries = entries
    return tree


def _load_fp_cache(src, env, num_pages, entries):
    root_ref = tuple(_read(src, "<IH"))
    first_leaf_ref = tuple(_read(src, "<IH"))
    (height,) = _read(src, "<I")
    values = _read(src, "<IIIIIIdd")
    widths = CacheFirstWidths(*values)
    tree = CacheFirstFpTree(env, widths=widths)
    _fresh_store(tree)
    tree._overflow_pids = []

    kind_names = {0: "nonleaf", 1: "overflow", 2: "leaf"}
    pending: list[tuple[CfNode, str, tuple[int, int]]] = []  # deferred refs
    child_refs: dict[int, list[tuple[int, int]]] = {}

    for __ in range(num_pages):
        (pid,) = _read(src, "<I")
        kind_code, next_page, prev_page, bp_pid, bp_slot, slot_count = _read(src, "<BIIIHH")
        page = CfPage(kind_names[kind_code], slot_count)
        page.next_page = next_page
        page.prev_page = prev_page
        if (bp_pid, bp_slot) != _NO_REF:
            pending_back = (bp_pid, bp_slot)
        else:
            pending_back = None
        tree.store.place(pid, page)
        if page.kind == "overflow":
            tree._overflow_pids.append(pid)
        for slot in range(slot_count):
            (present,) = _read(src, "<B")
            if not present:
                continue
            is_leaf, count, in_page_level = _read(src, "<BHB")
            capacity = tree.leaf_capacity if is_leaf else tree.nonleaf_capacity
            node = CfNode(bool(is_leaf), capacity, tree.keyspec.dtype)
            node.count = count
            node.in_page_level = in_page_level
            node.keys = _read_array(src, tree.keyspec.dtype, count, capacity)
            if is_leaf:
                node.tids = _read_array(src, np.uint32, count, capacity)
                pending.append((node, "next_leaf", tuple(_read(src, "<IH"))))
            else:
                child_refs[id(node)] = [tuple(_read(src, "<IH")) for __ in range(count)]
                pending.append((node, "next_parent", tuple(_read(src, "<IH"))))
            node.pid = pid
            node.slot = slot
            page.slots[slot] = node
            page.used += 1
        if pending_back is not None:
            pending.append((page, "back_pointer", pending_back))

    tree.store.rebuild_free_list()

    def resolve(ref: tuple[int, int]):
        if ref == _NO_REF:
            return None
        pid, slot = ref
        node = tree.store.page(pid).slots[slot]
        if node is None:
            raise ImageFormatError(f"dangling reference to page {pid} slot {slot}")
        return node

    for owner, attribute, ref in pending:
        setattr(owner, attribute, resolve(ref))
    for pid in tree.store.page_ids():
        for node in tree.store.page(pid).nodes():
            if not node.is_leaf:
                node.children = [resolve(ref) for ref in child_refs[id(node)]]
                for child in node.children:
                    child.parent = node

    tree.root = resolve(root_ref)
    tree.root.parent = None
    tree.first_leaf = resolve(first_leaf_ref)
    tree.height = height
    tree._entries = entries
    tree.jump_pointers.build(tree.leaf_page_ids())
    return tree
