"""Tree images: a checkpoint of any index as bytes / a file, and back.

An image is a checkpoint in the write-ahead log's own terms:

* a header — magic, ``VERSION``, tree kind, page size, key size and the
  layout widths the tree constructor needs;
* the tree's :class:`~repro.wal.records.TreeMeta` (root page, height, leaf
  head, entry count), the payload COMMIT and CHECKPOINT records carry;
* ``(page id, encode_page(page))`` for every live page — the codec the WAL
  writes ``PAGE_IMAGE`` records and durable pages with.

:func:`load_tree_bytes` and :func:`repro.wal.recover` both hand their
decoded pages to :func:`install_pages`, the one step that turns pages plus
a ``TreeMeta`` into a live tree at the *same page ids*, so disk-layout-
sensitive experiments (striping, seek distances) behave identically across
a save/load cycle.

All four disk-resident structures are supported: the disk-optimized
B+-Tree, micro-indexing, the disk-first fpB+-Tree and the cache-first
fpB+-Tree.  A cache-first page stores its nodes' links as ``(page id,
slot)`` references; the install step resolves them and rebuilds the parent
pointers, the overflow-page list and the external jump-pointer array.
Anything unrecognized raises ``ImageFormatError``.
"""

from __future__ import annotations

import io
import struct
from dataclasses import astuple
from typing import BinaryIO, Iterable

import numpy as np

from .baselines.disk_btree import DiskBPlusTree, DiskPage
from .baselines.micro_index import MicroIndexTree
from .btree.base import Index
from .btree.context import TreeEnvironment
from .btree.keys import KEY4, KEY8
from .core.inpage import LEAF, FpPage, InPageNode
from .core.cache_first import PAGE_OVERFLOW, CacheFirstFpTree, CfNode, CfPage
from .core.disk_first import DiskFirstFpTree
from .core.optimizer import CacheFirstWidths, DiskFirstWidths

__all__ = [
    "save_tree",
    "load_tree",
    "dump_tree_bytes",
    "load_tree_bytes",
    "encode_page",
    "decode_page",
    "install_pages",
    "ImageFormatError",
]

MAGIC = b"FPBT"
VERSION = 2

#: Tree kind code -> (tree type, layout-widths struct, the widths of a
#: tree, a tree built on an environment from those widths).  Micro-indexing
#: comes first: it subclasses the disk B+-Tree.
_KINDS = {
    1: (MicroIndexTree, "<I", lambda tree: (tree.layout.subarray_keys * tree.layout.key_size,),
        lambda env, subarray_bytes: MicroIndexTree(env, subarray_bytes=subarray_bytes)),
    0: (DiskBPlusTree, "<", lambda tree: (), DiskBPlusTree),
    2: (DiskFirstFpTree, "<IIIIIIIdd", lambda tree: astuple(tree.layout.widths),
        lambda env, *widths: DiskFirstFpTree(env, widths=DiskFirstWidths(*widths))),
    3: (CacheFirstFpTree, "<IIIIIIdd", lambda tree: astuple(tree.widths),
        lambda env, *widths: CacheFirstFpTree(env, widths=CacheFirstWidths(*widths))),
}

PAGE_KIND_DISK = 0  # DiskPage (disk-optimized B+-Tree / micro-indexing)
PAGE_KIND_FP = 1  # FpPage (disk-first fpB+-Tree)
PAGE_KIND_HEAP = 2  # HeapPage (mini-DBMS heap table)
PAGE_KIND_CF = 3  # CfPage (cache-first fpB+-Tree)

_CF_KINDS = ("nonleaf", "overflow", "leaf")
_NO_REF = (0xFFFFFFFF, 0xFFFF)


class ImageFormatError(ValueError):
    """The byte stream is not a valid tree image."""


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
    if count > capacity:
        raise ImageFormatError(f"{count} entries overfill a capacity of {capacity}")
    nbytes = int(np.dtype(dtype).itemsize) * count
    data = src.read(nbytes)
    if len(data) != nbytes:
        raise ImageFormatError("truncated array")
    array = np.zeros(capacity, dtype=dtype)
    array[:count] = np.frombuffer(data, dtype=dtype)
    return array


def _write_blob(out: BinaryIO, data: bytes) -> None:
    _write(out, "<I", len(data))
    out.write(data)


def _read_blob(src: BinaryIO) -> bytes:
    (size,) = _read(src, "<I")
    data = src.read(size)
    if len(data) != size:
        raise ImageFormatError("truncated image")
    return data


# -- per-page-class codecs ------------------------------------------------------------


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


def _ref_of(target) -> tuple[int, int]:
    """A link as ``(pid, slot)``: a node's location, or a not-yet-resolved ref."""
    if target is None:
        return _NO_REF
    return target if isinstance(target, tuple) else (target.pid, target.slot)


def _read_ref(src: BinaryIO):
    ref = _read(src, "<IH")
    return None if ref == _NO_REF else ref


def _write_cf_page(out: BinaryIO, page: CfPage) -> None:
    _write(out, "<BIIIHH", _CF_KINDS.index(page.kind), page.next_page, page.prev_page,
           *_ref_of(page.back_pointer), len(page.slots))
    for node in page.slots:
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
                _write(out, "<IH", *_ref_of(child))
            _write(out, "<IH", *_ref_of(node.next_parent))


def _read_cf_page(src: BinaryIO, tree: CacheFirstFpTree) -> CfPage:
    """A cache-first page whose links are still ``(pid, slot)`` references.

    :func:`install_pages` resolves them once every page is placed; until
    then a node's ``pid`` is unknown (-1).
    """
    kind, next_page, prev_page, bp_pid, bp_slot, slot_count = _read(src, "<BIIIHH")
    if kind >= len(_CF_KINDS):
        raise ImageFormatError(f"unknown cache-first page kind {kind}")
    page = CfPage(_CF_KINDS[kind], slot_count)
    page.next_page = next_page
    page.prev_page = prev_page
    page.back_pointer = None if (bp_pid, bp_slot) == _NO_REF else (bp_pid, bp_slot)
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
            node.next_leaf = _read_ref(src)
        else:
            node.children = [_read(src, "<IH") for __ in range(count)]
            node.next_parent = _read_ref(src)
        node.slot = slot
        page.slots[slot] = node
        page.used += 1
    return page


# -- single-page codec (WAL page images and tree images) --------------------------------


#: Index page kind -> (the tree type it belongs to, its reader).
_INDEX_PAGE_READERS = {
    PAGE_KIND_FP: (DiskFirstFpTree, _read_fp_page),
    PAGE_KIND_DISK: (DiskBPlusTree, _read_disk_page),
    PAGE_KIND_CF: (CacheFirstFpTree, _read_cf_page),
}


def encode_page(tree: Index, page) -> bytes:
    """Serialize one page to self-describing bytes.

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
    elif isinstance(page, CfPage):
        _write(out, "<B", PAGE_KIND_CF)
        _write_cf_page(out, page)
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
    if kind in _INDEX_PAGE_READERS:
        tree_type, read = _INDEX_PAGE_READERS[kind]
        if not isinstance(tree, tree_type):
            raise ImageFormatError(f"page kind {kind} does not belong to a {type(tree).__name__}")
        return read(src, tree)
    if kind == PAGE_KIND_HEAP:
        count, capacity = _read(src, "<II")
        page = HeapPage(capacity)
        page.count = count
        page.k1 = _read_array(src, np.uint32, count, capacity)
        page.k2 = _read_array(src, np.uint32, count, capacity)
        page.k3 = _read_array(src, np.uint32, count, capacity)
        return page
    raise ImageFormatError(f"unknown page kind {kind}")


# -- the install step (shared with WAL recovery) ---------------------------------------


def install_pages(tree: Index, pages: Iterable[tuple[int, object]], meta) -> None:
    """Make ``tree`` hold exactly ``pages`` and the tree metadata ``meta``.

    The one path from decoded pages to a live tree, for images and WAL
    recovery alike: drop the constructor's bootstrap pages, place each
    ``(pid, page)``, resolve cross-page references (cache-first trees
    only), then rebuild the free list and restore ``meta`` (a
    :class:`~repro.wal.records.TreeMeta`).
    """
    store = tree.store
    for pid in list(store.page_ids()):
        store.free(pid)
    tree.pool.clear()
    for pid, page in pages:
        store.place(pid, page)
    if isinstance(tree, CacheFirstFpTree):
        _link_cache_first(tree, meta)
    else:
        tree.root_pid = meta.root_pid
        tree.first_leaf_pid = meta.first_leaf_pid
    store.rebuild_free_list()
    tree.height = meta.height
    tree._entries = meta.entries


def _link_cache_first(tree: CacheFirstFpTree, meta) -> None:
    """Resolve a placed cache-first node graph and find its root."""
    pages = {pid: tree.store.page(pid) for pid in sorted(tree.store.page_ids())}
    for pid, page in pages.items():
        for node in page.nodes():
            node.pid = pid

    def node_at(ref):
        if ref is None:
            return None
        pid, slot = ref
        page = pages.get(pid)
        node = page.slots[slot] if page is not None and slot < len(page.slots) else None
        if node is None:
            raise ImageFormatError(f"dangling reference to page {pid} slot {slot}")
        return node

    for page in pages.values():
        page.back_pointer = node_at(page.back_pointer)
        for node in page.nodes():
            if node.is_leaf:
                node.next_leaf = node_at(node.next_leaf)
                continue
            node.next_parent = node_at(node.next_parent)
            node.children = [node_at(ref) for ref in node.children]
            for child in node.children:
                child.parent = node
    tree._overflow_pids = [pid for pid, page in pages.items() if page.kind == PAGE_OVERFLOW]
    head = pages.get(meta.first_leaf_pid)
    tree.first_leaf = head.first_leaf() if head is not None else None
    if tree.first_leaf is None:
        raise ImageFormatError(f"leaf head page {meta.first_leaf_pid} holds no leaf")
    root = tree.first_leaf
    while root.parent is not None:
        root = root.parent
    if root.pid != meta.root_pid:
        raise ImageFormatError(f"root is on page {root.pid}, the tree meta says {meta.root_pid}")
    tree.root = root
    tree.jump_pointers.build(tree.leaf_page_ids())


# -- tree-level save and load -------------------------------------------------------------


def dump_tree_bytes(tree: Index) -> bytes:
    """Serialize a tree to a bytes object (header, ``TreeMeta``, pages)."""
    from .wal.records import TreeMeta  # local: avoids a package-init cycle

    for kind, (tree_type, widths_fmt, widths_of, __) in _KINDS.items():
        if isinstance(tree, tree_type):
            break
    else:
        raise TypeError(f"cannot serialize index type {type(tree).__name__}")
    out = io.BytesIO()
    _write(out, "<4sHBIB", MAGIC, VERSION, kind, tree.env.page_size, tree.keyspec.size)
    _write(out, widths_fmt, *widths_of(tree))
    meta = TreeMeta(tree.root_pid, tree.height, tree.first_leaf_pid, tree.num_entries)
    _write_blob(out, meta.pack())
    pids = sorted(tree.store.page_ids())
    _write(out, "<I", len(pids))
    for pid in pids:
        _write(out, "<I", pid)
        _write_blob(out, encode_page(tree, tree.store.page(pid)))
    return out.getvalue()


def save_tree(tree: Index, path: str) -> int:
    """Write a tree image to ``path``; returns the byte count."""
    data = dump_tree_bytes(tree)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def load_tree_bytes(data: bytes, **env_kwargs) -> Index:
    """Reconstruct a tree from the bytes produced by :func:`dump_tree_bytes`.

    ``env_kwargs`` (e.g. ``mem=...``, ``buffer_pages=...``) configure the
    fresh :class:`TreeEnvironment` the loaded tree is attached to.
    """
    from .wal.records import TreeMeta  # local: avoids a package-init cycle

    src = io.BytesIO(data)
    magic, version, kind, page_size, key_size = _read(src, "<4sHBIB")
    if magic != MAGIC:
        raise ImageFormatError("bad magic: not a tree image")
    if version != VERSION:
        raise ImageFormatError(f"unsupported image version {version}")
    keyspec = {4: KEY4, 8: KEY8}.get(key_size)
    if keyspec is None:
        raise ImageFormatError(f"unsupported key size {key_size}")
    if kind not in _KINDS:
        raise ImageFormatError(f"unknown tree kind {kind}")
    __, widths_fmt, __, make = _KINDS[kind]
    widths = _read(src, widths_fmt)
    try:
        meta = TreeMeta.unpack(_read_blob(src))
    except struct.error:
        raise ImageFormatError("malformed tree meta") from None

    env_kwargs.setdefault("buffer_pages", 8192)
    tree = make(TreeEnvironment(page_size=page_size, keyspec=keyspec, **env_kwargs), *widths)
    (num_pages,) = _read(src, "<I")
    pages = []
    for __ in range(num_pages):
        (pid,) = _read(src, "<I")
        pages.append((pid, decode_page(tree, _read_blob(src))))
    install_pages(tree, pages, meta)
    return tree


def load_tree(path: str, **env_kwargs) -> Index:
    """Load a tree image from a file."""
    with open(path, "rb") as handle:
        return load_tree_bytes(handle.read(), **env_kwargs)
