"""Micro-indexing B+-Tree (Lomet's intra-page micro-index, paper Figure 4).

A micro-indexed page is a disk-optimized page with a small extra array — the
*micro-index* — holding the first key of every key sub-array.  A search
first probes the (prefetched) micro-index to pick the sub-array, then binary
searches only that sub-array, cutting the probe misses per page from
~log2(entries/line) + log2(line) to two prefetched fetches.

The micro-index values are always ``keys[j * m]``, so this implementation
derives them from the key array instead of storing a copy — the layout
reserves the region and every search and update is *charged* for reading and
maintaining it, which is what the performance model needs.  Crucially, the
big sorted key/pointer arrays are untouched: insertions still shift half the
page on average, which is why micro-indexing matches fpB+-Trees on search
but collapses on updates (paper Section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..btree.context import TreeEnvironment
from ..btree.keys import TUPLE_ID_SIZE
from ..btree.search import traced_searchsorted
from ..core.optimizer import PAGE_HEADER_BYTES, micro_page_capacity, optimize_micro_index
from .disk_btree import DiskBPlusTree, DiskPage

__all__ = ["MicroIndexTree", "MicroPageLayout"]


@dataclass(frozen=True)
class MicroPageLayout:
    """Byte offsets inside a micro-indexed page.

    Layout: header | micro-index (line-aligned) | key array (line-aligned,
    sub-arrays of ``subarray_keys`` keys) | pointer array.
    """

    page_size: int
    key_size: int
    ptr_size: int
    capacity: int
    subarray_keys: int
    num_subarrays: int
    micro_offset: int
    key_offset: int
    ptr_offset: int

    @classmethod
    def compute(
        cls,
        page_size: int,
        key_size: int,
        subarray_bytes: Optional[int] = None,
        line_size: int = 64,
        t1: int = 150,
        tnext: int = 10,
    ) -> "MicroPageLayout":
        if subarray_bytes is None:
            shape = optimize_micro_index(
                page_size, key_size=key_size, line_size=line_size, t1=t1, tnext=tnext
            )
        else:
            shape = micro_page_capacity(page_size, subarray_bytes, key_size, TUPLE_ID_SIZE, line_size)
        micro_offset = PAGE_HEADER_BYTES
        key_offset = micro_offset + shape.micro_bytes
        key_bytes = -(-shape.capacity * key_size // line_size) * line_size
        ptr_offset = key_offset + key_bytes
        return cls(
            page_size=page_size,
            key_size=key_size,
            ptr_size=TUPLE_ID_SIZE,
            capacity=shape.capacity,
            subarray_keys=shape.subarray_keys,
            num_subarrays=shape.num_subarrays,
            micro_offset=micro_offset,
            key_offset=key_offset,
            ptr_offset=ptr_offset,
        )

    def micro_address(self, base: int, index: int) -> int:
        return base + self.micro_offset + index * self.key_size

    def key_address(self, base: int, slot: int) -> int:
        return base + self.key_offset + slot * self.key_size

    def ptr_address(self, base: int, slot: int) -> int:
        return base + self.ptr_offset + slot * self.ptr_size

    def subarray_of(self, slot: int) -> int:
        return slot // self.subarray_keys

    def used_subarrays(self, count: int) -> int:
        return -(-count // self.subarray_keys) if count else 0


class MicroIndexTree(DiskBPlusTree):
    """Disk-optimized B+-Tree with per-page micro-indexes."""

    name = "micro-indexing"

    def __init__(
        self,
        env: Optional[TreeEnvironment] = None,
        subarray_bytes: Optional[int] = None,
        **env_kwargs,
    ) -> None:
        super().__init__(env, **env_kwargs)
        self.layout = MicroPageLayout.compute(
            self.env.page_size, self.env.keyspec.size, subarray_bytes
        )
        # Rebuild the (empty) root page under the new layout.
        self.store.replace(self.root_pid, DiskPage(self.layout, 0, self.keyspec.dtype))

    # -- two-level in-page search -------------------------------------------------

    def _pick_subarray(
        self, page: DiskPage, base: int, key: int, side: str = "right"
    ) -> tuple[int, int]:
        """Choose the key sub-array for ``key``; returns (start, end) slots.

        Prefetches the micro-index region, binary searches it (the values
        are the first key of each sub-array), then prefetches the selected
        key and pointer sub-arrays together.
        """
        layout = self.layout
        used = layout.used_subarrays(page.count)
        if used <= 1:
            start, end = 0, page.count
            self.tracer.prefetch(layout.key_address(base, 0), page.count * layout.key_size)
            self.tracer.prefetch(layout.ptr_address(base, 0), page.count * layout.ptr_size)
            return start, end
        self.tracer.prefetch(layout.micro_address(base, 0), used * layout.key_size)
        # Virtual micro-index: entry j is keys[j * m], a strided view.
        m = layout.subarray_keys
        position = traced_searchsorted(
            page.keys[: (used - 1) * m + 1 : m], used, key,
            layout.micro_address(base, 0), layout.key_size, self.tracer, side=side,
        )
        subarray = max(position - 1, 0)
        start = subarray * m
        end = min(start + m, page.count)
        span = end - start
        self.tracer.prefetch(layout.key_address(base, start), span * layout.key_size)
        self.tracer.prefetch(layout.ptr_address(base, start), span * layout.ptr_size)
        return start, end

    def _locate_child(self, page: DiskPage, base: int, key: int, side: str = "right") -> int:
        start, end = self._pick_subarray(page, base, key, side=side)
        inner = traced_searchsorted(
            page.keys[start:end], end - start, key,
            self.layout.key_address(base, start), self.layout.key_size, self.tracer,
            side=side,
        )
        return max(start + inner - 1, 0)

    def _locate_slot(self, page: DiskPage, base: int, key: int) -> int:
        # Left-biased sub-array choice keeps the semantics identical to a
        # global bisect_left even when duplicates span sub-array boundaries.
        start, end = self._pick_subarray(page, base, key, side="left")
        inner = traced_searchsorted(
            page.keys[start:end], end - start, key,
            self.layout.key_address(base, start), self.layout.key_size, self.tracer,
            side="left",
        )
        return start + inner

    # -- micro-index maintenance costs ----------------------------------------------

    def _charge_micro_rebuild(self, page: DiskPage, base: int, from_slot: int) -> None:
        """Charge refreshing micro entries from ``from_slot``'s sub-array on.

        An insertion or deletion shifts every key at or after the affected
        slot, so the first key of every later sub-array changes.
        """
        layout = self.layout
        used = layout.used_subarrays(page.count)
        first = layout.subarray_of(min(from_slot, max(page.count - 1, 0)))
        for j in range(first, used):
            self.tracer.read(layout.key_address(base, j * layout.subarray_keys), layout.key_size)
            self.tracer.write(layout.micro_address(base, j), layout.key_size)

    def _insert_into_page(self, page: DiskPage, base: int, slot: int, key: int, ptr: int) -> None:
        super()._insert_into_page(page, base, slot, key, ptr)
        self._charge_micro_rebuild(page, base, slot)

    def _after_page_rebuild(self, page: DiskPage, base: int) -> None:
        self._charge_micro_rebuild(page, base, 0)

    def _after_entry_removed(self, page: DiskPage, base: int, slot: int) -> None:
        self._charge_micro_rebuild(page, base, slot)
