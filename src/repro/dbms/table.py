"""Heap table for the mini-DBMS (the paper's Figure 19 substrate).

The paper populates a 12.8 GB table of rows shaped
``(int, int, char(20), int, char(512))`` and indexes the three integer
columns.  :class:`HeapTable` reproduces that shape at configurable scale:
fixed-size rows packed into slotted heap pages, with tuple ids encoding
(page, slot) so index lookups can fetch rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..storage.pager import PageStore

__all__ = ["RowSchema", "HeapPage", "HeapTable", "DEFAULT_SCHEMA"]


@dataclass(frozen=True)
class RowSchema:
    """Fixed-size row layout; sizes in bytes."""

    fields: tuple[tuple[str, int], ...]

    @property
    def row_bytes(self) -> int:
        return sum(size for __, size in self.fields)


#: The paper's row shape: (int, int, char(20), int, char(512)).
DEFAULT_SCHEMA = RowSchema(
    fields=(
        ("k1", 4),
        ("k2", 4),
        ("pad20", 20),
        ("k3", 4),
        ("pad512", 512),
    )
)


class HeapPage:
    """A slotted page of fixed-size rows (integer columns only are stored)."""

    __slots__ = ("count", "capacity", "k1", "k2", "k3")

    def __init__(self, capacity: int) -> None:
        self.count = 0
        self.capacity = capacity
        self.k1 = np.zeros(capacity, dtype=np.uint32)
        self.k2 = np.zeros(capacity, dtype=np.uint32)
        self.k3 = np.zeros(capacity, dtype=np.uint32)


class HeapTable:
    """Append-only heap file of fixed-size rows."""

    def __init__(self, store: PageStore, schema: RowSchema = DEFAULT_SCHEMA) -> None:
        self.store = store
        self.schema = schema
        self.rows_per_page = max(1, (store.page_size - 64) // schema.row_bytes)
        self._page_ids: list[int] = []
        self._tail: Optional[HeapPage] = None
        self.num_rows = 0

    def insert_row(self, k1: int, k2: int, k3: int) -> int:
        """Append a row; returns its tuple id (page index * capacity + slot)."""
        if self._tail is None or self._tail.count >= self.rows_per_page:
            self._tail = HeapPage(self.rows_per_page)
            self._page_ids.append(self.store.allocate(self._tail))
        slot = self._tail.count
        self._tail.k1[slot] = k1
        self._tail.k2[slot] = k2
        self._tail.k3[slot] = k3
        self._tail.count += 1
        self.num_rows += 1
        self.store.mark_dirty(self._page_ids[-1])
        return (len(self._page_ids) - 1) * self.rows_per_page + slot

    def append_rows(self, k1, k2, k3) -> None:
        """Append rows in bulk, column-wise.

        Rows land on the same pages and slots, under the same tuple ids, as
        :meth:`insert_row` called row by row; each page is restamped once.
        """
        columns = [np.asarray(column) for column in (k1, k2, k3)]
        total = len(columns[0])
        start = 0
        while start < total:
            if self._tail is None or self._tail.count >= self.rows_per_page:
                self._tail = HeapPage(self.rows_per_page)
                self._page_ids.append(self.store.allocate(self._tail))
            tail = self._tail
            take = min(self.rows_per_page - tail.count, total - start)
            rows = slice(tail.count, tail.count + take)
            for target, column in zip((tail.k1, tail.k2, tail.k3), columns):
                target[rows] = column[start : start + take]
            tail.count += take
            self.store.mark_dirty(self._page_ids[-1])
            start += take
        self.num_rows += total

    def rebind(self, page_ids: list[int]) -> None:
        """Adopt a recovered store's surviving heap pages.

        ``page_ids`` is the pre-crash page list (its order defines tuple
        ids).  The table is append-only, so recovery may only have dropped
        a suffix — a tail page allocated by an uncommitted transaction;
        a missing page anywhere else means the image is corrupt.
        """
        survivors = [pid for pid in page_ids if pid in self.store]
        if survivors != page_ids[: len(survivors)]:
            missing = [pid for pid in page_ids if pid not in self.store]
            raise ValueError(f"non-suffix heap pages missing after recovery: {missing}")
        self._page_ids = survivors
        self._tail = self.store.page(survivors[-1]) if survivors else None
        self.num_rows = sum(self.store.page(pid).count for pid in survivors)

    def tid_to_location(self, tid: int) -> tuple[int, int]:
        """(page id, slot) for a tuple id."""
        page_index, slot = divmod(tid, self.rows_per_page)
        if page_index >= len(self._page_ids):
            raise KeyError(f"tuple id {tid} out of range")
        return self._page_ids[page_index], slot

    def fetch(self, tid: int) -> tuple[int, int, int]:
        """Read a row's integer columns by tuple id."""
        pid, slot = self.tid_to_location(tid)
        page = self.store.page(pid)
        if slot >= page.count:
            raise KeyError(f"tuple id {tid} is not a live row")
        return int(page.k1[slot]), int(page.k2[slot]), int(page.k3[slot])

    def page_ids(self) -> list[int]:
        return list(self._page_ids)

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (tid, k1, k2, k3) for every row."""
        tid = 0
        for pid in self._page_ids:
            page = self.store.page(pid)
            for slot in range(page.count):
                yield tid, int(page.k1[slot]), int(page.k2[slot]), int(page.k3[slot])
                tid += 1

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.schema.row_bytes
