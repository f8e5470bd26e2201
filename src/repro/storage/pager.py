"""Page store: page-id allocation and the simulated on-disk image.

The :class:`PageStore` owns the mapping from page ids to page objects.  A
"page object" is whatever node/page structure an index defines (see
:mod:`repro.btree`); the store does not interpret it.  Page ids are dense
integers so that striding them across a disk array is trivial, and freed ids
are recycled so space-overhead measurements (paper Figure 16) reflect real
page counts.

Every write (``allocate``/``place``/``replace``) also stamps a **page
checksum**.  Page objects are opaque, so the store models a page's bit
content with a per-page *media token*: the checksum recorded at write time
is a CRC over ``(page_id, token)``, and fault injection corrupts a page by
flipping bits in the token without restamping.  :meth:`checksum` is the
CRC of the current token ("hash the bits as they are now"), computed
whenever the token changes;
:meth:`expected_checksum` returns the value recorded at write time — a
mismatch means the media rotted underneath us, exactly the latent-sector
errors the resilience layer must catch at the buffer-pool boundary.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Iterator, Optional

__all__ = ["PageStore", "page_checksum"]


def page_checksum(page_id: int, token: int) -> int:
    """CRC-32 of a page's simulated bit content."""
    return zlib.crc32(f"{page_id}:{token}".encode())


class PageStore:
    """Allocator and container for disk pages."""

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self._pages: dict[int, Any] = {}
        self._free_ids: list[int] = []
        self._next_id = 0
        self._tokens: dict[int, int] = {}
        #: Checksum recorded at the last write, and of the current token.
        self._checksums: dict[int, int] = {}
        self._current: dict[int, int] = {}
        self._write_counter = 0
        self._corruptions = 0
        self.allocations = 0
        self.frees = 0
        #: Optional hook ``(event, page_id) -> None`` with event one of
        #: ``"alloc"`` / ``"dirty"`` / ``"free"``; the WAL layer's
        #: transaction context registers here to track an update's write
        #: set.  ``None`` (the default) keeps the store observer-free.
        self.write_observer: Optional[Callable[[str, int], None]] = None

    # -- checksums -----------------------------------------------------------

    def _stamp(self, page_id: int) -> None:
        """Record the checksum of a page's content as of this write."""
        self._write_counter += 1
        token = self._write_counter
        self._tokens[page_id] = token
        self._checksums[page_id] = self._current[page_id] = page_checksum(page_id, token)

    def checksum(self, page_id: int) -> int:
        """Checksum of the page's bits *as stored right now*."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        return self._current[page_id]

    def expected_checksum(self, page_id: int) -> int:
        """Checksum recorded when the page was last written."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        return self._checksums[page_id]

    def write_token(self, page_id: int) -> int:
        """The page's media token: restamped by every write of the page.

        A value derived from a page's content stays valid while this token
        is unchanged (``allocate``/``place``/``replace``/``mark_dirty``/
        ``scrub`` all restamp; so does injected corruption).
        """
        return self._tokens[page_id]

    def verify_checksum(self, page_id: int) -> bool:
        """True if the page's current bits still match the written checksum."""
        return self.checksum(page_id) == self._checksums[page_id]

    def corrupt_page(self, page_id: int) -> None:
        """Flip bits in a page's media (fault injection / chaos tests).

        The flip mask is derived from a monotonically increasing counter:
        a constant mask would make corruption self-inverse (two injected
        faults on the same page XOR back to the original token and the
        checksum passes again), silently un-detecting repeated faults.
        """
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        self._corruptions += 1
        # 0x9E3779B1 is odd, so distinct counter values give distinct masks
        # modulo 2**32 and no two corruptions can cancel each other out.
        mask = (0x5A5A5A5A ^ (self._corruptions * 0x9E3779B1)) & 0xFFFFFFFF
        self._tokens[page_id] ^= mask or 1
        self._current[page_id] = page_checksum(page_id, self._tokens[page_id])

    def mark_dirty(self, page_id: int) -> None:
        """Record an in-place mutation of a page's content.

        Restamps the page (the media now holds the new bits) and notifies
        the write observer, if any — this is how an update's write set
        reaches the WAL transaction context.
        """
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        self._stamp(page_id)
        if self.write_observer is not None:
            self.write_observer("dirty", page_id)

    def scrub(self, page_id: int) -> None:
        """Rewrite a page's media from its (intact) page object, restamping."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        self._stamp(page_id)

    # -- allocation ----------------------------------------------------------

    def allocate(self, page: Any) -> int:
        """Store a new page, returning its page id."""
        if self._free_ids:
            page_id = self._free_ids.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = page
        self._stamp(page_id)
        self.allocations += 1
        if self.write_observer is not None:
            self.write_observer("alloc", page_id)
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page id for reuse."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        del self._pages[page_id]
        del self._tokens[page_id]
        del self._checksums[page_id]
        del self._current[page_id]
        self._free_ids.append(page_id)
        self.frees += 1
        if self.write_observer is not None:
            self.write_observer("free", page_id)

    def place(self, page_id: int, page: Any) -> None:
        """Install a page under a specific id (used when loading an image)."""
        if page_id < 0:
            raise ValueError(f"invalid page id {page_id}")
        if page_id in self._pages:
            raise KeyError(f"page {page_id} is already allocated")
        self._pages[page_id] = page
        self._stamp(page_id)
        self._next_id = max(self._next_id, page_id + 1)
        self.allocations += 1

    def rebuild_free_list(self) -> None:
        """Recompute recyclable ids after placing pages at explicit ids."""
        self._free_ids = [
            page_id for page_id in range(self._next_id) if page_id not in self._pages
        ]

    def page(self, page_id: int) -> Any:
        """Fetch the page object for ``page_id``."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} is not allocated") from None

    def replace(self, page_id: int, page: Any) -> None:
        """Overwrite the page object stored under an existing id."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} is not allocated")
        self._pages[page_id] = page
        self._stamp(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def num_pages(self) -> int:
        """Number of live pages (the Figure 16 space metric)."""
        return len(self._pages)

    @property
    def total_bytes(self) -> int:
        """Live pages times page size."""
        return len(self._pages) * self.page_size

    def page_ids(self) -> Iterator[int]:
        """Iterate over live page ids (unspecified order)."""
        return iter(self._pages)
