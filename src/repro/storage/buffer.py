"""Buffer pool with CLOCK replacement.

The pool tracks which pages are resident in which frame, assigns each frame a
base address in the simulated address space (so the cache model sees
realistic, stable addresses), counts hits/misses (the Figure 17 metric), and
charges the buffer-manager instruction overhead to the memory system's busy
time (the paper attributes the disk-optimized baseline's extra busy time to
exactly this overhead).

Replacement is the CLOCK (second-chance) algorithm, as in the paper's own
buffer manager (Section 4.1).  The pool is deliberately single-threaded: no
latching, and pin counts exist only to protect pages across recursive
operations when the pool is very small.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from ..faults.errors import PageChecksumError
from ..mem.hierarchy import MemorySystem
from ..mem.layout import AddressSpace
from ..obs import Observability, bind_counters
from .config import StorageConfig
from .pager import PageStore

__all__ = ["BufferPool", "BufferPoolExhausted"]


class BufferPoolExhausted(RuntimeError):
    """Every frame is pinned; no victim exists.

    Carries pin diagnostics so the caller can see *who* is holding the pool
    hostage instead of guessing from a bare "exhausted" message:
    ``pinned_pages`` maps page id -> pin count, and ``pin_holders`` maps
    page id -> the owner labels passed to :meth:`BufferPool.pinned` (the
    serving layer passes its DES session/request names here, so a
    serving-time pool deadlock names the sessions holding the pins).
    """

    def __init__(
        self,
        frames: int,
        pinned_pages: dict[int, int],
        pin_holders: Optional[dict[int, tuple]] = None,
    ) -> None:
        self.frames = frames
        self.pinned_pages = dict(pinned_pages)
        self.pin_holders = {pid: tuple(owners) for pid, owners in (pin_holders or {}).items()}

        def describe(pid: int, count: int) -> str:
            owners = self.pin_holders.get(pid)
            if owners:
                return f"page {pid} (pins={count}, held by {', '.join(map(str, owners))})"
            return f"page {pid} (pins={count})"

        preview = ", ".join(
            describe(pid, count) for pid, count in list(pinned_pages.items())[:8]
        )
        if len(pinned_pages) > 8:
            preview += f", ... {len(pinned_pages) - 8} more"
        super().__init__(
            f"buffer pool exhausted: all {frames} frames pinned "
            f"({len(pinned_pages)} pinned pages: {preview})"
        )


class BufferPool:
    """CLOCK-replacement buffer pool over a :class:`PageStore`.

    Hit/miss/eviction counters live in the metrics registry behind the
    attribute facade (``pool.hits`` etc.), and the pool emits instant trace
    events for misses, evictions and flush-on-evict when tracing is on.
    """

    hits: int
    misses: int
    checksum_failures: int
    evict_flushes: int

    def __init__(
        self,
        config: StorageConfig,
        store: PageStore,
        mem: Optional[MemorySystem] = None,
        address_space: Optional[AddressSpace] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.mem = mem
        self.obs = obs if obs is not None else Observability()
        self._tracer = self.obs.tracer
        bind_counters(
            self, self.obs.metrics, "pool.",
            ("hits", "misses", "checksum_failures", "evict_flushes"),
        )
        self._residency = self.obs.metrics.gauge("pool.resident_pages")
        #: Verify page checksums on every fill (miss install).  On by
        #: default: the check is cheap and catches media rot at the exact
        #: boundary where a bad page would become visible to readers.
        self.verify_checksums = True
        frames = config.buffer_pool_pages
        self._frame_page: list[int] = [-1] * frames
        self._ref_bit = bytearray(frames)
        self._pin_count: list[int] = [0] * frames
        #: Per-frame owner labels of live pins (parallel to ``_pin_count``);
        #: populated only for pins that pass ``owner=``, so the common
        #: anonymous path costs nothing but an empty list.
        self._pin_owners: list[list[Any]] = [[] for __ in range(frames)]
        #: Per-frame occupancy stamp, renewed from ``_occupancy`` whenever a
        #: frame changes (or loses) its page.  Stamps are unique across
        #: frames, so a pin token alone lets :meth:`unpin` tell "the same
        #: page is back in the same frame" apart from "my pin is still the
        #: holder".
        self._frame_gen: list[int] = [0] * frames
        self._occupancy = 0
        self._page_frame: dict[int, int] = {}
        self._hand = 0
        #: Pages whose in-memory content is newer than the durable image.
        #: Evicting one calls ``flush_hook`` first (flush-on-evict); with no
        #: hook the dirt is simply dropped, preserving the pre-WAL fiction
        #: that memory and disk are the same object.
        self._dirty: set[int] = set()
        #: Pages pinned by the no-steal policy: dirtied by an uncommitted
        #: transaction, so they must never be flushed (and therefore never
        #: evicted) until the transaction commits.
        self._no_steal: set[int] = set()
        #: Called with a page id before its frame is reused while dirty.
        self.flush_hook: Optional[Callable[[int], None]] = None
        self.evict_flushes = 0
        if mem is not None:
            space = address_space if address_space is not None else AddressSpace()
            self._base_address = space.alloc(
                frames * config.page_size, alignment=mem.config.line_size, label="buffer-pool"
            )
        else:
            self._base_address = 0

    # -- residency ---------------------------------------------------------

    def contains(self, page_id: int) -> bool:
        """True if the page is resident (no side effects)."""
        return page_id in self._page_frame

    def frame_of(self, page_id: int) -> Optional[int]:
        """Frame index of a resident page, else None."""
        return self._page_frame.get(page_id)

    def frame_address(self, frame: int) -> int:
        """Simulated base address of a frame."""
        return self._base_address + frame * self.config.page_size

    @property
    def resident_pages(self) -> int:
        return len(self._page_frame)

    # -- the main entry point ------------------------------------------------

    def access(self, page_id: int) -> tuple[Any, int]:
        """Fetch a page through the pool; returns ``(page, base_address)``.

        A miss evicts via CLOCK and installs the page.  Buffer-manager
        instruction overhead is charged to the memory system's busy time.
        """
        frame = self.touch(page_id)
        return self.store.page(page_id), self.frame_address(frame)

    def touch(self, page_id: int) -> int:
        """:meth:`access` without building its result; returns the page's frame.

        The one place a pool access is accounted: the busy charge, a hit
        (reference bit set) or a miss (CLOCK install).  :meth:`pin` and a
        demand read that finds its page resident only need those side
        effects, not the page object or its address.
        """
        if self.mem is not None:
            self.mem.busy(self.mem.cpu.buffer_pool_access)
        frame = self._page_frame.get(page_id)
        if frame is not None:
            self.hits += 1
            self._ref_bit[frame] = 1
            return frame
        self.misses += 1
        return self._install(page_id)

    def address_of(self, page_id: int) -> int:
        """Base address for a page, faulting it in if needed (no busy charge).

        Used for cheap re-derivation of addresses within an operation that
        already paid the buffer-manager cost via :meth:`access`.
        """
        frame = self._page_frame.get(page_id)
        if frame is None:
            self.misses += 1
            frame = self._install(page_id)
        return self.frame_address(frame)

    def install(self, page_id: int) -> int:
        """Make a page resident without touching hit/miss statistics.

        The preload path for "in memory" baseline curves: residency is a
        precondition of those experiments, not a measured event, so
        installing must not pollute the Figure 17-style hit rate.
        Returns the page's frame.
        """
        frame = self._page_frame.get(page_id)
        if frame is None:
            frame = self._install(page_id)
        return frame

    def fill(self, page_id: int, delivered_checksum: Optional[int] = None) -> tuple[Any, int]:
        """Install a page arriving from disk, verifying its checksum.

        ``delivered_checksum`` is the checksum of the bits as the disk
        delivered them (the reader computes it from the read receipt); it is
        compared against the checksum recorded at write time, so both media
        rot and in-flight corruption are caught here — before the page is
        visible to any reader — with a typed :class:`PageChecksumError`.
        """
        if delivered_checksum is not None:
            expected = self.store.expected_checksum(page_id)
            if delivered_checksum != expected:
                self.checksum_failures += 1
                raise PageChecksumError(page_id, expected, delivered_checksum)
        return self.access(page_id)

    def _install(self, page_id: int) -> int:
        if page_id not in self.store:
            raise KeyError(f"page {page_id} does not exist in the store")
        if self.verify_checksums and not self.store.verify_checksum(page_id):
            self.checksum_failures += 1
            raise PageChecksumError(
                page_id,
                self.store.expected_checksum(page_id),
                self.store.checksum(page_id),
            )
        frame = self._find_victim()
        old = self._frame_page[frame]
        if old >= 0:
            if old in self._dirty:
                # Flush-on-evict: the durable image must absorb the page's
                # dirt before the frame is reused.
                if self.flush_hook is not None:
                    self.evict_flushes += 1
                    if self._tracer.enabled:
                        self._tracer.instant("flush", track="pool", cat="pool", page=old)
                    self.flush_hook(old)
                self._dirty.discard(old)
            del self._page_frame[old]
            if self._tracer.enabled:
                self._tracer.instant("evict", track="pool", cat="pool", page=old)
        self._frame_page[frame] = page_id
        self._ref_bit[frame] = 1
        self._restamp(frame)
        self._page_frame[page_id] = frame
        self._residency.set(len(self._page_frame))
        if self._tracer.enabled:
            self._tracer.instant("install", track="pool", cat="pool", page=page_id, frame=frame)
        return frame

    def _restamp(self, frame: int) -> None:
        self._occupancy += 1
        self._frame_gen[frame] = self._occupancy

    def _find_victim(self) -> int:
        frames = len(self._frame_page)
        # Two sweeps suffice: the first clears reference bits, the second
        # must find a frame unless everything is pinned.
        for __ in range(2 * frames + 1):
            frame = self._hand
            self._hand = (self._hand + 1) % frames
            if self._pin_count[frame] > 0:
                continue
            if self._frame_page[frame] in self._no_steal:
                continue
            if self._ref_bit[frame]:
                self._ref_bit[frame] = 0
                continue
            return frame
        pinned = {
            self._frame_page[frame]: self._pin_count[frame]
            for frame in range(frames)
            if self._pin_count[frame] > 0 or self._frame_page[frame] in self._no_steal
        }
        holders = {
            self._frame_page[frame]: tuple(self._pin_owners[frame])
            for frame in range(frames)
            if self._pin_owners[frame]
        }
        raise BufferPoolExhausted(frames, pinned, holders)

    # -- pinning -------------------------------------------------------------

    def pin(self, page_id: int, owner: Any = None) -> int:
        """Fetch a page through the pool and pin it; returns the pin token.

        The page stays resident until :meth:`unpin` with the returned
        token.  ``owner`` (optional) labels the pin for diagnostics: if the
        pool is later exhausted while this pin is live, the
        :class:`BufferPoolExhausted` error names it in ``pin_holders`` —
        the serving layer passes its session/request ids here so pool
        deadlocks under concurrency are attributable.
        """
        frame = self.touch(page_id)
        self._pin_count[frame] += 1
        if owner is not None:
            self._pin_owners[frame].append(owner)
        return self._frame_gen[frame]

    def unpin(self, page_id: int, token: int, owner: Any = None) -> None:
        """Release a pin taken by :meth:`pin`.

        The page may have been invalidated (pin count reset) and the frame
        handed to another occupant while pinned; only unpin if this pin's
        occupancy still holds the frame.  Matching on the page id alone is
        not enough: the same page can be re-installed into the same frame
        after an invalidate, and decrementing then would steal a newer
        holder's pin — the token (the frame's occupancy stamp, unique
        across frames) tells the two occupancies apart.
        """
        frame = self._page_frame.get(page_id)
        if frame is not None and self._frame_gen[frame] == token and self._pin_count[frame] > 0:
            self._pin_count[frame] -= 1
            if owner is not None and owner in self._pin_owners[frame]:
                self._pin_owners[frame].remove(owner)

    @contextmanager
    def pinned(self, page_id: int, owner: Any = None) -> Iterator[Any]:
        """Keep a page resident for the duration of a block (:meth:`pin`)."""
        token = self.pin(page_id, owner)
        try:
            yield self.store.page(page_id)
        finally:
            self.unpin(page_id, token, owner)

    # -- dirty tracking ----------------------------------------------------------

    def mark_dirty(self, page_id: int, no_steal: bool = False) -> None:
        """Flag a resident page as newer than its durable image.

        ``no_steal=True`` additionally exempts the page from eviction until
        :meth:`release_no_steal` — the WAL's no-steal policy for pages
        dirtied by a transaction that has not committed yet.
        """
        self._dirty.add(page_id)
        if no_steal:
            self._no_steal.add(page_id)

    def is_dirty(self, page_id: int) -> bool:
        return page_id in self._dirty

    def mark_clean(self, page_id: int) -> None:
        """Drop a page's dirty flag (its image was just forced to disk)."""
        self._dirty.discard(page_id)

    def release_no_steal(self, page_id: int) -> None:
        """Make a no-steal page evictable again (its transaction committed)."""
        self._no_steal.discard(page_id)

    @property
    def dirty_pages(self) -> set[int]:
        return set(self._dirty)

    # -- maintenance -------------------------------------------------------------

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the pool (e.g. after it was freed).

        Any pins on the page die with it: the pin count must be reset, or
        the frame would be stuck holding a stale nonzero count and be
        excluded from eviction forever.
        """
        frame = self._page_frame.pop(page_id, None)
        if frame is not None:
            self._frame_page[frame] = -1
            self._ref_bit[frame] = 0
            self._pin_count[frame] = 0
            self._pin_owners[frame].clear()
            self._restamp(frame)
            self._residency.set(len(self._page_frame))
        self._dirty.discard(page_id)
        self._no_steal.discard(page_id)

    def clear(self) -> None:
        """Empty the pool — the 'cleared before every experiment' state."""
        for frame in range(len(self._frame_page)):
            self._frame_page[frame] = -1
            self._ref_bit[frame] = 0
            self._pin_count[frame] = 0
            self._pin_owners[frame].clear()
            self._restamp(frame)
        self._page_frame.clear()
        self._residency.set(0)
        self._dirty.clear()
        self._no_steal.clear()
        self._hand = 0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.checksum_failures = 0
        self.evict_flushes = 0
