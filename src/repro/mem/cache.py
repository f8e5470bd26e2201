"""Set-associative cache model with LRU replacement.

Caches operate on *line indices* (byte address // line size); the caller is
responsible for the address-to-line mapping (see
:meth:`repro.mem.config.MemoryConfig.line_of`).  Each set is a dict whose
insertion order doubles as the LRU order — re-inserting a resident line
moves it to the most-recently-used end.

:class:`repro.mem.hierarchy.MemorySystem` inlines the lookup into its
batched access loops, reading the set containers directly, and counts hits
and misses in :class:`repro.mem.stats.MemoryStats`; this class owns the
geometry, residency checks, installs and flushes.

Direct-mapped caches (``associativity == 1``, e.g. the paper's 2 MB L2) take
a fast path: each set holds at most one line, so LRU order is meaningless
and residency is a flat-list slot compare — no per-access dict churn.  Both
representations implement identical replacement semantics; only the
bookkeeping cost differs.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Cache"]


class Cache:
    """One level of a set-associative cache, tracked at line granularity."""

    __slots__ = (
        "size_bytes",
        "line_size",
        "associativity",
        "num_sets",
        "_sets",
        "_dm_slots",
    )

    def __init__(self, size_bytes: int, line_size: int, associativity: int) -> None:
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        if size_bytes % (line_size * associativity):
            raise ValueError("cache size must be divisible by line_size * associativity")
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = size_bytes // (line_size * associativity)
        if associativity == 1:
            # Direct-mapped fast path: one slot per set (None = empty).
            self._sets: Optional[list[dict[int, None]]] = None
            self._dm_slots: Optional[list[Optional[int]]] = [None] * self.num_sets
        else:
            # One dict per set; keys are line indices, values unused (None).
            self._sets = [{} for __ in range(self.num_sets)]
            self._dm_slots = None

    def contains(self, line: int) -> bool:
        """Check residency without updating LRU order."""
        slots = self._dm_slots
        if slots is not None:
            return slots[line % self.num_sets] == line
        return line in self._sets[line % self.num_sets]

    def insert(self, line: int) -> Optional[int]:
        """Install a line, returning the evicted victim's line index, if any."""
        slots = self._dm_slots
        if slots is not None:
            index = line % self.num_sets
            victim = slots[index]
            if victim == line:
                return None
            slots[index] = line
            return victim
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None  # move to MRU
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = next(iter(cache_set))  # LRU = oldest insertion
            del cache_set[victim]
        cache_set[line] = None
        return victim

    def clear(self) -> None:
        """Empty the cache."""
        slots = self._dm_slots
        if slots is not None:
            for index in range(self.num_sets):
                slots[index] = None
            return
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> int:
        """Total number of lines currently cached."""
        slots = self._dm_slots
        if slots is not None:
            return sum(1 for slot in slots if slot is not None)
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache(size={self.size_bytes}, line={self.line_size}, "
            f"assoc={self.associativity}, resident={self.resident_lines()})"
        )
