"""Frozen pre-batching reference engine (PR 4 baseline).

This module is a verbatim snapshot of :mod:`repro.mem.cache` and
:mod:`repro.mem.hierarchy` as they stood *before* the batched trace engine:
one scalar access at a time, an O(n) list-comprehension scan of the in-flight
fetches on every MSHR reservation, dict-churning LRU updates even for the
direct-mapped L2, and no ``__slots__``.

It is the one reference implementation of the memory model: it shares no
code with :class:`repro.mem.hierarchy.MemorySystem` (its own cache class,
its own MSHR scan, no inlining), so comparing against it can catch a bug in
any of the product engine's helpers.  It must not be "improved":

* **Golden equivalence** — ``tests/test_mem_equivalence.py`` replays the
  committed trace fixture through this engine and through the batched one,
  and checks every ``*_run`` call against the same call here, asserting
  field-identical :class:`~repro.mem.stats.MemoryStats` and clocks.  The
  optimized engine is only correct if it is indistinguishable from this one.
* **Perf trajectory** — ``benchmarks/bench_selfperf.py`` measures both
  engines on the same recorded search workload and records the speedup in
  ``BENCH_selfperf.json``, so later changes can see what each one bought.

The ``*_run`` shims at the bottom of :class:`LegacyMemorySystem` expand
each composite op into the old scalar calls, so the one
:class:`repro.btree.trace.Tracer` drives either engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .config import DEFAULT_CPU, DEFAULT_MEMORY, CpuCostModel, MemoryConfig
from .stats import MemoryStats

__all__ = ["LegacyCache", "LegacyMemorySystem"]


class LegacyCache:
    """Pre-change set-associative cache: LRU via dict delete-reinsert."""

    def __init__(self, size_bytes: int, line_size: int, associativity: int) -> None:
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        if size_bytes % (line_size * associativity):
            raise ValueError("cache size must be divisible by line_size * associativity")
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = size_bytes // (line_size * associativity)
        self._sets: list[dict[int, None]] = [{} for __ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_of(self, line: int) -> dict[int, None]:
        return self._sets[line % self.num_sets]

    def contains(self, line: int) -> bool:
        return line in self._set_of(line)

    def lookup(self, line: int) -> bool:
        cache_set = self._set_of(line)
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line: int) -> Optional[int]:
        cache_set = self._set_of(line)
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = next(iter(cache_set))
            del cache_set[victim]
        cache_set[line] = None
        return victim

    def invalidate(self, line: int) -> bool:
        cache_set = self._set_of(line)
        if line in cache_set:
            del cache_set[line]
            return True
        return False

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class LegacyMemorySystem:
    """Pre-change cycle-accounting model: scalar accesses, O(n) MSHR scan.

    Also exposes the batched entry-point *names* (``read_run`` etc.) so the
    current :class:`~repro.btree.trace.Tracer` can drive a legacy-backed
    tree end-to-end; they are implemented exactly as the old tracer expanded
    them — one scalar call per composite op.
    """

    def __init__(
        self,
        config: MemoryConfig = DEFAULT_MEMORY,
        cpu: CpuCostModel = DEFAULT_CPU,
    ) -> None:
        self.config = config
        self.cpu = cpu
        self.l1 = LegacyCache(config.l1_size, config.line_size, config.l1_assoc)
        self.l2 = LegacyCache(config.l2_size, config.line_size, config.l2_assoc)
        self.stats = MemoryStats()
        self.now: float = 0.0
        self.enabled: bool = True
        self._bus_free: float = 0.0
        self._inflight: dict[int, float] = {}  # line -> completion time

    # -- time charging -------------------------------------------------------

    def busy(self, cycles: float) -> None:
        if not self.enabled or cycles <= 0:
            return
        self.now += cycles
        self.stats.busy_cycles += cycles

    def other_stall(self, cycles: float) -> None:
        if not self.enabled or cycles <= 0:
            return
        self.now += cycles
        self.stats.other_stall_cycles += cycles

    def probe_penalty(self) -> None:
        if not self.enabled:
            return
        compare, mispredict = self.cpu.probe_cost()
        self.busy(compare)
        self.other_stall(mispredict)

    def _dcache_stall(self, cycles: float) -> None:
        if cycles <= 0:
            return
        self.now += cycles
        self.stats.dcache_stall_cycles += cycles

    # -- demand accesses -----------------------------------------------------

    def read(self, address: int, nbytes: int = 4) -> None:
        if not self.enabled:
            return
        for line in self.config.lines_touched(address, nbytes):
            self._touch(line)

    def write(self, address: int, nbytes: int = 4) -> None:
        if not self.enabled:
            return
        for line in self.config.lines_touched(address, nbytes):
            self.stats.accesses += 1
            self.busy(1)
            if self.l1.lookup(line):
                self.stats.l1_hits += 1
                continue
            if line in self._inflight:
                continue
            self._reserve_miss_handler()
            if self.l2.contains(line):
                self.stats.l2_hits += 1
                self._inflight[line] = self.now + self.config.l2_hit_latency
                continue
            start = max(self.now, self._bus_free)
            self._bus_free = start + self.config.bus_cycles_per_access
            self._inflight[line] = start + self.config.memory_latency
            self.stats.store_fetches += 1

    def _touch(self, line: int) -> None:
        self.stats.accesses += 1
        if self.l1.lookup(line):
            self.stats.l1_hits += 1
            return
        completion = self._inflight.pop(line, None)
        if completion is not None:
            self._dcache_stall(completion - self.now)
            self.stats.prefetch_covered += 1
            self._install(line)
            return
        if self.l2.lookup(line):
            self.stats.l2_hits += 1
            self._dcache_stall(self.config.l2_hit_latency)
            self.l1.insert(line)
            return
        start = max(self.now, self._bus_free)
        self._bus_free = start + self.config.bus_cycles_per_access
        completion = start + self.config.memory_latency
        self._dcache_stall(completion - self.now)
        self.stats.memory_fetches += 1
        self._install(line)
        for ahead in range(1, self.config.hardware_prefetch_lines + 1):
            neighbour = line + ahead
            if self.l1.contains(neighbour) or neighbour in self._inflight:
                continue
            if self.l2.contains(neighbour):
                self._inflight[neighbour] = self.now + self.config.l2_hit_latency
                continue
            start = max(self.now, self._bus_free)
            self._bus_free = start + self.config.bus_cycles_per_access
            self._inflight[neighbour] = start + self.config.memory_latency

    def _install(self, line: int) -> None:
        self.l1.insert(line)
        self.l2.insert(line)

    # -- prefetch ------------------------------------------------------------

    def prefetch(self, address: int, nbytes: int) -> None:
        if not self.enabled:
            return
        for line in self.config.lines_touched(address, nbytes):
            self._prefetch_line(line)

    def _prefetch_line(self, line: int) -> None:
        self.busy(self.cpu.prefetch_issue)
        self.stats.prefetches_issued += 1
        if self.l1.contains(line) or line in self._inflight:
            return
        self._reserve_miss_handler()
        if self.l2.contains(line):
            self._inflight[line] = self.now + self.config.l2_hit_latency
            return
        start = max(self.now, self._bus_free)
        self._bus_free = start + self.config.bus_cycles_per_access
        self._inflight[line] = start + self.config.memory_latency

    def _reserve_miss_handler(self) -> None:
        landed = [l for l, t in self._inflight.items() if t <= self.now]  # noqa: E741
        for line in landed:
            del self._inflight[line]
            self._install(line)
        while len(self._inflight) >= self.config.miss_handlers:
            earliest_line = min(self._inflight, key=self._inflight.get)
            completion = self._inflight.pop(earliest_line)
            self._dcache_stall(completion - self.now)
            self._install(earliest_line)

    # -- batched-name compatibility (old tracer expansions) ------------------

    def read_run(self, address: int, nbytes: int = 4) -> int:
        self.read(address, nbytes)
        return len(self.config.lines_touched(address, nbytes)) if self.enabled else 0

    def write_run(self, address: int, nbytes: int = 4) -> int:
        self.write(address, nbytes)
        return len(self.config.lines_touched(address, nbytes)) if self.enabled else 0

    def prefetch_run(self, address: int, nbytes: int) -> int:
        self.prefetch(address, nbytes)
        return len(self.config.lines_touched(address, nbytes)) if self.enabled else 0

    def probe_run(self, address: int, nbytes: int = 4) -> int:
        lines = self.read_run(address, nbytes)
        self.probe_penalty()
        return lines

    # -- control -------------------------------------------------------------

    def clear_caches(self) -> None:
        self.l1.clear()
        self.l2.clear()
        self._inflight.clear()
        self._bus_free = self.now

    def reset(self) -> None:
        self.clear_caches()
        self.now = 0.0
        self._bus_free = 0.0
        self.stats = MemoryStats()

    @contextmanager
    def paused(self) -> Iterator[None]:
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    @contextmanager
    def measure(self) -> Iterator[MemoryStats]:
        before = self.stats.copy()
        phase = MemoryStats()
        yield phase
        delta = self.stats.minus(before)
        for name in (
            "busy_cycles",
            "dcache_stall_cycles",
            "other_stall_cycles",
            "l1_hits",
            "l2_hits",
            "memory_fetches",
            "store_fetches",
            "prefetches_issued",
            "prefetch_covered",
            "accesses",
        ):
            setattr(phase, name, getattr(delta, name))
