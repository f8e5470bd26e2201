"""Two-level cache hierarchy with cycle accounting and software prefetch.

:class:`MemorySystem` is the heart of the cache-performance methodology: the
index implementations report every simulated memory reference (demand read,
write, or prefetch) with its byte address and size, and this model advances a
cycle clock, exactly as the paper's trace-driven processor simulator did.

The latency model (all parameters from :class:`repro.mem.config.MemoryConfig`):

* L1 hit — free (folded into the instruction-issue "busy" time).
* L1 miss, L2 hit — ``l2_hit_latency`` stall cycles (15).
* Full miss — the line is fetched over a shared memory bus that accepts one
  access per ``bus_cycles_per_access`` cycles (10) and completes
  ``memory_latency`` cycles (150) after it wins the bus.  A demand miss
  stalls the processor until the line arrives.
* Prefetch — wins the bus the same way but does **not** stall; the line is
  recorded as *in flight* and a later demand access only stalls for the
  remaining time.  Issuing ``w`` back-to-back prefetches therefore makes the
  last line land after ``T1 + (w-1) * Tnext`` cycles — the paper's
  Section 3.1.1 cost formula emerges from the bus model.

Up to ``miss_handlers`` fetches may be outstanding; a prefetch beyond that
stalls until the oldest completes (MSHR pressure), which is what bounds
arbitrarily-deep jump-pointer-array prefetching.

Measurement can be switched off (``enabled = False``) so that untimed phases
(bulkload, tree building) run at full Python speed; the paper likewise
measures only the operation phase after clearing the caches.

Accesses enter through one set of batched entry points —
:meth:`read_run` / :meth:`write_run` / :meth:`prefetch_run` /
:meth:`probe_run`, one call per byte range — which run the per-line
cache/MSHR state machine in a single loop with locals bound once.  They are
what :class:`repro.btree.trace.Tracer` drives, and the only access
implementation here.

The reference is the frozen scalar engine in :mod:`repro.mem.legacy`, which
shares no code with this one.  The golden-equivalence contract (DESIGN.md
§8, ``test_mem_equivalence.py``) pins the two to field-identical
:class:`MemoryStats` and clocks on a committed trace fixture and on random
streams.  Any edit here must preserve that.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Iterator

from .cache import Cache
from .config import DEFAULT_CPU, DEFAULT_MEMORY, CpuCostModel, MemoryConfig
from .stats import MemoryStats

__all__ = ["MemorySystem"]

#: Sentinel completion time for "no in-flight fetch" in hot-loop locals.
_NEVER = float("inf")


class MemorySystem:
    """Cycle-accounting model of the processor's view of memory."""

    __slots__ = (
        "config",
        "cpu",
        "l1",
        "l2",
        "stats",
        "now",
        "enabled",
        "_bus_free",
        "_inflight",
        "_heap",
        "_wake",
        "_next_seq",
        "_line_size",
        "_probe_busy",
        "_probe_stall",
        "_l1_dm",
        "_l1_sets",
        "_l1_nsets",
        "_l1_assoc",
        "_l2_dm",
        "_l2_sets",
        "_l2_nsets",
    )

    def __init__(
        self,
        config: MemoryConfig = DEFAULT_MEMORY,
        cpu: CpuCostModel = DEFAULT_CPU,
    ) -> None:
        self.config = config
        self.cpu = cpu
        self.l1 = Cache(config.l1_size, config.line_size, config.l1_assoc)
        self.l2 = Cache(config.l2_size, config.line_size, config.l2_assoc)
        self.stats = MemoryStats()
        self.now: float = 0.0
        self.enabled: bool = True
        self._bus_free: float = 0.0
        # One record per in-flight fetch: ``_inflight[line]`` is the very
        # (completion, seq, line) tuple pushed on the completion-ordered
        # ``_heap``, so a heap entry is stale exactly when
        # ``_inflight.get(line) is not entry`` (a demand access covered the
        # line since) and is discarded lazily.  The heap makes "has anything
        # landed?" an O(1) peek and the MSHR-victim choice an O(log n) pop.
        # ``_wake`` is a conservative lower bound on every heap entry —
        # posts lower it, retirements leave it low (a too-low bound merely
        # triggers a harmless extra slow-path call) — so the hot loops' MSHR
        # fast check stays one float compare.  A covering access stalls
        # until its fetch completes, so a stale entry never completes after
        # ``now``: the landed sweep in ``_reserve_miss_handler`` discards
        # them all, and while ``_wake > now`` the heap holds none.
        self._inflight: dict[int, tuple[float, int, int]] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._wake: float = _NEVER
        self._next_seq: int = 0
        # Hot-path constants, precomputed once: MemoryConfig and CpuCostModel
        # are frozen dataclasses and the Cache objects (and their internal
        # containers, which clear() empties in place) live for the system's
        # lifetime, so these can never go stale.  Each saves attribute hops
        # in loops that run once per simulated access.
        self._line_size = config.line_size
        self._probe_busy, self._probe_stall = cpu.probe_cost()
        self._l1_dm = self.l1._dm_slots
        self._l1_sets = self.l1._sets
        self._l1_nsets = self.l1.num_sets
        self._l1_assoc = self.l1.associativity
        self._l2_dm = self.l2._dm_slots
        self._l2_sets = self.l2._sets
        self._l2_nsets = self.l2.num_sets

    # -- time charging -------------------------------------------------------

    def busy(self, cycles: float) -> None:
        """Charge instruction-execution (busy) time."""
        if not self.enabled or cycles <= 0:
            return
        self.now += cycles
        self.stats.busy_cycles += cycles

    def other_stall(self, cycles: float) -> None:
        """Charge non-memory stall time (branch mispredictions etc.)."""
        if not self.enabled or cycles <= 0:
            return
        self.now += cycles
        self.stats.other_stall_cycles += cycles

    def _dcache_stall(self, cycles: float) -> None:
        if cycles <= 0:
            return
        self.now += cycles
        self.stats.dcache_stall_cycles += cycles

    # -- in-flight fetch bookkeeping -----------------------------------------

    def _post_fetch(self, line: int, completion: float) -> None:
        """Record a non-blocking fetch (prefetch / write-allocate)."""
        entry = (completion, self._next_seq, line)
        self._next_seq += 1
        self._inflight[line] = entry
        heappush(self._heap, entry)
        if completion < self._wake:
            self._wake = completion

    def _reserve_miss_handler(self) -> None:
        """Stall until an MSHR is free, retiring landed prefetches.

        Landed fetches (completion <= now) retire in the order they were
        posted — the caches' LRU state depends on install order, and the
        frozen engine retires in ``_inflight`` insertion order.  The heap
        only answers "has anything landed?" and "which completes first?";
        stale entries are discarded lazily via the identity check.
        """
        inflight = self._inflight
        heap = self._heap
        if not inflight:
            heap.clear()  # every remaining entry is stale
            self._wake = _NEVER
            return
        now = self.now
        landed = []
        while heap:
            entry = heap[0]
            if inflight.get(entry[2]) is not entry:
                heappop(heap)  # stale: a demand access covered it
                continue
            if entry[0] > now:
                break
            heappop(heap)
            landed.append((entry[1], entry[2]))
        if landed:
            # Retire in posting (seq) order == ``_inflight`` insertion order:
            # the caches' LRU state depends on install order and the frozen
            # engine retires in dict order.  Inlined _install: a retired line
            # is never L1-resident (a demand covering it would have popped it
            # from the in-flight set first), so a plain evict-and-add
            # suffices; L2 may still hold it, which the unconditional
            # direct-mapped store handles identically.
            landed.sort()
            l1_dm = self._l1_dm
            l1_sets = self._l1_sets
            l1_assoc = self._l1_assoc
            l1_nsets = self._l1_nsets
            l2_dm = self._l2_dm
            l2_nsets = self._l2_nsets
            l2 = self.l2
            for __, line in landed:
                del inflight[line]
                if l1_dm is not None:
                    l1_dm[line % l1_nsets] = line
                else:
                    l1_set = l1_sets[line % l1_nsets]
                    if len(l1_set) >= l1_assoc:
                        for victim in l1_set:
                            break
                        del l1_set[victim]
                    l1_set[line] = None
                if l2_dm is not None:
                    l2_dm[line % l2_nsets] = line
                else:
                    l2.insert(line)
        # The sweep above left only live entries (see __init__).
        while len(inflight) >= self.config.miss_handlers:
            completion, __, line = heappop(heap)
            del inflight[line]
            self._dcache_stall(completion - self.now)
            self._install(line)
        self._wake = heap[0][0] if heap else _NEVER

    # -- demand-miss tail and hardware prefetch ------------------------------

    def _touch_uncovered(self, line: int) -> None:
        """The L1-missed, not-in-flight tail: L2 hit or full memory fetch.

        Both cache levels are inlined (counted lookup, absent-line install)
        so the whole tail runs in this one frame; see the batched entry
        points below for the inlining invariants.
        """
        stats = self.stats
        l2 = self.l2
        l2_dm = self._l2_dm
        if l2_dm is not None:
            l2_index = line % self._l2_nsets
            l2_hit = l2_dm[l2_index] == line
        else:
            l2_set = self._l2_sets[line % self._l2_nsets]
            l2_hit = line in l2_set
            if l2_hit:
                del l2_set[line]
                l2_set[line] = None  # move to MRU
        if l2_hit:
            stats.l2_hits += 1
            stall = self.config.l2_hit_latency
            if stall > 0:
                self.now += stall
                stats.dcache_stall_cycles += stall
        else:
            # Full miss: win the bus, wait for the line.
            now = self.now
            bus_free = self._bus_free
            start = bus_free if bus_free > now else now
            self._bus_free = start + self.config.bus_cycles_per_access
            completion = start + self.config.memory_latency
            stall = completion - now
            if stall > 0:
                self.now = completion
                stats.dcache_stall_cycles += stall
            stats.memory_fetches += 1
            # Install into L2 (it just missed, so the line is absent).
            if l2_dm is not None:
                l2_dm[l2_index] = line
            else:
                if len(l2_set) >= l2.associativity:
                    for victim in l2_set:
                        break
                    del l2_set[victim]
                l2_set[line] = None
        # Install into L1 (its lookup missed before this was called).
        l1_dm = self._l1_dm
        if l1_dm is not None:
            l1_dm[line % self._l1_nsets] = line
        else:
            l1_set = self._l1_sets[line % self._l1_nsets]
            if len(l1_set) >= self._l1_assoc:
                for victim in l1_set:
                    break
                del l1_set[victim]
            l1_set[line] = None
        if not l2_hit and self.config.hardware_prefetch_lines:
            self._hardware_prefetch(line)

    def _hardware_prefetch(self, line: int) -> None:
        """Optional next-line prefetcher on demand misses (off by default;
        the paper's machine has none)."""
        for ahead in range(1, self.config.hardware_prefetch_lines + 1):
            neighbour = line + ahead
            if self.l1.contains(neighbour) or neighbour in self._inflight:
                continue
            if self.l2.contains(neighbour):
                self._post_fetch(neighbour, self.now + self.config.l2_hit_latency)
                continue
            start = max(self.now, self._bus_free)
            self._bus_free = start + self.config.bus_cycles_per_access
            self._post_fetch(neighbour, start + self.config.memory_latency)

    def _install(self, line: int) -> None:
        self.l1.insert(line)
        self.l2.insert(line)

    # -- batched entry points ------------------------------------------------
    #
    # One call per *range*, not per line: the frozen engine's per-line state
    # machine (repro.mem.legacy), flattened into a single loop with every hot
    # attribute bound to a local once and the per-line Cache/MSHR helper
    # calls inlined (both cache representations — per-set LRU dicts and the
    # direct-mapped slot list).  Cycle-for-cycle identical to that engine,
    # pinned by the golden-equivalence tests.  Returns the number of lines
    # touched so callers (Tracer.scan / Tracer.move) can charge per-line busy
    # time without recomputing the range.
    #
    # Inlining notes, load-bearing for equivalence:
    # * At install points the line is known to be absent from the cache
    #   being inserted into (its lookup just missed), except the L2 insert
    #   on the prefetch-covered path, where the line may still be resident —
    #   for the direct-mapped L2 an unconditional slot store is identical in
    #   both cases, and a set-associative L2 falls back to Cache.insert.
    # * ``_reserve_miss_handler`` is replaced by an inline fast check: the
    #   slow path runs only when an MSHR is actually needed or the heap top
    #   says a fetch may have landed (a stale top triggers a harmless extra
    #   call that purges it).  prefetch_run also inlines the slow path's
    #   saturated case, the one a page-wide scan burst hits on every line.

    def read_run(self, address: int, nbytes: int = 4) -> int:
        """Demand-load every line in ``[address, address + nbytes)``."""
        if not self.enabled or nbytes <= 0:
            return 0
        line_size = self._line_size
        line = address // line_size
        if address % line_size + nbytes <= line_size:
            # Single-line fast path (the range ends on the same line): key
            # probes and small field reads — the bulk of a search trace —
            # touch one line, and most of those hit L1.  Skip the multi-line
            # loop's local-binding preamble.
            stats = self.stats
            stats.accesses += 1
            l1_dm = self._l1_dm
            l1_index = line % self._l1_nsets
            if l1_dm is not None:
                if l1_dm[l1_index] == line:
                    stats.l1_hits += 1
                    return 1
            else:
                l1_set = self._l1_sets[l1_index]
                if line in l1_set:
                    del l1_set[line]
                    l1_set[line] = None  # move to MRU
                    stats.l1_hits += 1
                    return 1
            # Prefetch-covered is the common miss here (a tree prefetches a
            # node before probing it), so it is inlined too; the L2-hit /
            # full-fetch tail stays a call.
            entry = self._inflight.pop(line, None)
            if entry is None:
                self._touch_uncovered(line)
            else:
                stall = entry[0] - self.now
                if stall > 0:
                    self.now += stall
                    stats.dcache_stall_cycles += stall
                stats.prefetch_covered += 1
                if l1_dm is not None:
                    l1_dm[l1_index] = line
                else:
                    # Lookup above just missed, so the line is absent.
                    if len(l1_set) >= self._l1_assoc:
                        for victim in l1_set:
                            break
                        del l1_set[victim]
                    l1_set[line] = None
                l2_dm = self._l2_dm
                if l2_dm is not None:
                    l2_dm[line % self._l2_nsets] = line
                else:
                    self.l2.insert(line)
            return 1
        last = (address + nbytes - 1) // line_size
        nlines = last - line + 1
        config = self.config
        stats = self.stats
        l1_dm = self._l1_dm
        l1_sets = self._l1_sets
        l1_nsets = self._l1_nsets
        l1_assoc = self._l1_assoc
        l2_dm = self._l2_dm
        l2_sets = self._l2_sets
        l2_nsets = self._l2_nsets
        l2_insert = self.l2.insert
        inflight = self._inflight
        l2_hit_latency = config.l2_hit_latency
        memory_latency = config.memory_latency
        bus_step = config.bus_cycles_per_access
        hardware_prefetch = config.hardware_prefetch_lines
        now = self.now
        bus_free = self._bus_free
        l1_hits = 0
        l2_hits = 0
        covered = 0
        fetches = 0
        stall_cycles = 0.0
        for line in range(line, last + 1):
            # L1 lookup (counted, LRU-refreshing).
            if l1_dm is not None:
                l1_index = line % l1_nsets
                if l1_dm[l1_index] == line:
                    l1_hits += 1
                    continue
            else:
                l1_set = l1_sets[line % l1_nsets]
                if line in l1_set:
                    del l1_set[line]
                    l1_set[line] = None  # move to MRU
                    l1_hits += 1
                    continue
            entry = inflight.pop(line, None)
            if entry is not None:
                # Covered by an in-flight (or landed) prefetch: wait out the
                # remainder, then install in both levels.
                stall = entry[0] - now
                if stall > 0:
                    now += stall
                    stall_cycles += stall
                covered += 1
                if l1_dm is not None:
                    l1_dm[l1_index] = line
                else:
                    if len(l1_set) >= l1_assoc:
                        for victim in l1_set:
                            break
                        del l1_set[victim]
                    l1_set[line] = None
                if l2_dm is not None:
                    l2_dm[line % l2_nsets] = line
                else:
                    l2_insert(line)
                continue
            # L2 lookup (LRU-refreshing).
            if l2_dm is not None:
                l2_index = line % l2_nsets
                l2_resident = l2_dm[l2_index] == line
            else:
                l2_set = l2_sets[line % l2_nsets]
                l2_resident = line in l2_set
                if l2_resident:
                    del l2_set[line]
                    l2_set[line] = None  # move to MRU
            if l2_resident:
                l2_hits += 1
                now += l2_hit_latency
                stall_cycles += l2_hit_latency
                if l1_dm is not None:
                    l1_dm[l1_index] = line
                else:
                    if len(l1_set) >= l1_assoc:
                        for victim in l1_set:
                            break
                        del l1_set[victim]
                    l1_set[line] = None
                continue
            # Full miss: win the bus, wait for the line, install in both.
            start = bus_free if bus_free > now else now
            bus_free = start + bus_step
            stall = start + memory_latency - now
            now += stall
            stall_cycles += stall
            fetches += 1
            if l1_dm is not None:
                l1_dm[l1_index] = line
            else:
                if len(l1_set) >= l1_assoc:
                    for victim in l1_set:
                        break
                    del l1_set[victim]
                l1_set[line] = None
            if l2_dm is not None:
                l2_dm[l2_index] = line
            else:
                l2_insert(line)
            if hardware_prefetch:
                self.now = now
                self._bus_free = bus_free
                self._hardware_prefetch(line)
                now = self.now
                bus_free = self._bus_free
        self.now = now
        self._bus_free = bus_free
        stats.accesses += nlines
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.prefetch_covered += covered
        stats.memory_fetches += fetches
        stats.dcache_stall_cycles += stall_cycles
        return nlines

    def write_run(self, address: int, nbytes: int = 4) -> int:
        """Store to every line in the range (non-blocking allocation).

        Stores retire through a store buffer and do not stall the pipeline:
        a write to a non-resident line allocates it via the memory bus (like
        a prefetch) and later *loads* of that line wait for it, but the
        store itself only costs its issue slot.  This matters for page
        splits, which write whole fresh pages: a blocking-store model would
        double their cost.
        """
        if not self.enabled or nbytes <= 0:
            return 0
        config = self.config
        line_size = self._line_size
        line = address // line_size
        last = (address + nbytes - 1) // line_size
        nlines = last - line + 1
        stats = self.stats
        l1_dm = self._l1_dm
        l1_sets = self._l1_sets
        l1_nsets = self._l1_nsets
        l2_dm = self._l2_dm
        l2_sets = self._l2_sets
        l2_nsets = self._l2_nsets
        inflight = self._inflight
        heap = self._heap
        next_seq = self._next_seq
        miss_handlers = config.miss_handlers
        l2_hit_latency = config.l2_hit_latency
        memory_latency = config.memory_latency
        bus_step = config.bus_cycles_per_access
        now = self.now
        bus_free = self._bus_free
        l1_hits = 0
        l2_hits = 0
        store_fetches = 0
        # MSHR fast check tracked in locals — see prefetch_run.
        inflight_len = len(inflight)
        wake = self._wake
        for line in range(line, last + 1):
            now += 1  # store issue slot (busy time)
            # L1 lookup (counted, LRU-refreshing).
            if l1_dm is not None:
                if l1_dm[line % l1_nsets] == line:
                    l1_hits += 1
                    continue
            else:
                l1_set = l1_sets[line % l1_nsets]
                if line in l1_set:
                    del l1_set[line]
                    l1_set[line] = None  # move to MRU
                    l1_hits += 1
                    continue
            if line in inflight:
                continue
            # MSHR fast check; the slow path retires landed fetches and
            # stalls for a free handler.
            if inflight_len >= miss_handlers or wake <= now:
                self.now = now
                self._reserve_miss_handler()
                now = self.now
                inflight_len = len(inflight)
                wake = self._wake
            # L2 residency probe (uncounted, no LRU update — as contains()).
            if l2_dm is not None:
                l2_resident = l2_dm[line % l2_nsets] == line
            else:
                l2_resident = line in l2_sets[line % l2_nsets]
            if l2_resident:
                # An L2-resident store allocation is an L2 hit just like a
                # demand load's; it only differs in not stalling.
                l2_hits += 1
                completion = now + l2_hit_latency
            else:
                start = bus_free if bus_free > now else now
                bus_free = start + bus_step
                completion = start + memory_latency
                store_fetches += 1
            inflight[line] = entry = (completion, next_seq, line)
            heappush(heap, entry)
            next_seq += 1
            inflight_len += 1
            if completion < wake:
                wake = completion
        self.now = now
        self._bus_free = bus_free
        self._next_seq = next_seq
        self._wake = wake
        stats.accesses += nlines
        stats.busy_cycles += nlines
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.store_fetches += store_fetches
        return nlines

    def prefetch_run(self, address: int, nbytes: int) -> int:
        """Issue non-blocking prefetches for every line in the range."""
        if not self.enabled or nbytes <= 0:
            return 0
        config = self.config
        line_size = self._line_size
        line = address // line_size
        last = (address + nbytes - 1) // line_size
        nlines = last - line + 1
        stats = self.stats
        l1_dm = self._l1_dm
        l1_sets = self._l1_sets
        l1_nsets = self._l1_nsets
        l1_assoc = self._l1_assoc
        l2_dm = self._l2_dm
        l2_sets = self._l2_sets
        l2_nsets = self._l2_nsets
        inflight = self._inflight
        heap = self._heap
        next_seq = self._next_seq
        miss_handlers = config.miss_handlers
        # prefetch_issue >= 0 always; adding 0.0 matches busy()'s no-op.
        issue = self.cpu.prefetch_issue
        l2_hit_latency = config.l2_hit_latency
        memory_latency = config.memory_latency
        bus_step = config.bus_cycles_per_access
        now = self.now
        bus_free = self._bus_free
        # The MSHR fast check is tracked in locals: posts within this run
        # can only add completions (lowering ``wake``), and the occupancy
        # only changes here or in the reserve slow path — both update the
        # locals in place, so no per-line re-reads are needed.
        inflight_len = len(inflight)
        wake = self._wake
        for line in range(line, last + 1):
            now += issue
            # L1 residency probe (uncounted, no LRU update — as contains()).
            if l1_dm is not None:
                l1_resident = l1_dm[line % l1_nsets] == line
            else:
                l1_resident = line in l1_sets[line % l1_nsets]
            if l1_resident or line in inflight:
                continue
            if inflight_len >= miss_handlers or wake <= now:
                if wake <= now:
                    self.now = now
                    self._reserve_miss_handler()
                    now = self.now
                    inflight_len = len(inflight)
                    wake = self._wake
                else:
                    # Saturated with nothing landed (every heap entry is
                    # >= wake > now, so all are live — see __init__): the
                    # slow path would only stall to the earliest fetch and
                    # install it, until a handler frees.  In-flight lines
                    # are never L1-resident, as in the slow path's
                    # retirement loop; the heap order keeps stall >= 0.
                    while inflight_len >= miss_handlers:
                        completion, __, victim = heappop(heap)
                        del inflight[victim]
                        inflight_len -= 1
                        stall = completion - now
                        now += stall
                        stats.dcache_stall_cycles += stall
                        if l1_dm is not None:
                            l1_dm[victim % l1_nsets] = victim
                        else:
                            l1_set = l1_sets[victim % l1_nsets]
                            if len(l1_set) >= l1_assoc:
                                for evicted in l1_set:
                                    break
                                del l1_set[evicted]
                            l1_set[victim] = None
                        if l2_dm is not None:
                            l2_dm[victim % l2_nsets] = victim
                        else:
                            self.l2.insert(victim)
                    wake = heap[0][0] if heap else _NEVER
            if l2_dm is not None:
                l2_resident = l2_dm[line % l2_nsets] == line
            else:
                l2_resident = line in l2_sets[line % l2_nsets]
            if l2_resident:
                # Satisfied from L2 without using the memory bus.
                completion = now + l2_hit_latency
            else:
                start = bus_free if bus_free > now else now
                bus_free = start + bus_step
                completion = start + memory_latency
            inflight[line] = entry = (completion, next_seq, line)
            heappush(heap, entry)
            next_seq += 1
            inflight_len += 1
            if completion < wake:
                wake = completion
        self.now = now
        self._bus_free = bus_free
        self._next_seq = next_seq
        self._wake = wake
        stats.busy_cycles += issue * nlines
        stats.prefetches_issued += nlines
        return nlines

    def probe_run(self, address: int, nbytes: int = 4) -> int:
        """One binary-search probe: ranged load + compare/branch cost."""
        if not self.enabled:
            return 0
        nlines = self.read_run(address, nbytes)
        # The probe penalty: busy(compare) + other_stall(mispredict), with
        # both costs precomputed at construction (CpuCostModel is frozen).
        # The clock advances through a local so ``self.now`` is touched once;
        # the two additions stay separate, in the frozen engine's order, so
        # the float results are bit-identical.
        stats = self.stats
        now = self.now
        compare = self._probe_busy
        if compare > 0:
            now = now + compare
            stats.busy_cycles += compare
        mispredict = self._probe_stall
        if mispredict > 0:
            now = now + mispredict
            stats.other_stall_cycles += mispredict
        self.now = now
        return nlines

    # -- control -------------------------------------------------------------

    def clear_caches(self) -> None:
        """Flush both cache levels and any in-flight fetches."""
        self.l1.clear()
        self.l2.clear()
        self._inflight.clear()
        self._heap.clear()
        self._wake = _NEVER
        self._bus_free = self.now

    def reset(self) -> None:
        """Clear caches, zero the clock and statistics."""
        self.clear_caches()
        self.now = 0.0
        self._bus_free = 0.0
        self.stats = MemoryStats()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Temporarily disable measurement (for untimed build phases)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    @contextmanager
    def measure(self) -> Iterator[MemoryStats]:
        """Measure a phase; yields a stats object updated on exit."""
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
