"""Behavioural tests for the memory-hierarchy simulator.

These pin down the latency model the paper's analysis relies on: a full miss
costs T1 = 150 cycles, an extra pipelined (prefetched) miss costs
Tnext = 10 cycles, and L2 hits cost 15 cycles.
"""

import pytest

from repro.mem import CpuCostModel, MemoryConfig, MemorySystem


def make_mem(**overrides):
    return MemorySystem(MemoryConfig(**overrides), CpuCostModel())


def test_cold_read_costs_full_memory_latency():
    mem = make_mem()
    mem.read_run(0, 4)
    assert mem.stats.dcache_stall_cycles == 150
    assert mem.stats.memory_fetches == 1


def test_second_read_same_line_is_l1_hit():
    mem = make_mem()
    mem.read_run(0, 4)
    before = mem.stats.dcache_stall_cycles
    mem.read_run(32, 4)  # same 64B line
    assert mem.stats.dcache_stall_cycles == before
    assert mem.stats.l1_hits == 1


def test_read_spanning_two_lines_touches_both():
    mem = make_mem()
    mem.read_run(60, 8)  # crosses the line boundary at 64
    assert mem.stats.memory_fetches == 2


def test_l2_hit_costs_l2_latency():
    # Tiny L1 (one set, 2 ways) so a third distinct line evicts the first.
    mem = make_mem(l1_size=128, l1_assoc=2)
    mem.read_run(0 * 64, 4)
    mem.read_run(1 * 64, 4)
    mem.read_run(2 * 64, 4)  # evicts line 0 from L1; L2 still holds it
    before = mem.stats.dcache_stall_cycles
    mem.read_run(0, 4)
    assert mem.stats.dcache_stall_cycles == before + 15
    assert mem.stats.l2_hits == 1


def test_prefetched_node_costs_t1_plus_pipelined_misses():
    """Reading a w-line node after prefetching it costs ~T1 + (w-1)*Tnext."""
    w = 8
    mem = make_mem()
    mem.prefetch_run(0, w * 64)
    for i in range(w):
        mem.read_run(i * 64, 4)
    expected_stall = 150 + (w - 1) * 10
    # Busy time (prefetch instructions) overlaps with the fetches, so the
    # measured stall is slightly below the analytic bound.
    assert expected_stall - 2 * w <= mem.stats.total_cycles <= expected_stall + 2 * w
    assert mem.stats.prefetch_covered == w


def test_unprefetched_node_costs_full_latency_per_line():
    w = 8
    mem = make_mem()
    for i in range(w):
        mem.read_run(i * 64, 4)
    assert mem.stats.dcache_stall_cycles == w * 150


def test_prefetch_of_resident_line_is_free_of_bus_traffic():
    mem = make_mem()
    mem.read_run(0, 4)
    fetches_before = mem.stats.memory_fetches
    mem.prefetch_run(0, 4)
    mem.read_run(0, 4)
    assert mem.stats.memory_fetches == fetches_before
    assert mem.stats.dcache_stall_cycles == 150  # unchanged


def test_mshr_pressure_stalls_excess_prefetches():
    mem = make_mem(miss_handlers=4)
    mem.prefetch_run(0, 16 * 64)  # 16 lines, only 4 MSHRs
    assert mem.stats.dcache_stall_cycles > 0


def test_clear_caches_forces_refetch():
    mem = make_mem()
    mem.read_run(0, 4)
    mem.clear_caches()
    mem.read_run(0, 4)
    assert mem.stats.memory_fetches == 2


def test_paused_disables_accounting():
    mem = make_mem()
    with mem.paused():
        mem.read_run(0, 4)
        mem.busy(100)
    assert mem.stats.total_cycles == 0
    assert mem.stats.memory_fetches == 0


def test_measure_reports_phase_delta():
    mem = make_mem()
    mem.read_run(0, 4)
    with mem.measure() as phase:
        mem.read_run(64, 4)
        mem.busy(7)
    assert phase.memory_fetches == 1
    assert phase.busy_cycles == 7
    assert phase.dcache_stall_cycles == 150


def test_busy_and_other_stall_accumulate():
    mem = make_mem()
    mem.busy(10)
    mem.other_stall(5)
    assert mem.stats.busy_cycles == 10
    assert mem.stats.other_stall_cycles == 5
    assert mem.stats.total_cycles == 15


def test_probe_penalty_charges_compare_and_mispredict():
    mem = make_mem()
    mem.probe_run(0, 0)  # an empty probe charges only the penalty
    cpu = mem.cpu
    assert mem.stats.busy_cycles == cpu.compare
    assert mem.stats.other_stall_cycles == cpu.mispredict_rate * cpu.branch_mispredict


def test_write_does_not_stall():
    mem = make_mem()
    mem.write_run(0, 4)
    assert mem.stats.dcache_stall_cycles == 0
    assert mem.stats.store_fetches == 1


def test_read_after_cold_write_waits_for_allocation():
    mem = make_mem()
    mem.write_run(0, 4)
    mem.read_run(0, 4)
    # The load waits for the write-allocate fetch, minus elapsed busy time.
    assert 0 < mem.stats.dcache_stall_cycles <= 150
    assert mem.stats.prefetch_covered == 1


def test_write_to_resident_line_is_free():
    mem = make_mem()
    mem.read_run(0, 4)
    stalls = mem.stats.dcache_stall_cycles
    mem.write_run(32, 4)
    assert mem.stats.dcache_stall_cycles == stalls
    assert mem.stats.store_fetches == 0


def test_breakdown_fractions_sum_to_one():
    mem = make_mem()
    mem.read_run(0, 4)
    mem.busy(50)
    fractions = mem.stats.breakdown()
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_reset_zeroes_everything():
    mem = make_mem()
    mem.read_run(0, 4)
    mem.reset()
    assert mem.now == 0
    assert mem.stats.total_cycles == 0
    mem.read_run(0, 4)
    assert mem.stats.memory_fetches == 1


def test_reset_zeroes_cache_hit_miss_counters():
    """Back-to-back measurement phases on one MemorySystem must not
    double-count: reset() starts the hit/miss counts in MemoryStats fresh."""
    mem = make_mem()
    mem.read_run(0, 4)
    mem.read_run(0, 4)  # l1 hit
    assert (mem.stats.accesses, mem.stats.l1_hits, mem.stats.memory_fetches) == (2, 1, 1)
    mem.reset()
    assert (mem.stats.accesses, mem.stats.l1_hits, mem.stats.l2_hits) == (0, 0, 0)
    mem.read_run(0, 4)
    assert (mem.stats.accesses, mem.stats.l1_hits, mem.stats.memory_fetches) == (1, 0, 1)


def test_t1_tnext_properties():
    config = MemoryConfig()
    assert config.t1 == 150
    assert config.tnext == 10
