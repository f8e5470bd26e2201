"""Tests for the optional hardware next-line prefetcher ablation."""


from repro.bench.cache_runner import build_tree, measure_operations
from repro.mem import CpuCostModel, MemoryConfig, MemorySystem
from repro.workloads import KeyWorkload


def test_disabled_by_default():
    mem = MemorySystem()
    mem.read_run(0, 4)
    mem.read_run(64, 4)  # next line: must be a full miss with no prefetcher
    assert mem.stats.dcache_stall_cycles == 300


def test_next_line_prefetch_covers_sequential_reads():
    mem = MemorySystem(MemoryConfig(hardware_prefetch_lines=1), CpuCostModel())
    mem.read_run(0, 4)  # miss; hardware fetches line 1
    first_stall = mem.stats.dcache_stall_cycles
    mem.busy(200)  # give the prefetch time to land
    mem.read_run(64, 4)
    assert mem.stats.dcache_stall_cycles == first_stall
    assert mem.stats.prefetch_covered == 1


def test_random_reads_gain_nothing():
    """Pointer-chasing gets no coverage — only wasted bus bandwidth."""
    mem = MemorySystem(MemoryConfig(hardware_prefetch_lines=2), CpuCostModel())
    for line in (0, 100, 7, 55, 200):
        mem.read_run(line * 64, 4)
    assert mem.stats.prefetch_covered == 0
    # Useless prefetches contend for the bus, so stalls can only grow.
    assert 5 * 150 <= mem.stats.dcache_stall_cycles <= 5 * 150 + 5 * 2 * 10


def test_sequential_scan_faster_with_hardware_prefetch():
    plain = MemorySystem()
    assisted = MemorySystem(MemoryConfig(hardware_prefetch_lines=2), CpuCostModel())
    for mem in (plain, assisted):
        for line in range(64):
            mem.read_run(line * 64, 4)
            mem.busy(20)
    assert assisted.stats.dcache_stall_cycles < plain.stats.dcache_stall_cycles


def test_fp_tree_still_beats_baseline_with_hardware_prefetch():
    """Software (jump-pointer) prefetch is not subsumed by a stream prefetcher."""
    workload = KeyWorkload(40_000)
    keys, tids = workload.bulkload_arrays()
    lo, hi = int(keys[1000]), int(keys[30_000])
    cycles = {}
    for kind in ("disk", "fp-disk"):
        mem = MemorySystem(MemoryConfig(hardware_prefetch_lines=1), CpuCostModel())
        tree = build_tree(kind, keys, tids, page_size=16384, mem=mem)
        phase = measure_operations(mem, lambda r: tree.range_scan(*r), [(lo, hi)])
        cycles[kind] = phase.total_cycles
    assert cycles["fp-disk"] < cycles["disk"]
