"""Reproductions of every table and figure in the paper's evaluation.

Each ``figNN`` / ``tableN`` function runs one experiment (at a configurable
scale — defaults are ~30-100x below the paper's 10M-key runs so a full
sweep completes in minutes on a laptop) and returns a
:class:`~repro.bench.results.FigureResult` whose rows mirror the paper's
series.  Absolute numbers are simulated cycles / microseconds; the claims
to check are the *shapes*: who wins, by what factor, where the crossovers
are.  ``python -m repro.bench <name>`` prints any of them.
"""

from __future__ import annotations

from typing import Optional, Sequence


from ..btree.base import Index
from ..btree.context import TreeEnvironment
from ..core.cache_first import CacheFirstFpTree
from ..core.disk_first import DiskFirstFpTree
from ..core.optimizer import (
    CacheFirstWidths,
    DiskFirstWidths,
    optimize_cache_first,
    optimize_disk_first,
    optimize_micro_index,
    search_cost,
)
from ..dbms.engine import MiniDbms, QueryStats
from ..faults import FaultPlan, SimulatedCrash
from ..mem.config import DEFAULT_CPU, DEFAULT_MEMORY
from ..mem.hierarchy import MemorySystem
from ..storage.config import DiskParameters
from ..wal import WalManager, recover
from ..workloads.generator import KeyWorkload, build_mature_tree
from .cache_runner import PAPER_INDEX_ORDER, build_tree, make_index, measure_operations
from .io_scan import timed_range_scan
from .results import FigureResult

__all__ = [
    "table1",
    "table2",
    "fig03",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fault_resilience",
    "recovery_overhead",
    "ablation_overshoot",
    "ablation_uniform_node_size",
    "ablation_jpa_on_standard_btree",
    "ablation_prefetch_depth",
    "traced_scan",
    "ALL_EXPERIMENTS",
]

PAGE_SIZES = (4096, 8192, 16384, 32768)


# -- configuration tables ------------------------------------------------------------


def table1() -> FigureResult:
    """Table 1: simulation parameters (configuration, not a measurement)."""
    result = FigureResult("table1", "simulation parameters", ["parameter", "value"])
    mem, cpu = DEFAULT_MEMORY, DEFAULT_CPU
    for name, value in [
        ("cache line size", f"{mem.line_size} bytes"),
        ("L1 data cache", f"{mem.l1_size // 1024} KB, {mem.l1_assoc}-way set-assoc."),
        ("L2 unified cache", f"{mem.l2_size // (1024 * 1024)} MB, direct-mapped"),
        ("L1-to-L2 miss latency", f"{mem.l2_hit_latency} cycles"),
        ("L1-to-memory miss latency (T1)", f"{mem.memory_latency} cycles"),
        ("memory bandwidth (Tnext)", f"1 access per {mem.bus_cycles_per_access} cycles"),
        ("outstanding miss handlers", str(mem.miss_handlers)),
        ("buffer-pool access overhead", f"{cpu.buffer_pool_access} cycles"),
    ]:
        result.add(parameter=name, value=value)
    return result


def table2() -> FigureResult:
    """Table 2: optimal node-width selections (4-byte keys, T1=150, Tnext=10)."""
    result = FigureResult(
        "table2",
        "optimal width selections",
        ["page_size", "scheme", "nonleaf_bytes", "leaf_bytes", "page_fanout", "cost_ratio"],
    )
    for page_size in PAGE_SIZES:
        d = optimize_disk_first(page_size)
        result.add(
            page_size=page_size, scheme="disk-first", nonleaf_bytes=d.nonleaf_bytes,
            leaf_bytes=d.leaf_bytes, page_fanout=d.page_fanout, cost_ratio=round(d.cost_ratio, 2),
        )
        c = optimize_cache_first(page_size)
        result.add(
            page_size=page_size, scheme="cache-first", nonleaf_bytes=c.node_bytes,
            leaf_bytes=c.node_bytes, page_fanout=c.page_fanout, cost_ratio=round(c.cost_ratio, 2),
        )
        m = optimize_micro_index(page_size)
        result.add(
            page_size=page_size, scheme="micro-indexing", nonleaf_bytes=m.subarray_bytes,
            leaf_bytes=m.subarray_bytes, page_fanout=m.page_fanout, cost_ratio=round(m.cost_ratio, 2),
        )
    result.notes.append("disk-first/cache-first rows match paper Table 2 except 16KB (within 2%)")
    return result


# -- cache performance figures ----------------------------------------------------------


def fig03(num_keys: int = 300_000, searches: int = 300, page_size: int = 8192) -> FigureResult:
    """Figure 3(b): search time breakdown, disk-optimized B+-Tree vs pB+-Tree."""
    result = FigureResult(
        "fig03",
        "execution time breakdown for search (normalized to disk-optimized B+tree)",
        ["index", "total", "busy", "dcache_stalls", "other_stalls"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    picks = [int(k) for k in workload.search_keys(searches)]
    totals = {}
    for kind in ("disk", "pbtree"):
        mem = MemorySystem()
        tree = build_tree(kind, keys, tids, page_size=page_size, mem=mem)
        phase = measure_operations(mem, tree.search, picks)
        totals[kind] = phase
    baseline = totals["disk"].total_cycles
    for kind, label in (("disk", "disk-optimized B+tree"), ("pbtree", "pB+tree")):
        stats = totals[kind].stats
        result.add(
            index=label,
            total=round(100 * stats.total_cycles / baseline, 1),
            busy=round(100 * stats.busy_cycles / baseline, 1),
            dcache_stalls=round(100 * stats.dcache_stall_cycles / baseline, 1),
            other_stalls=round(100 * stats.other_stall_cycles / baseline, 1),
        )
    return result


def fig10(
    page_sizes: Sequence[int] = PAGE_SIZES,
    sizes: Sequence[int] = (30_000, 100_000, 300_000),
    searches: int = 200,
    fill: float = 1.0,
) -> FigureResult:
    """Figure 10: search cycles vs #entries, per page size, all four indexes."""
    result = FigureResult(
        "fig10",
        "search performance for 100% bulkload (simulated cycles per search)",
        ["page_size", "num_keys", "index", "cycles_per_search"],
    )
    for page_size in page_sizes:
        for num_keys in sizes:
            workload = KeyWorkload(num_keys)
            keys, tids = workload.bulkload_arrays()
            picks = [int(k) for k in workload.search_keys(searches)]
            for kind in PAPER_INDEX_ORDER:
                mem = MemorySystem()
                tree = build_tree(kind, keys, tids, fill=fill, page_size=page_size, mem=mem)
                phase = measure_operations(mem, tree.search, picks)
                result.add(
                    page_size=page_size, num_keys=num_keys, index=kind,
                    cycles_per_search=round(phase.cycles_per_op, 1),
                )
    return result


def _disk_first_widths_for_nonleaf(page_size: int, nonleaf_bytes: int) -> DiskFirstWidths:
    """Best disk-first widths with the non-leaf width pinned (Figure 11a)."""
    from ..core import optimizer as opt

    w = nonleaf_bytes // 64
    usable = page_size - opt.PAGE_HEADER_BYTES
    nonleaf_capacity = (nonleaf_bytes - opt.INPAGE_NODE_HEADER_BYTES) // 6
    candidates = []
    for x in range(1, 33):
        leaf_capacity = (x * 64 - opt.INPAGE_NODE_HEADER_BYTES) // 8
        if leaf_capacity < 1:
            continue
        chosen = None
        levels = 2
        while True:
            leaves = opt._inpage_tree_leaves(usable, levels, nonleaf_bytes, x * 64, nonleaf_capacity)
            if leaves <= 0:
                break
            if chosen is None or leaves * leaf_capacity > chosen[1]:
                chosen = (levels, leaves * leaf_capacity, leaves)
            levels += 1
        if chosen is None:
            continue
        levels, fanout, leaves = chosen
        candidates.append(
            DiskFirstWidths(
                nonleaf_bytes=nonleaf_bytes, leaf_bytes=x * 64, levels=levels,
                leaf_nodes=leaves, nonleaf_capacity=nonleaf_capacity,
                leaf_capacity=leaf_capacity, page_fanout=fanout,
                cost=search_cost(levels, w, x, 150, 10), cost_ratio=1.0,
            )
        )
    best_cost = min(c.cost for c in candidates)
    eligible = [c for c in candidates if c.cost <= 1.1 * best_cost]
    return max(eligible, key=lambda c: (c.page_fanout, -c.cost))


def fig11(
    num_keys: int = 200_000,
    searches: int = 200,
    page_size: int = 16 * 1024,
    nonleaf_sizes: Sequence[int] = (64, 128, 192, 256, 320, 384, 448, 512),
    cache_first_sizes: Sequence[int] = (128, 256, 512, 704, 1024),
) -> FigureResult:
    """Figure 11: search cycles vs node width (16KB pages)."""
    result = FigureResult(
        "fig11",
        "optimal width selection: search cycles per node-size choice",
        ["variant", "node_bytes", "selected", "cycles_per_search"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    picks = [int(k) for k in workload.search_keys(searches)]
    selected_d = optimize_disk_first(page_size)
    for nonleaf_bytes in nonleaf_sizes:
        widths = _disk_first_widths_for_nonleaf(page_size, nonleaf_bytes)
        mem = MemorySystem()
        tree = DiskFirstFpTree(
            TreeEnvironment(page_size=page_size, mem=mem), widths=widths
        )
        with mem.paused():
            tree.bulkload(keys, tids)
        phase = measure_operations(mem, tree.search, picks)
        result.add(
            variant="disk-first", node_bytes=nonleaf_bytes,
            selected=(nonleaf_bytes == selected_d.nonleaf_bytes),
            cycles_per_search=round(phase.cycles_per_op, 1),
        )
    selected_c = optimize_cache_first(page_size, num_keys=num_keys)
    sizes_to_try = list(cache_first_sizes)
    if selected_c.node_bytes not in sizes_to_try:
        sizes_to_try.append(selected_c.node_bytes)
        sizes_to_try.sort()
    for node_bytes in sizes_to_try:
        widths = CacheFirstWidths(
            node_bytes=node_bytes,
            nonleaf_capacity=(node_bytes - 6) // 10,
            leaf_capacity=(node_bytes - 6) // 8,
            nodes_per_page=(page_size - 64) // node_bytes,
            page_fanout=((page_size - 64) // node_bytes) * ((node_bytes - 6) // 8),
            levels=0, cost=0.0, cost_ratio=1.0,
        )
        mem = MemorySystem()
        tree = CacheFirstFpTree(TreeEnvironment(page_size=page_size, mem=mem), widths=widths)
        with mem.paused():
            tree.bulkload(keys, tids)
        phase = measure_operations(mem, tree.search, picks)
        result.add(
            variant="cache-first", node_bytes=node_bytes,
            selected=(node_bytes == selected_c.node_bytes),
            cycles_per_search=round(phase.cycles_per_op, 1),
        )
    return result


def fig12(
    num_keys: int = 200_000,
    searches: int = 200,
    page_size: int = 16 * 1024,
    bulkload_factors: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0),
) -> FigureResult:
    """Figure 12: search cycles vs bulkload factor (16KB pages)."""
    result = FigureResult(
        "fig12",
        "search performance varying bulkload factors",
        ["fill", "index", "cycles_per_search"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    picks = [int(k) for k in workload.search_keys(searches)]
    for fill in bulkload_factors:
        for kind in PAPER_INDEX_ORDER:
            mem = MemorySystem()
            tree = build_tree(kind, keys, tids, fill=fill, page_size=page_size, mem=mem)
            phase = measure_operations(mem, tree.search, picks)
            result.add(fill=fill, index=kind, cycles_per_search=round(phase.cycles_per_op, 1))
    return result


def _measure_inserts(kind, keys, tids, fill, page_size, workload, inserts):
    mem = MemorySystem()
    tree = build_tree(kind, keys, tids, fill=fill, page_size=page_size, mem=mem)
    new_keys, new_tids = workload.insert_keys(inserts)
    pairs = list(zip(new_keys.tolist(), new_tids.tolist()))
    phase = measure_operations(mem, lambda kv: tree.insert(kv[0], kv[1]), pairs)
    return phase


def fig13(
    num_keys: int = 200_000,
    inserts: int = 200,
    page_size: int = 16 * 1024,
    bulkload_factors: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0),
    sizes: Sequence[int] = (30_000, 100_000, 300_000),
    page_sizes: Sequence[int] = PAGE_SIZES,
) -> FigureResult:
    """Figure 13: insertion cycles across four experimental settings."""
    result = FigureResult(
        "fig13",
        "insertion performance (panels a-d)",
        ["panel", "x", "index", "cycles_per_insert"],
    )
    base = KeyWorkload(num_keys)
    base_keys, base_tids = base.bulkload_arrays()
    for fill in bulkload_factors:  # (a) varying bulkload factor
        for kind in PAPER_INDEX_ORDER:
            phase = _measure_inserts(kind, base_keys, base_tids, fill, page_size, base, inserts)
            result.add(panel="a", x=fill, index=kind, cycles_per_insert=round(phase.cycles_per_op, 1))
    for size in sizes:  # (b) varying tree size, 100% full
        workload = KeyWorkload(size)
        keys, tids = workload.bulkload_arrays()
        for kind in PAPER_INDEX_ORDER:
            phase = _measure_inserts(kind, keys, tids, 1.0, page_size, workload, inserts)
            result.add(panel="b", x=size, index=kind, cycles_per_insert=round(phase.cycles_per_op, 1))
    for ps in page_sizes:  # (c) varying page size, 100% full
        for kind in PAPER_INDEX_ORDER:
            phase = _measure_inserts(kind, base_keys, base_tids, 1.0, ps, base, inserts)
            result.add(panel="c", x=ps, index=kind, cycles_per_insert=round(phase.cycles_per_op, 1))
    for ps in page_sizes:  # (d) varying page size, 70% full
        for kind in PAPER_INDEX_ORDER:
            phase = _measure_inserts(kind, base_keys, base_tids, 0.7, ps, base, inserts)
            result.add(panel="d", x=ps, index=kind, cycles_per_insert=round(phase.cycles_per_op, 1))
    return result


def fig14(
    num_keys: int = 200_000,
    deletions: int = 200,
    page_size: int = 16 * 1024,
    bulkload_factors: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0),
    page_sizes: Sequence[int] = PAGE_SIZES,
) -> FigureResult:
    """Figure 14: lazy-deletion cycles, (a) vs bulkload factor, (b) vs page size."""
    result = FigureResult(
        "fig14",
        "deletion performance (panels a-b)",
        ["panel", "x", "index", "cycles_per_delete"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    victims = [int(k) for k in workload.delete_keys(deletions)]
    for fill in bulkload_factors:
        for kind in PAPER_INDEX_ORDER:
            mem = MemorySystem()
            tree = build_tree(kind, keys, tids, fill=fill, page_size=page_size, mem=mem)
            phase = measure_operations(mem, tree.delete, victims)
            result.add(panel="a", x=fill, index=kind, cycles_per_delete=round(phase.cycles_per_op, 1))
    for ps in page_sizes:
        for kind in PAPER_INDEX_ORDER:
            mem = MemorySystem()
            tree = build_tree(kind, keys, tids, fill=1.0, page_size=ps, mem=mem)
            phase = measure_operations(mem, tree.delete, victims)
            result.add(panel="b", x=ps, index=kind, cycles_per_delete=round(phase.cycles_per_op, 1))
    return result


def fig15(
    num_keys: int = 300_000,
    scans: int = 5,
    span_fraction: float = 1.0 / 3.0,
    page_size: int = 16 * 1024,
) -> FigureResult:
    """Figure 15: range-scan cycles (disk-optimized vs both fpB+-Trees)."""
    result = FigureResult(
        "fig15",
        "range scan cache performance",
        ["index", "cycles_per_scan", "speedup_vs_disk"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    span = max(1, int(num_keys * span_fraction))
    ranges = workload.range_scans(scans, span)
    measured = {}
    for kind in ("disk", "fp-disk", "fp-cache"):
        mem = MemorySystem()
        tree = build_tree(kind, keys, tids, page_size=page_size, mem=mem)
        phase = measure_operations(mem, lambda r: tree.range_scan(r[0], r[1]), ranges)
        measured[kind] = phase
    baseline = measured["disk"].cycles_per_op
    for kind in ("disk", "fp-disk", "fp-cache"):
        result.add(
            index=kind,
            cycles_per_scan=round(measured[kind].cycles_per_op, 0),
            speedup_vs_disk=round(baseline / measured[kind].cycles_per_op, 2),
        )
    return result


# -- space and I/O -----------------------------------------------------------------------


def fig16(
    num_keys: int = 100_000,
    page_sizes: Sequence[int] = PAGE_SIZES,
    mature_bulk_fraction: float = 0.1,
) -> FigureResult:
    """Figure 16: space overhead of fpB+-Trees vs disk-optimized B+-Trees."""
    result = FigureResult(
        "fig16",
        "space overhead (%) after (a) 100% bulkload and (b) maturing inserts",
        ["scenario", "page_size", "index", "space_overhead_pct"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    for page_size in page_sizes:
        baseline_pages = {}
        for scenario in ("bulkload", "mature"):
            for kind in ("disk", "fp-disk", "fp-cache"):
                tree = make_index(kind, page_size, num_keys_hint=num_keys)
                if scenario == "bulkload":
                    tree.bulkload(keys, tids, fill=1.0)
                else:
                    build_mature_tree(tree, KeyWorkload(num_keys), mature_bulk_fraction)
                if kind == "disk":
                    baseline_pages[scenario] = tree.num_pages
                    continue
                overhead = 100.0 * (tree.num_pages / baseline_pages[scenario] - 1.0)
                result.add(
                    scenario=scenario, page_size=page_size, index=kind,
                    space_overhead_pct=round(overhead, 1),
                )
    return result


def fig17(
    num_keys: int = 300_000,
    searches: int = 2000,
    page_sizes: Sequence[int] = PAGE_SIZES,
    mature_bulk_fraction: float = 0.5,
    pool_fraction: float = 0.125,
) -> FigureResult:
    """Figure 17: buffer-pool misses per search, bulkloaded and mature trees.

    The pool holds roughly ``pool_fraction`` of the tree's pages (at the
    paper's 10M-key scale any realistic pool is far smaller than the leaf
    level), so upper levels cache while most leaf accesses miss — the
    regime in which the paper reports 1.4-2.6 reads per search.
    """
    result = FigureResult(
        "fig17",
        "search I/O: page reads per search (cold buffer pool)",
        ["scenario", "page_size", "index", "reads_per_search"],
    )
    for page_size in page_sizes:
        approx_pages = max(1, num_keys * 8 // page_size)
        pool_frames = max(8, int(approx_pages * pool_fraction))
        for scenario in ("bulkload", "mature"):
            for kind in ("disk", "fp-disk", "fp-cache"):
                workload = KeyWorkload(num_keys)
                tree = make_index(kind, page_size, buffer_pages=pool_frames, num_keys_hint=num_keys)
                if scenario == "bulkload":
                    keys, tids = workload.bulkload_arrays()
                    tree.bulkload(keys, tids, fill=1.0)
                else:
                    build_mature_tree(tree, workload, mature_bulk_fraction)
                pool = tree.pool
                pool.clear()
                pool.reset_stats()
                for key in workload.search_keys(searches):
                    tree.search(int(key))
                result.add(
                    scenario=scenario, page_size=page_size, index=kind,
                    reads_per_search=round(pool.misses / searches, 3),
                )
    return result


def fig18(
    num_keys: int = 500_000,
    spans: Sequence[int] = (100, 1_000, 10_000, 100_000),
    disk_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    page_size: int = 16 * 1024,
    large_span: Optional[int] = None,
    prefetch_depth: int = 32,
    trials: int = 3,
) -> FigureResult:
    """Figure 18: range-scan I/O on a multi-disk array, mature trees.

    Panel (a): elapsed time vs range size at 10 disks; panels (b)/(c):
    elapsed time and speedup vs number of disks for the largest range.
    """
    result = FigureResult(
        "fig18",
        "range scan I/O performance (mature trees)",
        ["panel", "x", "index", "elapsed_ms", "speedup"],
    )
    trees: dict[str, Index] = {}
    for kind in ("disk", "fp-disk"):
        tree = make_index(kind, page_size, buffer_pages=16, num_keys_hint=num_keys)
        build_mature_tree(tree, KeyWorkload(num_keys, seed=21), bulk_fraction=0.9)
        trees[kind] = tree
    workload = KeyWorkload(num_keys, seed=21)
    big = large_span if large_span is not None else max(spans)
    span_ranges = {span: workload.range_scans(trials, span) for span in set(spans) | {big}}

    def run_one(kind: str, start_key: int, end_key: int, disks: int) -> float:
        tree = trees[kind]
        pids, extra = tree.leaf_span(start_key, end_key)
        timing = timed_range_scan(
            tree.store,
            pids,
            start_path=tree.page_path(start_key),
            end_path=tree.page_path(end_key),
            extra_pids=extra,
            num_disks=disks,
            use_prefetch=(kind == "fp-disk"),
            prefetch_depth=prefetch_depth,
            page_size=page_size,
            # Mature-tree leaves are scattered across a large volume, so
            # every repositioning is a full seek at any stripe width.
            disk=DiskParameters(sequential_window_blocks=0),
        )
        return timing.elapsed_ms

    def run(kind: str, span: int, disks: int) -> float:
        # Each reported point is the mean of several random ranges, as in
        # the paper (each data point is the average of 10 trials).
        times = [run_one(kind, lo, hi, disks) for lo, hi in span_ranges[span]]
        return sum(times) / len(times)

    max_disks = max(disk_counts)
    for span in spans:  # panel (a)
        for kind in ("disk", "fp-disk"):
            elapsed = run(kind, span, max_disks)
            result.add(panel="a", x=span, index=kind, elapsed_ms=round(elapsed, 2), speedup="")
    for disks in disk_counts:  # panels (b) and (c)
        plain = run("disk", big, disks)
        fetched = run("fp-disk", big, disks)
        result.add(panel="b", x=disks, index="disk", elapsed_ms=round(plain, 2), speedup="")
        result.add(
            panel="b", x=disks, index="fp-disk", elapsed_ms=round(fetched, 2),
            speedup=round(plain / fetched, 2),
        )
    return result


def fig19(
    num_rows: int = 150_000,
    num_disks: int = 80,
    prefetcher_counts: Sequence[int] = (1, 2, 4, 6, 8, 10, 12),
    smp_degrees: Sequence[int] = (1, 2, 3, 5, 7, 9),
    fixed_smp: int = 9,
    fixed_prefetchers: int = 8,
    page_size: int = 4096,
) -> FigureResult:
    """Figure 19: jump-pointer-array prefetching in the mini DBMS (DB2 stand-in).

    Smaller pages than the cache experiments so that the scaled-down table
    still spans a few hundred index leaf pages — the paper's table spans
    thousands, and the prefetcher pool needs a long leaf chain to matter.
    """
    result = FigureResult(
        "fig19",
        "SELECT COUNT(*) via index-only scan: prefetchers and SMP parallelism",
        ["panel", "x", "mode", "elapsed_s"],
    )
    # A mature DBMS volume: index pages are scattered, so every page read
    # pays a full seek (sequential_window_blocks=0).
    db = MiniDbms(
        num_rows=num_rows,
        num_disks=num_disks,
        page_size=page_size,
        disk=DiskParameters(sequential_window_blocks=0),
    )
    plain = db.scan(smp_degree=fixed_smp, prefetchers=0)
    warm = db.scan(smp_degree=fixed_smp, in_memory=True)
    for n in prefetcher_counts:  # panel (a)
        fetched = db.scan(smp_degree=fixed_smp, prefetchers=n)
        result.add(panel="a", x=n, mode="with prefetch", elapsed_s=round(fetched.elapsed_s, 3))
        result.add(panel="a", x=n, mode="no prefetch", elapsed_s=round(plain.elapsed_s, 3))
        result.add(panel="a", x=n, mode="in memory", elapsed_s=round(warm.elapsed_s, 3))
    for degree in smp_degrees:  # panel (b)
        result.add(
            panel="b", x=degree, mode="no prefetch",
            elapsed_s=round(db.scan(smp_degree=degree, prefetchers=0).elapsed_s, 3),
        )
        result.add(
            panel="b", x=degree, mode="with prefetch",
            elapsed_s=round(
                db.scan(smp_degree=degree, prefetchers=fixed_prefetchers).elapsed_s, 3
            ),
        )
        result.add(
            panel="b", x=degree, mode="in memory",
            elapsed_s=round(db.scan(smp_degree=degree, in_memory=True).elapsed_s, 3),
        )
    return result


def fault_resilience(
    num_rows: int = 60_000,
    num_disks: int = 8,
    page_size: int = 4096,
    error_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    limp_factors: Sequence[float] = (2.0, 5.0, 10.0),
    limp_disk: int = 0,
    prefetchers: int = 4,
    smp_degree: int = 2,
    seed: int = 29,
) -> FigureResult:
    """Robustness curve: scan throughput under injected faults.

    Panel (a) sweeps a uniform per-read error rate (corruptions plus
    transient timeouts at half the rate) and compares retry-only recovery
    against hedged reads.  Panel (b) makes one disk limp by a growing
    latency factor; hedged reads convert the limping spindle's tail latency
    into overlap on the mirror, recovering most of the lost throughput.
    All runs are mirrored-striping, deterministic from ``seed``, and must
    return the same row count as a fault-free scan.
    """
    result = FigureResult(
        "fault-resilience",
        "scan throughput under injected faults: retry-only vs hedged reads",
        [
            "panel",
            "x",
            "mode",
            "elapsed_s",
            "pages_per_s",
            "faults",
            "retries",
            "hedges",
            "hedge_wins",
            "checksum_failures",
            "row_count",
        ],
    )
    db = MiniDbms(
        num_rows=num_rows,
        num_disks=num_disks,
        page_size=page_size,
        disk=DiskParameters(sequential_window_blocks=0),
        mature=False,
    )

    def run(plan: FaultPlan, hedge: bool, mode: str, panel: str, x: float) -> QueryStats:
        stats = db.scan(
            smp_degree=smp_degree,
            prefetchers=prefetchers,
            fault_plan=plan,
            mirrored=True,
            hedge=hedge,
        )
        result.add(
            panel=panel,
            x=x,
            mode=mode,
            elapsed_s=round(stats.elapsed_s, 4),
            pages_per_s=round(stats.pages_scanned / stats.elapsed_s, 1),
            faults=stats.faults_seen,
            retries=stats.retries,
            hedges=stats.hedges,
            hedge_wins=stats.hedge_wins,
            checksum_failures=stats.checksum_failures,
            row_count=stats.row_count,
        )
        return stats

    for rate in error_rates:  # panel (a)
        plan = FaultPlan.uniform(corrupt_rate=rate, timeout_rate=rate / 2, seed=seed)
        run(plan, False, "retry only", "a", rate)
        run(plan, True, "hedged", "a", rate)
    clean = run(FaultPlan(seed=seed), False, "clean", "b", 1.0)  # panel (b)
    for factor in limp_factors:
        plan = FaultPlan.limping_disk(limp_disk, factor=factor, seed=seed)
        retry_only = run(plan, False, "retry only", "b", factor)
        hedged = run(plan, True, "hedged", "b", factor)
    thr = lambda s: s.pages_scanned / s.elapsed_s  # noqa: E731
    lost = thr(clean) - thr(retry_only)
    recovered = thr(hedged) - thr(retry_only)
    result.notes.append(
        f"limp x{limp_factors[-1]}: retry-only loses {lost:.1f} pages/s, "
        f"hedging recovers {recovered:.1f} ({100 * recovered / lost:.0f}% of the loss)"
        if lost > 0
        else "limping disk cost nothing — scale the scan up"
    )
    return result


def recovery_overhead(
    num_keys: int = 20_000,
    num_updates: int = 2_000,
    page_size: int = 4096,
    buffer_pages: int = 64,
    checkpoint_intervals: Sequence[int] = (0, 50, 250),
    crash_fraction: float = 0.9,
) -> FigureResult:
    """Crash consistency: logging overhead and redo recovery time.

    Panel (a) runs the same insert workload under write-ahead logging at
    several checkpoint intervals (0 = never) and reports what durability
    costs at runtime: WAL appends and bytes, page forces, and simulated
    disk-write time per update.  Panel (b) crashes each configuration at
    ~``crash_fraction`` of its log and measures redo recovery: more
    frequent checkpoints shift cost from recovery (fewer records to
    replay) to runtime (more page forces) — the classic trade-off.
    """
    result = FigureResult(
        "recovery",
        "WAL logging overhead and redo recovery time vs checkpoint interval",
        [
            "panel",
            "checkpoint_interval",
            "wal_appends",
            "wal_kb",
            "pages_flushed",
            "checkpoints",
            "write_us_per_op",
            "records_replayed",
            "pages_restored",
            "recovery_us",
        ],
    )
    base_keys = list(range(0, 2 * num_keys, 2))
    update_keys = list(range(1, 2 * num_updates, 2))

    def fresh():
        return DiskFirstFpTree(TreeEnvironment(page_size=page_size, buffer_pages=buffer_pages))

    def build():
        tree = fresh()
        tree.bulkload(base_keys, [k + 1 for k in base_keys])
        return tree

    for interval in checkpoint_intervals:
        # Panel (a): run the whole workload, no crash — pure logging cost.
        tree = build()
        wal = WalManager(tree, checkpoint_interval=interval)
        for key in update_keys:
            tree.insert(key, key + 1)
        stats = wal.stats()
        result.add(
            panel="a",
            checkpoint_interval=interval,
            wal_appends=stats.wal_appends,
            wal_kb=round(stats.wal_bytes / 1024, 1),
            pages_flushed=stats.pages_flushed,
            checkpoints=stats.checkpoints,
            write_us_per_op=round(stats.write_us / num_updates, 2),
            records_replayed=0,
            pages_restored=0,
            recovery_us=0,
        )
        # Panel (b): same workload, crashed at ~crash_fraction of the log,
        # then redo recovery from the crash image.
        crash_at = max(1, int(crash_fraction * stats.wal_appends))
        tree = build()
        wal = WalManager(
            tree,
            plan=FaultPlan.crash_point(wal_appends=crash_at),
            checkpoint_interval=interval,
        )
        try:
            for key in update_keys:
                tree.insert(key, key + 1)
        except SimulatedCrash:
            pass
        recovered, rec = recover(wal.crash_state(), fresh)
        assert recovered.num_entries == num_keys + len(rec.committed_txns)
        result.add(
            panel="b",
            checkpoint_interval=interval,
            wal_appends=rec.records_scanned,
            wal_kb=round(rec.valid_wal_bytes / 1024, 1),
            pages_flushed=0,
            checkpoints=0,
            write_us_per_op=0,
            records_replayed=rec.records_replayed,
            pages_restored=rec.pages_restored,
            recovery_us=round(rec.recovery_us, 1),
        )
    never = result.filter(panel="b", checkpoint_interval=0)[0]
    tightest = result.filter(panel="b", checkpoint_interval=min(i for i in checkpoint_intervals if i))[0]
    result.notes.append(
        f"redo work: {never['records_replayed']} records with no checkpoints vs "
        f"{tightest['records_replayed']} at the tightest interval "
        f"({never['recovery_us']:.0f}us vs {tightest['recovery_us']:.0f}us recovery)"
    )
    return result


# -- ablations (design choices called out in DESIGN.md) --------------------------------------


def ablation_overshoot(num_keys: int = 200_000, span: int = 2_000, disks: int = 8) -> FigureResult:
    """Overshooting avoidance (Section 2.2): end-key search vs blind prefetch."""
    result = FigureResult(
        "ablation-overshoot",
        "range-scan prefetch with and without overshoot avoidance",
        ["mode", "elapsed_ms", "disk_reads", "overshoot_reads"],
    )
    tree = make_index("fp-disk", 16 * 1024, buffer_pages=16, num_keys_hint=num_keys)
    workload = KeyWorkload(num_keys, seed=31)
    build_mature_tree(tree, workload, bulk_fraction=0.9)
    # A mid-keyspace range, so there are leaf pages beyond the end to
    # overshoot into.
    start_index = num_keys // 3
    start_key = int(workload.keys[start_index])
    end_key = int(workload.keys[start_index + span - 1])
    pids, extra = tree.leaf_span(start_key, end_key)
    for avoid in (True, False):
        timing = timed_range_scan(
            tree.store, pids,
            start_path=tree.page_path(start_key), end_path=tree.page_path(end_key),
            extra_pids=extra, num_disks=disks, use_prefetch=True, avoid_overshoot=avoid,
            disk=DiskParameters(sequential_window_blocks=0),
        )
        result.add(
            mode="avoid overshoot" if avoid else "overshooting",
            elapsed_ms=round(timing.elapsed_ms, 2),
            disk_reads=timing.disk_reads,
            overshoot_reads=timing.overshoot_reads,
        )
    return result


def ablation_uniform_node_size(
    num_keys: int = 200_000, searches: int = 200, page_size: int = 16 * 1024
) -> FigureResult:
    """Two node sizes (Section 3.1.1) vs forcing leaf width == non-leaf width."""
    result = FigureResult(
        "ablation-uniform-node-size",
        "disk-first in-page trees: distinct vs uniform node widths",
        ["variant", "page_fanout", "cycles_per_search"],
    )
    workload = KeyWorkload(num_keys)
    keys, tids = workload.bulkload_arrays()
    picks = [int(k) for k in workload.search_keys(searches)]
    optimal = optimize_disk_first(page_size)
    # Force x == w for the uniform variant.
    from ..core import optimizer as opt

    w = optimal.nonleaf_bytes // 64
    usable = page_size - opt.PAGE_HEADER_BYTES
    leaf_capacity = (optimal.nonleaf_bytes - opt.INPAGE_NODE_HEADER_BYTES) // 8
    chosen = None
    levels = 2
    while True:
        leaves = opt._inpage_tree_leaves(
            usable, levels, optimal.nonleaf_bytes, optimal.nonleaf_bytes, optimal.nonleaf_capacity
        )
        if leaves <= 0:
            break
        if chosen is None or leaves * leaf_capacity > chosen[1]:
            chosen = (levels, leaves * leaf_capacity, leaves)
        levels += 1
    levels, fanout, leaves = chosen
    uniform = DiskFirstWidths(
        nonleaf_bytes=optimal.nonleaf_bytes, leaf_bytes=optimal.nonleaf_bytes, levels=levels,
        leaf_nodes=leaves, nonleaf_capacity=optimal.nonleaf_capacity,
        leaf_capacity=leaf_capacity, page_fanout=fanout,
        cost=search_cost(levels, w, w, 150, 10), cost_ratio=1.0,
    )
    for label, widths in (("two sizes (paper)", optimal), ("uniform size", uniform)):
        mem = MemorySystem()
        tree = DiskFirstFpTree(TreeEnvironment(page_size=page_size, mem=mem), widths=widths)
        with mem.paused():
            tree.bulkload(keys, tids)
        phase = measure_operations(mem, tree.search, picks)
        result.add(
            variant=label, page_fanout=widths.page_fanout,
            cycles_per_search=round(phase.cycles_per_op, 1),
        )
    return result


def ablation_jpa_on_standard_btree(
    num_keys: int = 200_000, span: int = 20_000, disks: int = 10
) -> FigureResult:
    """Jump-pointer prefetching on a *standard* B+-Tree (Section 2.2).

    "This approach is applicable for improving the I/O performance of
    standard B+-Trees, not just fractal ones" — it is what the paper added
    to DB2.  The jump-pointer array here is the tree's leaf chain.
    """
    result = FigureResult(
        "ablation-jpa-on-btree",
        "standard B+-Tree range-scan I/O with and without jump-pointer prefetch",
        ["mode", "elapsed_ms", "speedup"],
    )
    tree = make_index("disk", 16 * 1024, buffer_pages=16, num_keys_hint=num_keys)
    workload = KeyWorkload(num_keys, seed=23)
    build_mature_tree(tree, workload, bulk_fraction=0.9)
    start_index = num_keys // 4
    start_key = int(workload.keys[start_index])
    end_key = int(workload.keys[start_index + span - 1])
    pids, __ = tree.leaf_span(start_key, end_key)
    scattered = DiskParameters(sequential_window_blocks=0)
    timings = {}
    for use_prefetch in (False, True):
        timings[use_prefetch] = timed_range_scan(
            tree.store, pids,
            start_path=tree.page_path(start_key), end_path=tree.page_path(end_key),
            num_disks=disks, use_prefetch=use_prefetch, disk=scattered,
        )
    plain = timings[False].elapsed_ms
    for use_prefetch in (False, True):
        elapsed = timings[use_prefetch].elapsed_ms
        result.add(
            mode="with jump-pointer prefetch" if use_prefetch else "plain scan",
            elapsed_ms=round(elapsed, 2),
            speedup=round(plain / elapsed, 2),
        )
    return result


def ablation_prefetch_depth(
    num_keys: int = 200_000,
    span: int = 5_000,
    disks: int = 10,
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
) -> FigureResult:
    """How far ahead the jump-pointer array must prefetch to hide disk latency."""
    result = FigureResult(
        "ablation-prefetch-depth",
        "range-scan elapsed time vs prefetch depth",
        ["depth", "elapsed_ms"],
    )
    tree = make_index("fp-disk", 16 * 1024, buffer_pages=16, num_keys_hint=num_keys)
    workload = KeyWorkload(num_keys, seed=17)
    build_mature_tree(tree, workload, bulk_fraction=0.9)
    start_key, end_key = workload.range_scans(1, span)[0]
    pids, __ = tree.leaf_span(start_key, end_key)
    for depth in depths:
        timing = timed_range_scan(
            tree.store, pids, num_disks=disks, use_prefetch=True, prefetch_depth=depth,
            disk=DiskParameters(sequential_window_blocks=0),
        )
        result.add(depth=depth, elapsed_ms=round(timing.elapsed_ms, 2))
    return result


def traced_scan(
    num_rows: int = 20_000,
    num_disks: int = 4,
    page_size: int = 4096,
    inserts: int = 20,
    prefetchers: int = 4,
    smp_degree: int = 2,
    corrupt_rate: float = 0.02,
    timeout_rate: float = 0.01,
    seed: int = 3,
) -> FigureResult:
    """One fully-traced mirrored scan under light faults, stats vs trace.

    Runs ``MiniDbms.scan(trace=True)`` with the WAL enabled and a mild
    fault plan, then reconciles every ``QueryStats`` counter against the
    counts recovered from the trace itself.  The rows are the
    reconciliation table (each must agree exactly); the exported
    Chrome-trace JSON rides along on ``result.trace`` so that
    ``python -m repro.bench traced-scan --trace-out scan.json`` produces a
    file loadable in ui.perfetto.dev.
    """
    result = FigureResult(
        "traced-scan",
        "query trace vs QueryStats reconciliation (must agree exactly)",
        ["quantity", "from_stats", "from_trace", "agree"],
    )
    db = MiniDbms(
        num_rows=num_rows,
        num_disks=num_disks,
        page_size=page_size,
        disk=DiskParameters(sequential_window_blocks=0),
        mature=False,
    )
    db.enable_wal()
    for key in range(10_000_000, 10_000_000 + inserts):
        db.insert(key)
    plan = FaultPlan.uniform(
        corrupt_rate=corrupt_rate, timeout_rate=timeout_rate, seed=seed
    )
    stats = db.scan(
        smp_degree=smp_degree,
        prefetchers=prefetchers,
        fault_plan=plan,
        mirrored=True,
        trace=True,
    )
    trace = stats.trace
    for quantity, from_stats in (
        ("disk_reads", stats.disk_reads),
        ("prefetches", stats.prefetches),
        ("hedges", stats.hedges),
        ("retries", stats.retries),
        ("wal_appends", stats.wal_appends),
    ):
        from_trace = trace.counter_value(quantity.replace("disk_", ""))
        result.add(
            quantity=quantity,
            from_stats=from_stats,
            from_trace=from_trace,
            agree=from_stats == from_trace,
        )
    # Completion spans can lag issued reads: a hedge loser or stalled
    # command still in flight when the scan finishes never completes, so
    # the invariant is <=, not ==.
    read_spans = trace.count("read", ph="X")
    result.add(
        quantity="read_spans (<=)",
        from_stats=stats.disk_reads,
        from_trace=read_spans,
        agree=read_spans <= stats.disk_reads,
    )
    result.trace = trace
    result.notes.append(
        f"{len(trace.tracer.records)} trace records over "
        f"{stats.elapsed_us:.0f} simulated us ({stats.row_count} rows)"
    )
    return result


from .multipage import ablation_multipage_nodes  # noqa: E402  (avoids a cycle)

ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig03": fig03,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fault-resilience": fault_resilience,
    "recovery": recovery_overhead,
    "ablation-overshoot": ablation_overshoot,
    "ablation-uniform-node-size": ablation_uniform_node_size,
    "ablation-prefetch-depth": ablation_prefetch_depth,
    "ablation-jpa-on-btree": ablation_jpa_on_standard_btree,
    "ablation-multipage-nodes": ablation_multipage_nodes,
    "traced-scan": traced_scan,
}
