#!/usr/bin/env python
"""Range-scan I/O with jump-pointer-array prefetching (paper Figure 18).

Builds a *mature* disk-first fpB+-Tree (bulkload 90% + insert 10%, so leaf
pages are scattered on disk), then scans a large key range over a simulated
disk array, with and without prefetching, for 1..10 disks.  The prefetched
scan overlaps seeks across spindles and its speedup grows with the number
of disks — the paper's 12-disk SGI Origin result in miniature.

Run:  python examples/multidisk_scan.py
"""

from repro import DiskFirstFpTree, KeyWorkload, TreeEnvironment, build_mature_tree
from repro.bench.io_scan import timed_range_scan
from repro.storage import DiskParameters

NUM_KEYS = 150_000
SPAN = 40_000


def main():
    print(f"Building a mature fpB+-Tree with {NUM_KEYS:,} keys ...")
    tree = DiskFirstFpTree(TreeEnvironment(page_size=16 * 1024, buffer_pages=16))
    workload = KeyWorkload(NUM_KEYS, seed=5)
    build_mature_tree(tree, workload, bulk_fraction=0.9)
    print(f"  {tree.num_pages} pages, {tree.page_splits} page splits during maturing")

    start_key, end_key = workload.range_scans(1, SPAN)[0]
    pids, __ = tree.leaf_span(start_key, end_key)
    scattered = DiskParameters(sequential_window_blocks=0)
    print(f"Scanning {SPAN:,} entries across {len(pids)} leaf pages.\n")

    print(f"{'disks':>5}  {'plain scan':>12}  {'prefetched':>12}  {'speedup':>7}")
    for disks in (1, 2, 4, 6, 8, 10):
        plain = timed_range_scan(
            tree.store, pids, start_path=tree.page_path(start_key),
            num_disks=disks, use_prefetch=False, disk=scattered,
        )
        fetched = timed_range_scan(
            tree.store, pids,
            start_path=tree.page_path(start_key), end_path=tree.page_path(end_key),
            num_disks=disks, use_prefetch=True, prefetch_depth=3 * disks, disk=scattered,
        )
        print(
            f"{disks:>5}  {plain.elapsed_ms:>10.1f}ms  {fetched.elapsed_ms:>10.1f}ms  "
            f"{plain.elapsed_us / fetched.elapsed_us:>6.2f}x"
        )
    print("\nThe jump-pointer array turns disk latency into disk parallelism.")


if __name__ == "__main__":
    main()
