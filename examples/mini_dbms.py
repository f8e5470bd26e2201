#!/usr/bin/env python
"""The DB2 experiment in miniature (paper Figure 19 / Section 4.3.3).

Creates a mini database — a heap table with the paper's row shape
(int, int, char(20), int, char(512)) and a disk-first fpB+-Tree index —
and answers ``SELECT COUNT(*)`` with an index-only scan under three
execution modes: demand paging, jump-pointer-array prefetching with a pool
of I/O server processes, and a preloaded buffer pool (the attainable
floor).  Sweeps both the number of prefetchers and the SMP degree.

Run:  python examples/mini_dbms.py
"""

from repro import MiniDbms
from repro.storage import DiskParameters

ROWS = 80_000
DISKS = 40


def main():
    print(f"Populating {ROWS:,} rows across {DISKS} disks (this builds a mature index) ...")
    db = MiniDbms(
        num_rows=ROWS,
        num_disks=DISKS,
        page_size=4096,
        disk=DiskParameters(sequential_window_blocks=0),
    )
    print(
        f"  table: {db.table.num_pages} heap pages "
        f"({db.table.total_bytes / 1e6:.1f} MB simulated)"
    )
    print(f"  index: {db.index.num_pages} pages, {len(db.index.leaf_page_ids())} leaf pages")

    check = db.scan(smp_degree=2, prefetchers=4)
    assert check.row_count == ROWS
    print(f"  SELECT COUNT(*) = {check.row_count:,} (correct)\n")

    print("Varying the number of I/O prefetchers (SMP degree 9):")
    plain = db.scan(smp_degree=9, prefetchers=0)
    warm = db.scan(smp_degree=9, in_memory=True)
    print(f"  {'no prefetch':>14}: {plain.elapsed_s * 1000:8.1f} ms")
    for n in (1, 2, 4, 8, 12):
        stats = db.scan(smp_degree=9, prefetchers=n)
        print(f"  {n:>3} prefetchers: {stats.elapsed_s * 1000:8.1f} ms")
    print(f"  {'in memory':>14}: {warm.elapsed_s * 1000:8.1f} ms  (floor)\n")

    print("Varying SMP degree (8 prefetchers):")
    print(f"{'degree':>7}  {'no prefetch':>12}  {'with prefetch':>13}  {'in memory':>10}")
    for degree in (1, 2, 4, 6, 9):
        row = (
            db.scan(smp_degree=degree, prefetchers=0).elapsed_s,
            db.scan(smp_degree=degree, prefetchers=8).elapsed_s,
            db.scan(smp_degree=degree, in_memory=True).elapsed_s,
        )
        print(f"{degree:>7}  {row[0] * 1000:>10.1f}ms  {row[1] * 1000:>11.1f}ms  {row[2] * 1000:>8.1f}ms")

    speedup = db.scan(smp_degree=1, prefetchers=0).elapsed_s / db.scan(
        smp_degree=1, prefetchers=8
    ).elapsed_s
    print(f"\nPrefetching speedup at SMP degree 1: {speedup:.1f}x (paper: 2.5-5x on DB2)")


if __name__ == "__main__":
    main()
