"""Figure 15: range-scan cache performance.

Claims checked (paper Section 4.2.4): both fpB+-Trees dramatically beat the
disk-optimized baseline on large scans (paper: 4.2x disk-first, 3.5x
cache-first) thanks to jump-pointer prefetching of the leaf nodes.
"""

from conftest import committed


def test_fig15_range_scan():
    result = committed("fig15")

    rows = {r["index"]: r for r in result.rows}
    assert rows["disk"]["speedup_vs_disk"] == 1.0
    assert rows["fp-disk"]["speedup_vs_disk"] > 2.0
    assert rows["fp-cache"]["speedup_vs_disk"] > 2.0
