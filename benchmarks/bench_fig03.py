"""Figure 3(b): search-time breakdown, disk-optimized B+-Tree vs pB+-Tree.

Claims checked: the disk-optimized baseline spends far more time on data
cache stalls than the cache-optimized pB+-Tree, and its busy time carries
the buffer-pool instruction overhead.
"""

from conftest import committed


def test_fig03_breakdown():
    result = committed("fig03")

    disk = next(r for r in result.rows if "disk" in r["index"])
    pb = next(r for r in result.rows if r["index"] == "pB+tree")
    assert disk["total"] == 100.0
    assert pb["total"] < disk["total"]
    # Data-cache stalls are where the baseline loses (paper Section 3).
    assert disk["dcache_stalls"] > pb["dcache_stalls"] * 2
    # The baseline's busy time includes buffer-pool management overhead.
    assert disk["busy"] > pb["busy"]
