"""Figure 18: range-scan I/O performance on a multi-disk array.

Claims checked (paper Section 4.3.2): tiny ranges are a wash; larger ranges
give the fpB+-Tree a significant win (paper: 1.9x at 10^4 entries, 6.2-6.9x
at 10^6-10^7); the speedup grows close to linearly with the number of
disks.
"""

from conftest import committed


def test_fig18_range_scan_io():
    result = committed("fig18")

    def elapsed(panel, x, index):
        return result.filter(panel=panel, x=x, index=index)[0]["elapsed_ms"]

    # Panel (a): small ranges indistinguishable, large ranges (the sweep's
    # largest span) a big win.
    assert elapsed("a", 100, "fp-disk") <= elapsed("a", 100, "disk") * 1.2
    assert elapsed("a", 100_000, "disk") / elapsed("a", 100_000, "fp-disk") > 3.0

    # Panels (b)/(c): speedup grows with the number of disks.
    speedups = [
        result.filter(panel="b", x=disks, index="fp-disk")[0]["speedup"]
        for disks in (1, 4, 10)
    ]
    assert speedups[0] < speedups[1] < speedups[2]
    assert speedups[2] > 3.0
    assert speedups[0] < 1.6  # one disk: nothing to overlap
