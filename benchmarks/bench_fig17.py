"""Figure 17: search I/O performance (buffer-pool misses per search).

Claims checked (paper Section 4.3.1): disk-first fpB+-Trees read within a
few percent of the baseline's page count; cache-first reads noticeably more
pages (leaf parents living in overflow pages) — the reason the paper
recommends disk-first when I/O matters.
"""

from conftest import committed


def test_fig17_search_io():
    result = committed("fig17")

    for scenario in ("bulkload", "mature"):
        for page_size in (4096, 16384):
            rows = {
                r["index"]: r["reads_per_search"]
                for r in result.filter(scenario=scenario, page_size=page_size)
            }
            # Disk-first: within a few percent of the baseline.
            assert rows["fp-disk"] <= rows["disk"] * 1.08, (scenario, page_size, rows)
            # Cache-first: measurably more reads, but bounded.
            assert rows["fp-cache"] <= rows["disk"] * 1.5, (scenario, page_size, rows)
            assert rows["fp-cache"] >= rows["disk"] * 0.95, (scenario, page_size, rows)
            # The paper's recommendation rationale: disk-first has the
            # smaller I/O impact of the two fpB+-Tree designs.
            assert rows["fp-disk"] <= rows["fp-cache"], (scenario, page_size, rows)
