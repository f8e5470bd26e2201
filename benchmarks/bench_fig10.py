"""Figure 10: search performance for 100% bulkload.

Claims checked (paper Section 4.2.1): all three cache-sensitive schemes
beat the disk-optimized baseline at every page size, with speedups in the
1.1-1.8x band, and the three are "more or less similar" to one another.
"""

from repro.bench.cache_runner import build_tree
from repro.mem import MemorySystem
from repro.workloads import KeyWorkload

from conftest import committed


def test_fig10_search_speedups():
    result = committed("fig10")

    for page_size in (8192, 16384):
        for num_keys in (30_000, 100_000):
            rows = {
                r["index"]: r["cycles_per_search"]
                for r in result.filter(page_size=page_size, num_keys=num_keys)
            }
            base = rows["disk"]
            for kind in ("micro", "fp-disk", "fp-cache"):
                speedup = base / rows[kind]
                assert speedup > 1.05, (page_size, num_keys, kind, speedup)
                assert speedup < 3.0, (page_size, num_keys, kind, speedup)
            # The three cache-sensitive schemes are similar (within ~45%).
            sensitive = [rows[k] for k in ("micro", "fp-disk", "fp-cache")]
            assert max(sensitive) / min(sensitive) < 1.45


def test_fig10_search_operation(benchmark):
    """Wall-clock benchmark of the traced fpB+-Tree search itself."""
    w = KeyWorkload(30_000)
    keys, tids = w.bulkload_arrays()
    mem = MemorySystem()
    tree = build_tree("fp-disk", keys, tids, page_size=16384, mem=mem)
    picks = [int(k) for k in w.search_keys(50)]

    def run():
        for key in picks:
            tree.search(key)

    benchmark(run)
