"""Figure 12: search performance across bulkload factors (16KB pages).

Claim checked (paper Section 4.2.1): the cache-sensitive schemes achieve
speedups between roughly 1.37 and 1.60 over the baseline at every bulkload
factor from 60% to 100% — we assert a slightly wider band for the
scaled-down tree.
"""

from conftest import committed


def test_fig12_bulkload_factor_sweep():
    result = committed("fig12")

    for fill in (0.6, 0.8, 1.0):
        rows = {r["index"]: r["cycles_per_search"] for r in result.filter(fill=fill)}
        base = rows["disk"]
        for kind in ("micro", "fp-disk", "fp-cache"):
            speedup = base / rows[kind]
            assert 1.05 < speedup < 3.0, (fill, kind, speedup)
