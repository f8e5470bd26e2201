"""Figure 14: deletion performance (lazy deletions).

Claims checked (paper Section 4.2.3): fpB+-Trees beat the baseline by
3.2-20x because deletion's data movement is confined to one node; the
baseline's cost grows with bulkload factor and page size while the fp
trees' barely changes; micro-indexing tracks the baseline.
"""

from conftest import committed


def test_fig14_deletions():
    result = committed("fig14")

    for fill in (0.6, 1.0):
        rows = {r["index"]: r["cycles_per_delete"] for r in result.filter(panel="a", x=fill)}
        for kind in ("fp-disk", "fp-cache"):
            assert rows["disk"] / rows[kind] > 3.0, (fill, kind, rows)
        assert rows["disk"] / rows["micro"] < 1.5, rows

    # Baseline deletion cost grows with page size; fp stays nearly flat.
    disk_small = result.filter(panel="b", x=8192, index="disk")[0]["cycles_per_delete"]
    disk_large = result.filter(panel="b", x=32768, index="disk")[0]["cycles_per_delete"]
    fp_small = result.filter(panel="b", x=8192, index="fp-disk")[0]["cycles_per_delete"]
    fp_large = result.filter(panel="b", x=32768, index="fp-disk")[0]["cycles_per_delete"]
    assert disk_large > disk_small * 1.5
    assert fp_large < fp_small * 1.5
    assert disk_large / fp_large > 5.0
