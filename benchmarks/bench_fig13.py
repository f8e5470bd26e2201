"""Figure 13: insertion performance.

Claims checked (paper Section 4.2.2):

* panels (a)/(d): on non-full trees, fpB+-Trees beat the baseline by a large
  factor (paper: 14-20x at the full scale; several-fold when scaled down)
  because data movement happens inside one small node;
* micro-indexing performs almost as poorly as the baseline;
* panel (a) at 100%: page splits shrink the fp advantage but the fp trees
  stay ahead (paper: over 1.9x);
* the fp curves are flat from 60-90% full while the baseline's grow.
"""

from conftest import committed


def test_fig13_insertions():
    result = committed("fig13")

    # Panel (a), non-full trees: big fp wins, micro ~ baseline.
    for fill in (0.6, 0.9):
        rows = {r["index"]: r["cycles_per_insert"] for r in result.filter(panel="a", x=fill)}
        for kind in ("fp-disk", "fp-cache"):
            assert rows["disk"] / rows[kind] > 3.0, (fill, kind, rows)
        assert rows["disk"] / rows["micro"] < 1.6, rows

    # Panel (a), 100% full: page splits shrink but do not erase the win.
    rows = {r["index"]: r["cycles_per_insert"] for r in result.filter(panel="a", x=1.0)}
    assert rows["disk"] / rows["fp-disk"] > 1.1, rows

    # fp curves are flat from 60-90% while the baseline's cost grows.
    fp60 = result.filter(panel="a", x=0.6, index="fp-disk")[0]["cycles_per_insert"]
    fp90 = result.filter(panel="a", x=0.9, index="fp-disk")[0]["cycles_per_insert"]
    disk60 = result.filter(panel="a", x=0.6, index="disk")[0]["cycles_per_insert"]
    disk90 = result.filter(panel="a", x=0.9, index="disk")[0]["cycles_per_insert"]
    assert fp90 / fp60 < disk90 / disk60 * 1.2

    # Panel (d), 70% full: the baseline explodes with page size; fp does not.
    disk_small = result.filter(panel="d", x=8192, index="disk")[0]["cycles_per_insert"]
    disk_large = result.filter(panel="d", x=32768, index="disk")[0]["cycles_per_insert"]
    fp_small = result.filter(panel="d", x=8192, index="fp-disk")[0]["cycles_per_insert"]
    fp_large = result.filter(panel="d", x=32768, index="fp-disk")[0]["cycles_per_insert"]
    assert disk_large / disk_small > 1.5
    assert fp_large / fp_small < 1.8
    # The headline: large pages, non-full trees -> order-of-magnitude win.
    assert disk_large / fp_large > 6.0
