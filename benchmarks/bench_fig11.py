"""Figure 11: optimal node-width selection quality (16KB pages).

Claim checked (paper Section 4.2.1): the optimizer's selected widths give
search performance within a few percent of the best width in the sweep —
"within 2% of the best" for disk-first, "within 5%" for cache-first.
"""

from conftest import committed


def test_fig11_selected_widths_near_best():
    result = committed("fig11")

    for variant, tolerance in (("disk-first", 1.10), ("cache-first", 1.12)):
        rows = result.filter(variant=variant)
        best = min(row["cycles_per_search"] for row in rows)
        selected = [row for row in rows if row["selected"]]
        assert selected, f"no selected width recorded for {variant}"
        assert selected[0]["cycles_per_search"] <= best * tolerance, (variant, selected, best)
