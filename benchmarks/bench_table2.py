"""Table 2: optimal node-width selections.

The assertions pin the committed selected widths against the paper's
table; the enumeration itself (it runs at index-creation time) is the
measured operation of the wall-clock benchmark.
"""

from repro.core import optimize_cache_first, optimize_disk_first

from conftest import committed


def test_table2_width_selection():
    result = committed("table2")

    by_key = {(row["page_size"], row["scheme"]): row for row in result.rows}
    # Exact matches with the paper's disk-first column.
    assert by_key[(4096, "disk-first")]["page_fanout"] == 470
    assert by_key[(8192, "disk-first")]["page_fanout"] == 961
    assert by_key[(32768, "disk-first")]["page_fanout"] == 4017
    # Exact matches with the paper's cache-first column.
    assert by_key[(4096, "cache-first")]["page_fanout"] == 497
    assert by_key[(8192, "cache-first")]["page_fanout"] == 994
    assert by_key[(32768, "cache-first")]["page_fanout"] == 4029
    # Everything selected is within the 10% cost window.
    for row in result.rows:
        assert row["cost_ratio"] <= 1.10


def test_optimizer_is_fast_enough_for_index_creation(benchmark):
    """Section 3.1.1: 'the cost of enumeration is small'."""
    benchmark(lambda: (optimize_disk_first(16384), optimize_cache_first(16384)))
