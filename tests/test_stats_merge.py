"""Hand-computed tests for metric merging and fleet-wide ServerStats.merge."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.stats import ServerStats

# -- primitive merges (every value hand-computed) ---------------------------


def test_counter_merge_adds():
    a, b = Counter("c"), Counter("c")
    a.inc(3)
    b.inc(4)
    a.merge_from(b)
    assert a.value == 7
    assert b.value == 4  # source untouched


def test_gauge_merge_adds_values_and_maxima():
    a, b = Gauge("g"), Gauge("g")
    a.set(4)
    a.set(2)  # value 2, max 4
    b.set(6)
    b.set(3)  # value 3, max 6
    a.merge_from(b)
    assert a.value == 5  # 2 + 3: a fleet's in-flight is the sum of members'
    assert a.max_value == 10  # 4 + 6: conservative upper bound on the true peak


def test_histogram_merge_bucketwise():
    a = Histogram("h", bounds=(1.0, 2.0, 4.0))
    b = Histogram("h", bounds=(1.0, 2.0, 4.0))
    a.record(0.5)  # bucket 0
    a.record(3.0)  # bucket 2
    b.record(1.5)  # bucket 1
    b.record(9.0)  # overflow
    a.merge_from(b)
    assert a.counts == [1, 1, 1, 1]
    assert a.count == 4
    assert a.total == 14.0
    assert a.min == 0.5
    assert a.max == 9.0


def test_histogram_merge_empty_source_keeps_extrema():
    a = Histogram("h", bounds=(1.0,))
    b = Histogram("h", bounds=(1.0,))
    a.record(0.5)
    a.merge_from(b)  # empty source must not clobber min/max with +/-inf
    assert a.min == 0.5 and a.max == 0.5 and a.count == 1


def test_histogram_merge_rejects_mismatched_bounds():
    a = Histogram("h", bounds=(1.0, 2.0))
    b = Histogram("h", bounds=(1.0, 3.0))
    with pytest.raises(ValueError, match="bucket bounds differ"):
        a.merge_from(b)


def test_registry_merge_creates_missing_metrics_with_same_shape():
    a, b = MetricsRegistry(), MetricsRegistry()
    b.counter("only.in.b").inc(5)
    b.gauge("depth").set(3)
    b.histogram("lat", bounds=(10.0, 20.0)).record(15.0)
    a.merge_from(b)
    assert a.value("only.in.b") == 5
    assert a.value("depth") == 3
    merged_hist = a.get("lat")
    assert merged_hist.bounds == (10.0, 20.0)
    assert merged_hist.counts == [0, 1, 0]


def test_registry_merge_accumulates_many_sources():
    total = MetricsRegistry()
    for value in (1, 10, 100):
        source = MetricsRegistry()
        source.counter("n").inc(value)
        total.merge_from(source)
    assert total.value("n") == 111


# -- ServerStats.merge ------------------------------------------------------


def _stats_a():
    stats = ServerStats()
    for __ in range(3):
        stats.issue()
    stats.settle("lookup", "ok", 200.0, rows=1)
    stats.settle("lookup", "ok", 200.0, rows=1)
    stats.settle("lookup", "shed", 300.0)
    return stats  # issued 3 = completed 2 + shed 1 + in_flight 0


def _stats_b():
    stats = ServerStats()
    for __ in range(3):
        stats.issue()
    stats.settle("scan", "ok", 400.0, rows=64)
    stats.settle("scan", "failed", 500.0)
    return stats  # issued 3 = completed 1 + failed 1 + in_flight 1


def test_server_stats_merge_hand_computed():
    a, b = _stats_a(), _stats_b()
    merged = a.merge(b)
    assert merged.issued == 6
    assert merged.completed == 3
    assert merged.shed == 1
    assert merged.failed == 1
    assert merged.in_flight.value == 1
    assert merged.rows_returned == 66
    # Conservation survives merging because every field sums.
    assert a.conserved() and b.conserved() and merged.conserved()
    # Histograms merged over the union of samples, not averaged.
    assert merged.latency_histogram("all").count == 3
    assert merged.latency_histogram("all").total == 800.0
    assert merged.latency_histogram("lookup").count == 2
    assert merged.latency_histogram("scan").count == 1


def test_server_stats_merge_leaves_sources_untouched():
    a, b = _stats_a(), _stats_b()
    a.merge(b)
    assert a.issued == 3 and b.issued == 3
    assert a.latency_histogram("all").count == 2
    assert b.in_flight.value == 1


def test_server_stats_merge_multiple_and_empty():
    a, b = _stats_a(), _stats_b()
    merged = a.merge(b, ServerStats())
    assert merged.issued == 6
    # Merging a lone empty plane is the identity.
    alone = ServerStats().merge()
    assert alone.issued == 0 and alone.conserved()
