"""Percentile, tail, capacity and spread rules, against hand-computed cases."""

import pytest

import benchstats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p50 is rank 10: only 9 samples beyond
        (20, 50.0),  # p50 rank 10, 10 beyond; p90 rank 18, 2 beyond
        (100, 90.0),  # p90 rank 90, 10 beyond; p95 rank 95, 5 beyond
        (200, 95.0),  # p95 rank 190, 10 beyond; p99 rank 198, 2 beyond
        (999, 95.0),  # p99 rank 990, 9 beyond
        (1000, 99.0),  # p99 rank 990, 10 beyond; p99.9 rank 999, 1 beyond
        (10000, 99.9),  # p99.9 rank 9990, 10 beyond
    ],
)
def test_reportable_percentile(n, expected):
    assert benchstats.reportable_percentile(n) == expected


def test_nearest_rank_order_statistics():
    values = list(range(1, 101))
    assert benchstats.exact_percentile(values, 50.0) == 50
    assert benchstats.exact_percentile(values, 99.0) == 99
    assert benchstats.exact_percentile(values, 100.0) == 100
    assert benchstats.exact_percentile([1.0, 3.0, 5.0], 50.0) == 3.0
    assert benchstats.samples_beyond(1000, 99.0) == 10


def test_tail_mean_covers_the_order_statistic_and_above():
    assert benchstats.tail_mean(list(range(1, 101)), 99.0) == 99.5
    assert benchstats.tail_mean([7.0] * 50, 99.0) == 7.0


def test_summarize_reports_sample_count_and_top_percentile():
    s = benchstats.summarize(range(1000, 0, -1))
    assert (s["n"], s["p50"], s["p99"], s["top_percentile"]) == (1000, 500, 990, 99.0)
    assert s["top_value"] == 990


def phase(rate, p99, refused=0, failed=0):
    return {"rate": rate, "p99_ms": p99, "refused": refused, "failed": failed}


def test_capacity_is_highest_rate_meeting_limit_with_nothing_lost():
    phases = [phase(200, 30.0), phase(400, 150.0), phase(800, 120.0, refused=5)]
    assert benchstats.capacity(phases, 150.0) == 400  # p99 == limit passes
    assert benchstats.capacity([phase(200, 30.0), phase(400, 150.01)], 150.0) == 200
    assert benchstats.capacity([phase(200, 30.0, failed=1)], 150.0) == 0.0
    # Not monotone: a passing higher rate still counts.
    assert benchstats.capacity([phase(200, 200.0), phase(400, 100.0)], 150.0) == 400


def test_spread_uses_statistics_quartiles():
    s = benchstats.spread([10.0, 11.0, 12.0, 13.0, 14.0])
    # statistics.quantiles(n=4), exclusive method: 10.5, 12, 13.5.
    assert (s["q1"], s["median"], s["q3"]) == (10.5, 12.0, 13.5)
    assert s["spread"] == pytest.approx(3.0 / 12.0)


def test_worse_by_respects_direction():
    assert benchstats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert benchstats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)


def test_steady_flags_median_drift_in_either_direction():
    import steady

    bound = {"bound": 0.25, "better": "higher"}
    first = {"median": 100.0, "spread": 0.0}

    def flagged(median, name="host_ops_per_s", spread=0.0):
        summary = {"median": median, "spread": spread}
        notes = steady.flags(name, first, summary, bound, later=True)
        return any("bound" in note for note in notes)

    assert not flagged(120.0) and not flagged(80.0)
    assert flagged(130.0)  # better by 30%: still a drift between sets
    assert flagged(70.0)
    assert flagged(100.0, spread=0.3)
    assert not flagged(100.0, name="setup_s", spread=0.3)  # setup_s: median only
    assert flagged(130.0, name="setup_s")
