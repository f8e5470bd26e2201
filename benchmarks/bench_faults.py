"""Fault resilience: scan throughput under injected storage faults.

The repo's first robustness curve, checked on the committed
``fault-resilience`` rows.  Claims checked: (a) under a uniform
corruption/timeout error rate, hedged reads beat retry-only recovery and
every injected corruption is caught at the buffer-pool boundary (zero
silent corruptions — row counts match the fault-free run); (b) against a
10x-latency limping disk, hedging recovers at least twice the throughput
that retry-only recovery leaves on the table.  Fixed-seed fault injection
being bit-for-bit deterministic is checked where the rows are regenerated
and compared byte for byte with ``results/figures.json``.
"""

from conftest import committed


def test_fault_resilience():
    result = committed("fault-resilience")

    def row(panel, x, mode):
        return result.filter(panel=panel, x=x, mode=mode)[0]

    rows = result.rows
    # Zero silent corruptions: every run returns the fault-free row count.
    counts = {r["row_count"] for r in rows}
    assert len(counts) == 1, f"row counts diverged under faults: {counts}"
    # ...and the injected corruptions were actually caught, not just absent.
    top_rate = max(r["x"] for r in rows if r["panel"] == "a")
    assert row("a", top_rate, "retry only")["checksum_failures"] > 0

    # Panel (a): hedging never loses to retry-only, and wins under faults.
    for rate in sorted({r["x"] for r in rows if r["panel"] == "a"}):
        assert row("a", rate, "hedged")["pages_per_s"] >= 0.9 * row("a", rate, "retry only")["pages_per_s"]

    # Panel (b) headline: against the worst limping disk, retry-only loses
    # at least 2x the throughput that hedged reads lose.
    clean = row("b", 1.0, "clean")["pages_per_s"]
    worst = max(r["x"] for r in rows if r["panel"] == "b")
    loss_retry = clean - row("b", worst, "retry only")["pages_per_s"]
    loss_hedge = clean - row("b", worst, "hedged")["pages_per_s"]
    assert loss_retry > 0, "limping disk cost nothing; scale the scan up"
    assert loss_retry >= 2.0 * loss_hedge, (loss_retry, loss_hedge)
