"""Crash consistency: WAL logging overhead and redo recovery time.

Claims checked on the committed ``recovery`` rows: (a) logging the update
path costs a bounded, deterministic number of WAL appends (at least
BEGIN + one page image + COMMIT per update) and checkpointing shifts
write cost into the runtime — the tightest interval forces the most
pages; (b) after a crash at ~90% of the log, redo recovery always
succeeds, and more frequent checkpoints strictly reduce the records that
must be replayed (and never make recovery slower).  The experiment being
bit-for-bit deterministic is checked where the rows are regenerated and
compared byte for byte with ``results/figures.json``.
"""

from conftest import committed

#: Updates per run in the committed rows (``recovery_overhead``'s default).
NUM_UPDATES = 2_000


def test_recovery_overhead():
    result = committed("recovery")

    def row(panel, interval):
        return result.filter(panel=panel, checkpoint_interval=interval)[0]

    intervals = sorted({r["checkpoint_interval"] for r in result.rows})
    tightest = min(i for i in intervals if i)

    # (a) Logging overhead is bounded and visible: every update logs at
    # least BEGIN + one page image + COMMIT, and the log device charged
    # simulated disk-write time for them.
    for interval in intervals:
        runtime = row("a", interval)
        assert runtime["wal_appends"] >= 3 * NUM_UPDATES, runtime
        assert runtime["write_us_per_op"] > 0, runtime
    # Checkpointing trades runtime writes for recovery speed: the tightest
    # interval forces the most pages and pays at least as much write time.
    never, tight = row("a", 0), row("a", tightest)
    assert tight["pages_flushed"] > never["pages_flushed"], (tight, never)
    assert tight["checkpoints"] > 0 and never["checkpoints"] == 0
    assert tight["write_us_per_op"] >= never["write_us_per_op"], (tight, never)

    # (b) Redo work shrinks with checkpoint frequency.
    replayed = {i: row("b", i)["records_replayed"] for i in intervals}
    assert replayed[tightest] < replayed[0], replayed
    assert row("b", tightest)["recovery_us"] <= row("b", 0)["recovery_us"]
    for interval in intervals:
        assert row("b", interval)["recovery_us"] > 0
