"""Server-level tests for ``admission_mode="batch"`` plus the PR's bugfix sweep.

Batched admission collects concurrent point lookups into size- and
deadline-bounded batches and executes each level-wise under one admission
token; the accounting (issue/complete per op, conservation identity,
per-op latencies) must be indistinguishable from the individual path.

Three bugs are pinned here, each demonstrated to fail on the pre-fix code:

* **Stale leaf-map scans** (``test_truncated_scan_follows_mid_descent_split``):
  ``serve_scan`` resolved its leaf span from a map captured before the
  descent's first yield, so a split landing mid-descent routed a truncated
  scan into the *old* leaf — a page that no longer held the start key.
  Pre-fix the scan returned the old leaf's entry count and never read the
  new sibling.
* **Batch deadline attribution** (``test_batch_timeout_attributed_per_op``):
  the batch runner armed one ``with_timeout`` for the whole batch, measured
  from execution start, and marked every unfinished op.  An op that waited
  out the batch window and exceeded its own issue-to-completion deadline
  was *not* flagged when the shared traversal finished quickly — pre-fix
  the run below recorded ``timeouts == 0`` although one op's latency was
  beyond the deadline.
* **Prefetch waves vs brownout**
  (``test_batched_waves_respect_brownout_cap_under_chaos``): see
  tests/test_batch_lookup.py for the unit form; here the full wiring —
  chaos-limped disks breach the SLO, the ladder shrinks
  ``max_outstanding_prefetches``, and subsequent batched waves must count
  ``prefetches_suppressed`` (pre-fix: 0 while waves kept issuing).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.dbms.engine import MiniDbms
from repro.faults.schedule import ChaosSchedule
from repro.serve.loadgen import OpenLoopLoadGenerator
from repro.serve.resilience import BrownoutConfig, BrownoutController
from repro.serve.server import DbmsServer
from repro.storage import AsyncPageReader, BufferPool, DiskArray, RetryPolicy, StorageConfig
from repro.verify.linearizability import HistoryRecorder, check_linearizable
from repro.workloads.ops import OpMix

WINDOW_US = 2_000.0


def make_batch_server(seed: int = 3, *, num_rows: int = 300, page_size: int = 512,
                      admission_mode: str = "batch", concurrency: str = "none",
                      batch_max: int = 16, deadline_us=None, history: bool = False,
                      **kwargs) -> DbmsServer:
    db = MiniDbms(num_rows=num_rows, num_disks=2, page_size=page_size,
                  seed=seed, mature=False)
    server = DbmsServer(
        db, max_concurrency=kwargs.pop("max_concurrency", 8),
        queue_depth=kwargs.pop("queue_depth", 256),
        pool_frames=kwargs.pop("pool_frames", 32),
        page_process_us=50.0, seed=seed, concurrency=concurrency,
        admission_mode=admission_mode, batch_max=batch_max,
        batch_window_us=WINDOW_US, deadline_us=deadline_us, **kwargs,
    )
    if history:
        recorder = HistoryRecorder(clock=lambda: server.env.now)
        recorder.initial_keys = [int(k) for k in db._workload.keys]
        server.attach_history(recorder)
    return server


def submit_lookups(server: DbmsServer, keys, session_stride: int = 6):
    requests = []
    for i, key in enumerate(keys):
        request = server.make_request(("lookup", int(key)), session=f"s{i % session_stride}")
        requests.append(request)
        server.submit(request)
    return requests


def existing_keys(server: DbmsServer) -> list[int]:
    return [int(k) for k in server.db._workload.keys]


# -- batch collection mechanics ----------------------------------------------


def test_single_lookup_waits_for_the_window():
    server = make_batch_server()
    (request,) = submit_lookups(server, existing_keys(server)[:1])
    server.run()
    assert request.outcome == "ok" and request.rows == 1
    assert server.stats.batches == 1 and server.stats.batched_ops == 1
    # A lone lookup is only admitted once its batch window expires.
    assert request.admitted_at >= WINDOW_US
    assert request.queue_wait_us >= WINDOW_US
    assert server.stats.conserved()


def test_batch_closes_early_at_size_bound():
    server = make_batch_server(batch_max=4)
    keys = existing_keys(server)
    requests = submit_lookups(server, keys[:4] + [keys[0] - 1])
    server.run()
    # The first four filled a batch at t=0 (no window wait); the fifth
    # opened a new batch and waited out its window.
    assert [r.outcome for r in requests] == ["ok"] * 5
    assert [r.rows for r in requests] == [1, 1, 1, 1, 0]
    assert server.stats.batches == 2
    assert server.stats.batched_ops == 5
    assert all(r.admitted_at == 0.0 for r in requests[:4])
    assert requests[4].admitted_at >= WINDOW_US
    assert server.stats.conserved()


def test_batch_results_match_individual_mode():
    keys = None
    rows_by_mode = {}
    for mode in ("fifo", "batch"):
        server = make_batch_server(admission_mode=mode)
        if keys is None:
            existing = existing_keys(server)
            keys = existing[::7] + [existing[0] - 3, existing[-1] + 11, existing[5] + 1]
        requests = submit_lookups(server, keys)
        server.run()
        assert all(r.outcome == "ok" for r in requests)
        assert server.stats.conserved()
        rows_by_mode[mode] = [r.rows for r in requests]
    assert rows_by_mode["batch"] == rows_by_mode["fifo"]


def test_conservation_holds_mid_batch():
    server = make_batch_server()
    submit_lookups(server, existing_keys(server)[:6])
    # Freeze the simulation while the batch traversal is in flight.
    server.run(until=WINDOW_US + 5_000.0)
    assert server.stats.in_flight.value == 6
    assert server.stats.conserved()
    server.run()
    assert server.stats.in_flight.value == 0
    assert server.stats.completed == 6
    assert server.stats.conserved()


def test_whole_batch_sheds_when_admission_is_full():
    server = make_batch_server(max_concurrency=1, queue_depth=0)
    keys = existing_keys(server)
    # One scan holds the only token for tens of milliseconds...
    scan = server.make_request(("scan", keys[0], keys[-1]), session="bg")
    server.submit(scan)
    # ...so the batch closing at t=2ms finds no token and no queue room.
    requests = submit_lookups(server, keys[:3])
    server.run()
    assert scan.outcome == "ok"
    assert [r.outcome for r in requests] == ["shed"] * 3
    assert server.stats.shed == 3
    assert server.stats.batches == 1  # the batch still closed (then shed whole)
    assert server.stats.conserved()


# -- regression: per-op deadline attribution (fails pre-fix) ------------------


def run_three_op_batch(deadline_us=None):
    server = make_batch_server(deadline_us=deadline_us)
    keys = existing_keys(server)
    requests = submit_lookups(server, [keys[10], keys[150], keys[280]])
    server.run()
    return server, requests


def test_batch_timeout_attributed_per_op():
    """Only the op whose own issue-to-completion latency exceeds the
    deadline may be marked timed out — batchmates that finished inside
    their deadlines must not be, and vice versa.

    Pre-fix the runner armed a single batch-wide timer starting at batch
    *execution*: with the deadline chosen below (under the slowest op's
    latency but over the worker's runtime) the timer never fired, no op
    was flagged, and ``stats.timeouts`` stayed 0.
    """
    __, baseline = run_three_op_batch()
    lats = sorted(r.latency_us for r in baseline)
    assert lats[-1] - lats[-2] > 1_000.0, "probe keys must finish >1ms apart"
    deadline = lats[-1] - 500.0  # above every other latency, under the max
    assert deadline > lats[-2]

    server, requests = run_three_op_batch(deadline_us=deadline)
    for request in requests:
        assert request.timed_out == (request.latency_us > deadline), (
            f"rid {request.rid}: latency {request.latency_us} vs deadline "
            f"{deadline}, timed_out={request.timed_out}"
        )
    assert server.stats.timeouts == 1
    # Timed-out ops still run to completion (client-side abandonment only).
    assert all(r.outcome == "ok" for r in requests)
    assert server.stats.completed == 3
    assert server.stats.conserved()


# -- regression: stale leaf-map scan truncation (fails pre-fix) ---------------


def make_substrate(db: MiniDbms, frames: int = 48):
    env = Environment()
    config = StorageConfig(page_size=db.page_size, num_disks=db.num_disks,
                           buffer_pool_pages=frames, disk=db.disk_params)
    disks = DiskArray(env, config)
    pool = BufferPool(config, db.store)
    return env, AsyncPageReader(env, disks, pool)


def test_truncated_scan_follows_mid_descent_split():
    """A split landing between a scan's yields must not leave the scan on
    the stale side of the split boundary.

    The scan starts at the *largest* key of a mid-tree leaf; an inserter
    splits that leaf at t=500us (while the scan is waiting on its root
    demand), which moves the start key into the new right sibling.  A
    ``max_pages=1`` truncated scan must read the sibling that now holds
    the start key — pre-fix it read the old leaf (whose range no longer
    covers the key) and returned that page's count.
    """
    db = MiniDbms(num_rows=400, num_disks=2, page_size=512, seed=7, mature=False)
    env, reader = make_substrate(db)
    existing = set(int(k) for k in db._workload.keys)
    firsts, pids = db.leaf_key_map()
    mid = len(pids) // 2
    lo, hi = int(firsts[mid]), int(firsts[mid + 1])
    old_leaf = pids[mid]
    start_key = max(k for k in existing if lo <= k < hi)
    # Span to the end of the key space: max_pages=1 then genuinely
    # truncates, so the count is the entry count of the *first* span page
    # — the page the (possibly stale) map claims holds the start key.
    end_key = max(existing)
    gaps = [k for k in range(lo + 1, hi) if k not in existing]
    assert len(gaps) >= 4, "the probed leaf needs insertable gap keys"

    def inserter():
        yield env.timeout(500.0)
        before = db.index.page_splits
        for gap in gaps:
            if gap > start_key:
                continue
            db.insert(gap)
            if db.index.page_splits > before:
                break
        assert db.index.page_splits > before, "the inserts must split the leaf"
        # Keys above start_key land in the new sibling; keep inserting until
        # the two halves' entry counts provably differ, so the assertion
        # below cannot pass by reading the wrong page.
        uppers = iter(gap for gap in gaps if gap > start_key)
        sibling = db.index.page_path(start_key)[-1]
        while len(db.store.page(sibling)) == len(db.store.page(old_leaf)):
            db.insert(next(uppers))

    env.process(inserter())
    count = env.run(
        until=env.process(db.serve_scan(reader, start_key, end_key, max_pages=1))
    )
    new_leaf = db.index.page_path(start_key)[-1]
    assert new_leaf != old_leaf, "the split must have moved the start key"
    assert len(db.store.page(new_leaf)) != len(db.store.page(old_leaf))
    assert count == len(db.store.page(new_leaf))
    assert reader.pool.contains(new_leaf), "the scan must have read the new sibling"


# -- regression: batched waves vs the brownout cap (fails pre-fix) ------------


def test_batched_waves_respect_brownout_cap_under_chaos():
    """Chaos-limped disks breach the latency SLO; the brownout ladder caps
    outstanding prefetches; batched prefetch waves must honor the cap and
    count suppressions.  Pre-fix, waves bypassed the cap entirely and
    ``prefetches_suppressed`` stayed 0 at brownout level >= 1.
    """
    plan = ChaosSchedule.parse("limp disk=0 x4 @0; limp disk=1 x4 @0", seed=9).to_fault_plan()
    db = MiniDbms(num_rows=800, num_disks=2, page_size=512, seed=9, mature=False)
    server = DbmsServer(
        db, max_concurrency=8, queue_depth=128, pool_frames=16,
        admission_mode="batch", batch_max=16, batch_window_us=WINDOW_US,
        fault_plan=plan, policy=RetryPolicy(), seed=9,
    )
    controller = BrownoutController(server, BrownoutConfig(p99_slo_us=10_000.0))
    keys = [int(k) for k in db._workload.keys]

    def burst(offset: int, count: int = 24) -> None:
        for i in range(count):
            request = server.make_request(
                ("lookup", keys[(offset + 7 * i) % len(keys)]), session=f"s{i % 6}"
            )
            server.submit(request)
        server.run()

    burst(0)  # limped lookups populate the SLO window
    controller.evaluate_window()
    assert controller.level >= 1, "the chaos schedule must trip the ladder"
    assert server.reader.max_outstanding_prefetches == controller.config.prefetch_cap
    suppressed_before = int(server.reader.prefetches_suppressed)
    waves_before = int(server.reader.prefetch_waves)
    burst(400)  # fresh leaves: waves now run against the shrunken cap
    assert int(server.reader.prefetch_waves) > waves_before, "batches must still wave"
    assert int(server.reader.prefetches_suppressed) > suppressed_before, (
        "capped waves must count suppressed prefetches"
    )
    assert server.stats.conserved()


# -- linearizability and determinism ------------------------------------------


def test_batched_lookups_linearizable_across_root_split():
    """Batches straddling a *root* split (tree height grows mid-run) stay
    linearizable in page mode: 256-byte pages put the root a handful of
    splits from capacity, so a racing insert burst grows the tree while
    batches traverse it."""
    server = make_batch_server(
        seed=3, num_rows=200, page_size=256, concurrency="page",
        batch_max=8, history=True,
    )
    keys = existing_keys(server)
    height_before = server.db.index.height
    requests = []
    for i in range(60):
        if i % 2 == 0:
            request = server.make_request(("insert", None), session=f"s{i % 6}")
        else:
            request = server.make_request(
                ("lookup", keys[(13 * i) % len(keys)]), session=f"s{i % 6}"
            )
        requests.append(request)
        server.submit(request)
    server.run()
    assert server.db.index.height > height_before, "the root must have split"
    assert all(r.outcome == "ok" for r in requests)
    assert server.stats.batches >= 1
    assert server.stats.conserved()
    result = check_linearizable(server.history.history())
    assert result.ok, result.reason
    server.db.index.validate()


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batched_results_byte_identical_and_linearizable(seed):
    """Property (over substrate seeds): the same lookup mix — existing
    keys and never-inserted probes, racing fresh-key inserts — returns
    byte-identical per-request rows in batch and individual mode, and both
    histories are linearizable."""
    rows_by_mode = {}
    for mode in ("fifo", "batch"):
        server = make_batch_server(
            seed=seed % 100, admission_mode=mode, concurrency="page", history=True
        )
        keys = existing_keys(server)
        absent = [keys[-1] + 3, keys[0] - 7, keys[9] + 1]  # disjoint from fresh keys
        requests = []
        for i in range(24):
            if i % 4 == 3:
                request = server.make_request(("insert", None), session=f"s{i % 6}")
            elif i % 4 == 2:
                request = server.make_request(
                    ("lookup", absent[i % len(absent)]), session=f"s{i % 6}"
                )
            else:
                request = server.make_request(
                    ("lookup", keys[(seed + 11 * i) % len(keys)]), session=f"s{i % 6}"
                )
            requests.append(request)
            server.submit(request)
        server.run()
        assert server.stats.conserved()
        result = check_linearizable(server.history.history())
        assert result.ok, result.reason
        rows_by_mode[mode] = [
            (r.rid, r.rows) for r in requests if r.kind == "lookup" and r.outcome == "ok"
        ]
    assert rows_by_mode["batch"] == rows_by_mode["fifo"]


def open_loop_batch_run(seed: int = 11):
    server = make_batch_server(seed=seed, num_rows=800, queue_depth=64)
    gen = OpenLoopLoadGenerator(
        server, rate_ops_s=400, duration_s=0.5,
        mix=OpMix(lookup=0.9, scan=0.0, insert=0.1), seed=seed,
    )
    stats = gen.run()
    fingerprint = [
        (r.rid, r.outcome, r.rows, round(r.latency_us, 6)) for r in server.requests
    ]
    return stats.snapshot(), fingerprint


def test_batch_mode_two_runs_byte_identical():
    first = open_loop_batch_run()
    second = open_loop_batch_run()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_batch_mode_beats_individual_lookup_throughput():
    """Lookup-heavy overload with scarce tokens: batched admission must
    complete meaningfully more lookups per second (the bench asserts the
    full >= 1.5x criterion on the larger configuration)."""
    throughput = {}
    for mode in ("fifo", "batch"):
        server = make_batch_server(
            seed=11, num_rows=2000, page_size=1024, admission_mode=mode,
            max_concurrency=2, queue_depth=64, pool_frames=48, batch_max=32,
        )
        # Re-arm the wider batch window used by the bench race.
        server.batch_window_us = 8_000.0
        gen = OpenLoopLoadGenerator(
            server, rate_ops_s=1_600, duration_s=0.5,
            mix=OpMix(lookup=0.9, scan=0.0, insert=0.1), seed=11,
        )
        stats = gen.run()
        assert stats.conserved()
        lookups = stats.latency_histogram("lookup").count
        throughput[mode] = lookups / (server.env.now / 1e6)
        if mode == "batch":
            assert stats.batches > 0
    assert throughput["batch"] >= 1.25 * throughput["fifo"], throughput
