"""Tests for the serving layer: admission, conservation, determinism, stats."""

import pytest

from repro.dbms.engine import MiniDbms
from repro.des import Environment
from repro.faults import FaultPlan, SimulatedCrash
from repro.serve import (
    ADMISSION_MODES,
    AdmissionController,
    AdmissionRejected,
    DbmsServer,
    OpenLoopLoadGenerator,
)
from repro.serve.server import ServedRequest, abandon
from repro.serve.stats import SERVE_LATENCY_BOUNDS_US, ServerStats
from repro.storage.buffer import BufferPool, BufferPoolExhausted
from repro.storage.config import StorageConfig
from repro.storage.prefetch import RetryPolicy


def small_db(num_rows=2_000, seed=7):
    return MiniDbms(num_rows=num_rows, num_disks=4, page_size=4096, seed=seed, mature=False)


# -- admission control -----------------------------------------------------


def holder(env, admission, name, order, hold_us=100.0, delay_us=0.0):
    if delay_us:
        yield env.timeout(delay_us)
    try:
        ticket = yield from admission.admit()
    except AdmissionRejected:
        order.append((name, "shed"))
        return
    order.append((name, "in"))
    yield env.timeout(hold_us)
    admission.release(ticket)


def test_admission_fifo_grant_order():
    env = Environment()
    admission = AdmissionController(env, max_concurrency=1, max_queue_depth=16)
    order = []
    # a takes the token at t=0; b,c,d queue in arrival order and must be
    # granted in exactly that order as the token is recycled.
    for i, name in enumerate("abcd"):
        env.process(holder(env, admission, name, order, hold_us=100.0, delay_us=i * 10.0))
    env.run()
    assert order == [("a", "in"), ("b", "in"), ("c", "in"), ("d", "in")]
    assert admission.admitted == 4
    assert admission.shed == 0
    assert admission.in_service == 0 and admission.queue_depth == 0


def test_server_admits_only_fifo_or_batch():
    assert ADMISSION_MODES == ("fifo", "batch")
    with pytest.raises(ValueError, match="unknown admission mode 'priority'"):
        DbmsServer(small_db(), admission_mode="priority")


@pytest.mark.parametrize("kind", ["disk", "micro", "fp-cache"])
def test_server_rejects_indexes_it_cannot_serve(kind):
    db = MiniDbms(num_rows=500, num_disks=2, page_size=4096, mature=False, index_kind=kind)
    with pytest.raises(ValueError, match=f"only index_kind 'fp-disk'.*not '{kind}'"):
        DbmsServer(db)


def test_admission_sheds_past_queue_bound():
    env = Environment()
    admission = AdmissionController(env, max_concurrency=1, max_queue_depth=2)
    order = []
    # One in service + two queued = at the bound; the 4th and 5th shed.
    for i, name in enumerate("abcde"):
        env.process(
            holder(env, admission, name, order, hold_us=1000.0, delay_us=i * 1.0)
        )
    env.run()
    assert order[:3] == [("a", "in"), ("d", "shed"), ("e", "shed")]
    assert admission.shed == 2
    assert admission.admitted == 3


def test_admission_queue_wait_accounting():
    env = Environment()
    admission = AdmissionController(env, max_concurrency=1, max_queue_depth=4)
    waits = {}

    def client(name, delay_us):
        yield env.timeout(delay_us)
        ticket = yield from admission.admit()
        waits[name] = ticket.queue_wait_us
        yield env.timeout(100.0)
        admission.release(ticket)

    env.process(client("a", 0.0))
    env.process(client("b", 40.0))
    env.run()
    # a is granted instantly; b arrives at t=40 and waits until a's release
    # at t=100.
    assert waits["a"] == 0.0
    assert waits["b"] == pytest.approx(60.0)


# -- latency histogram percentiles ----------------------------------------


def test_latency_percentiles_match_hand_computed_distribution():
    stats = ServerStats()
    # One sample exactly on each of the first ten bucket bounds: with 10
    # samples, quantile(q) is the upper bound of the bucket holding rank
    # ceil(10q), i.e. bounds[ceil(10q) - 1].
    for bound in SERVE_LATENCY_BOUNDS_US[:10]:
        stats.settle("lookup", "ok", bound)
    got = stats.percentiles_us("lookup")
    assert got["p50"] == SERVE_LATENCY_BOUNDS_US[4]
    assert got["p95"] == SERVE_LATENCY_BOUNDS_US[9]
    assert got["p99"] == SERVE_LATENCY_BOUNDS_US[9]
    assert got["p999"] == SERVE_LATENCY_BOUNDS_US[9]


def test_latency_percentiles_skewed_distribution():
    stats = ServerStats()
    # 90 fast ops in the first bucket, 10 slow ones in the eleventh: the
    # median sits in the fast bucket, the tail percentiles in the slow one.
    for __ in range(90):
        stats.settle("scan", "ok", SERVE_LATENCY_BOUNDS_US[0])
    for __ in range(10):
        stats.settle("scan", "ok", SERVE_LATENCY_BOUNDS_US[10])
    got = stats.percentiles_us("scan")
    assert got["p50"] == SERVE_LATENCY_BOUNDS_US[0]
    assert got["p95"] == SERVE_LATENCY_BOUNDS_US[10]
    assert got["p99"] == SERVE_LATENCY_BOUNDS_US[10]
    # The combined histogram saw the same 100 samples.
    assert stats.latency_histogram("all").count == 100
    assert stats.percentiles_us("all") == got


# -- conservation ----------------------------------------------------------


def test_open_loop_conservation_holds_mid_run():
    db = small_db()
    server = DbmsServer(db, max_concurrency=2, queue_depth=16, pool_frames=32, seed=5)
    generator = OpenLoopLoadGenerator(server, rate_ops_s=2_000, duration_s=0.2, seed=5)
    generator.start()
    # Freeze mid-traffic: requests must be genuinely in flight and the
    # identity must hold at that instant, not just after the drain.
    server.env.run(until=50_000.0)
    assert server.stats.in_flight.value > 0
    assert server.stats.conserved()
    server.env.run()
    assert server.stats.in_flight.value == 0
    assert server.stats.conserved()
    assert server.stats.issued == generator.issued


def test_deadline_timeouts_do_not_break_conservation():
    db = small_db()
    server = DbmsServer(
        db, max_concurrency=2, queue_depth=32, pool_frames=32,
        deadline_us=4_000.0, seed=9,
    )
    generator = OpenLoopLoadGenerator(server, rate_ops_s=1_500, duration_s=0.2, seed=9)
    stats = generator.run()
    assert stats.timeouts > 0
    assert stats.conserved() and stats.in_flight.value == 0
    timed_out = [request for request in server.requests if request.timed_out]
    assert len(timed_out) == stats.timeouts
    # The server finishes abandoned ops: they are counted as completed.
    assert all(request.outcome in ("ok", "timeout") for request in timed_out)


def test_queued_lookup_deadline_runs_from_issue():
    # Regression: a fifo op's deadline was armed only once admission granted
    # its token, so time spent queued never counted against it.
    def two_lookups(deadline_us):
        server = DbmsServer(
            small_db(), max_concurrency=1, queue_depth=4, pool_frames=32,
            deadline_us=deadline_us,
        )
        keys = server.workload_keys
        requests = [server.make_request(("lookup", int(keys[i]))) for i in (10, 1_500)]
        for request in requests:
            server.submit(request)
        server.run()
        return requests

    first, queued = two_lookups(None)
    service_us = max(first.latency_us, queued.finished_at - queued.admitted_at)
    assert queued.admitted_at == first.finished_at  # it waited for the one token
    # Longer than either lookup's service, shorter than the queued one's
    # wait plus service.
    deadline_us = (service_us + queued.latency_us) / 2
    assert service_us < deadline_us < queued.latency_us

    first, queued = two_lookups(deadline_us)
    assert not first.timed_out
    assert queued.timed_out
    assert queued.outcome == "ok"  # the server still finished it


def test_open_loop_sheds_under_overload():
    db = small_db()
    server = DbmsServer(db, max_concurrency=2, queue_depth=4, pool_frames=32, seed=1)
    generator = OpenLoopLoadGenerator(server, rate_ops_s=4_000, duration_s=0.2, seed=1)
    stats = generator.run()
    assert stats.shed > 0
    assert stats.conserved()
    shed = [request for request in server.requests if request.outcome == "shed"]
    assert len(shed) == stats.shed
    assert all(isinstance(request.error, AdmissionRejected) for request in shed)


def test_shed_and_failed_requests_hold_no_traceback():
    # Regression: request.error kept the caught exception's traceback, whose
    # generator frames hold the request again — a reference cycle that left
    # every finished run to the cyclic collector.
    db = small_db()
    server = DbmsServer(
        db, max_concurrency=2, queue_depth=4, pool_frames=32, seed=1,
        fault_plan=FaultPlan.uniform(corrupt_rate=0.5, timeout_rate=0.2, seed=1),
        policy=RetryPolicy(max_attempts=1),
    )
    generator = OpenLoopLoadGenerator(server, rate_ops_s=4_000, duration_s=0.2, seed=1)
    stats = generator.run()
    assert stats.shed > 0 and stats.failed > 0  # both paths ran
    assert stats.conserved()
    errored = [r for r in server.requests if r.outcome in ("shed", "failed")]
    assert len(errored) == stats.shed + stats.failed
    chained = 0
    for request in errored:
        error = request.error
        assert error is not None
        while error is not None:
            assert error.__traceback__ is None
            error = error.__context__
            chained += error is not None
    assert chained > 0  # a failure raised while handling another one


# -- determinism -----------------------------------------------------------


def run_once(seed):
    db = small_db(seed=11)
    server = DbmsServer(db, max_concurrency=4, queue_depth=8, pool_frames=32, seed=seed)
    generator = OpenLoopLoadGenerator(server, rate_ops_s=1_200, duration_s=0.25, seed=seed)
    stats = generator.run()
    outcomes = [
        (request.rid, request.kind, request.outcome, request.latency_us)
        for request in server.requests
    ]
    return stats.snapshot(), outcomes


def test_same_seed_runs_are_identical():
    assert run_once(4) == run_once(4)


def test_different_seeds_diverge():
    assert run_once(4)[1] != run_once(5)[1]


# -- serving ops touch real data ------------------------------------------


def test_served_ops_return_real_rows():
    db = small_db()
    server = DbmsServer(db, max_concurrency=4, queue_depth=8, pool_frames=32)
    keys = db._workload.keys
    lookup = server.make_request(("lookup", int(keys[10])))
    scan = server.make_request(("scan", int(keys[0]), int(keys[40])))
    fresh = int(keys[-1]) + 2  # past the stored universe, as FreshKeys would pick
    insert = server.make_request(("insert", fresh))
    for request in (lookup, scan, insert):
        server.submit(request)
    server.run()
    assert lookup.outcome == "ok" and lookup.rows == 1
    assert scan.outcome == "ok" and scan.rows == 41
    assert insert.outcome == "ok" and insert.rows == 1
    # The freshly inserted key is immediately visible to a new lookup.
    check = server.make_request(("lookup", fresh))
    server.submit(check)
    server.run()
    assert check.outcome == "ok" and check.rows == 1


# -- buffer pool exhaustion diagnostics ------------------------------------


def test_buffer_pool_exhausted_names_pin_holders():
    db = small_db()
    config = StorageConfig(
        page_size=db.page_size, num_disks=db.num_disks,
        buffer_pool_pages=2, disk=db.disk_params,
    )
    pool = BufferPool(config, db.store)
    __, pids = db.leaf_key_map()
    with pool.pinned(int(pids[0]), owner="session-a#1"):
        with pool.pinned(int(pids[1]), owner="session-b#2"):
            with pytest.raises(BufferPoolExhausted) as excinfo:
                pool.access(int(pids[2]))
    exc = excinfo.value
    assert exc.pin_holders[int(pids[0])] == ("session-a#1",)
    assert exc.pin_holders[int(pids[1])] == ("session-b#2",)
    assert "session-a#1" in str(exc) and "session-b#2" in str(exc)
    # Both pins released: the access now succeeds.
    pool.access(int(pids[2]))


@pytest.mark.parametrize("concurrency", ["none", "page"])
@pytest.mark.parametrize("kind", ["lookup", "scan"])
def test_served_op_closed_mid_page_cpu_releases_every_pin(kind, concurrency):
    # The crash-teardown path closes in-flight op generators wherever they
    # are parked; one parked in a leaf's page-CPU charge holds a pin, and
    # closing it must release the pin.
    db = small_db()
    server = DbmsServer(db, pool_frames=32, concurrency=concurrency)
    keys = db.stored_keys
    served = dict(owner="s#1", protocol=server.protocol)
    if kind == "lookup":
        op = db.serve_lookup(server.reader, int(keys[500]), **served)
    else:
        op = db.serve_scan(server.reader, int(keys[100]), int(keys[900]), **served)
    process = server.env.process(op)
    pool = server.pool

    def leaf_pinned() -> bool:
        return any(
            count and getattr(db.store.page(pool._frame_page[frame]), "level", None) == 0
            for frame, count in enumerate(pool._pin_count)
        )

    while not leaf_pinned():
        server.env.step()
    assert pool._pin_owners[pool._pin_count.index(1)] == ["s#1"]
    process._generator.close()
    assert sum(pool._pin_count) == 0
    assert not any(pool._pin_owners)


# -- failure paths keep the accounting closed ------------------------------


def test_unknown_op_kind_fails_closed_and_conserves():
    # Regression: an exception outside the expected fault types (here a
    # ValueError from an unknown op kind) used to escape _execute, killing
    # the worker with the request still "pending" — conservation broke and
    # the admission token leaked.  Such errors must land in "failed".
    db = small_db()
    server = DbmsServer(db, max_concurrency=2, queue_depth=4, pool_frames=32)
    bad = server.make_request(("frobnicate", 123))
    event = server.submit(bad)
    server.env.run(until=event)
    assert bad.outcome == "failed"
    assert isinstance(bad.error, ValueError)
    assert server.stats.failed == 1
    assert server.stats.conserved() and server.stats.in_flight.value == 0
    # The service token came back: a normal request still gets through.
    good = server.make_request(("lookup", int(db._workload.keys[0])))
    server.submit(good)
    server.run()
    assert good.outcome == "ok"
    assert server.stats.conserved()


# -- ServerStats under mixed outcomes --------------------------------------


def _identity_holds(stats):
    return stats.issued == (
        stats.completed + stats.shed + stats.failed + stats.in_flight.value
    )


def test_stats_conserved_through_every_mixed_outcome_step():
    # Property-style: a seeded random walk over the recording API, with the
    # conservation identity checked after every single event — not just at
    # the drain.  Timeouts are deliberate no-ops on the identity (the
    # client gave up; the server still finishes and records the terminal
    # outcome), so a "timeout then ok" flip must not double-count.
    import random as _random

    rng = _random.Random(1234)
    stats = ServerStats()
    open_requests = []
    for step in range(500):
        if open_requests and rng.random() < 0.5:
            kind = rng.choice(["lookup", "scan", "insert"])
            terminal = rng.choice(["ok", "shed", "failed", "timeout-then-ok"])
            open_requests.pop()
            if terminal == "timeout-then-ok":
                stats.timeouts += 1  # client abandons...
                terminal = "ok"  # ...server finishes
            stats.settle(kind, terminal, rng.uniform(100.0, 50_000.0))
        else:
            stats.issue()
            open_requests.append(step)
        assert _identity_holds(stats), f"identity broke at step {step}"
    assert stats.in_flight.value == len(open_requests)
    # Drain the stragglers; the identity must close exactly.
    while open_requests:
        open_requests.pop()
        stats.settle("lookup", "failed", 0.0)
        assert _identity_holds(stats)
    assert stats.in_flight.value == 0
    assert stats.issued == stats.completed + stats.shed + stats.failed
    assert stats.timeouts <= stats.completed  # every timeout later completed


def test_stats_shed_then_retry_counts_two_issues():
    # A client retry of a shed request is a brand-new request: both issues
    # count, and the identity holds at every intermediate instant.
    stats = ServerStats()
    stats.issue()
    stats.settle("lookup", "shed", 0.0)
    assert _identity_holds(stats)
    stats.issue()  # the retry
    assert stats.in_flight.value == 1 and _identity_holds(stats)
    stats.settle("lookup", "ok", 1_500.0)
    assert _identity_holds(stats)
    assert stats.issued == 2 and stats.completed == 1 and stats.shed == 1


def test_stats_listener_sees_terminal_outcomes_only():
    seen = []
    stats = ServerStats()
    stats.listeners.append(lambda kind, latency, ok: seen.append((kind, latency, ok)))
    stats.issue()
    stats.timeouts += 1  # not terminal: the server is still working
    assert seen == []
    stats.settle("scan", "ok", 2_000.0, rows=10)
    stats.issue()
    stats.settle("insert", "failed", 2_500.0)
    stats.issue()
    stats.settle("lookup", "shed", 3_000.0)  # a shed is not a served outcome
    assert seen == [("scan", 2_000.0, True), ("insert", None, False)]


# -- the request life cycle: settle and abandon ----------------------------------


class RecordingStats(ServerStats):
    """ServerStats that also logs each terminal settle call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def settle(self, kind, outcome, latency_us, rows=0):
        self.calls.append((kind, outcome, latency_us, rows))
        super().settle(kind, outcome, latency_us, rows)


@pytest.mark.parametrize(
    "outcome, call",
    [
        ("ok", ("scan", "ok", 250.0, 7)),
        ("shed", ("scan", "shed", 250.0, 0)),
        ("failed", ("scan", "failed", 250.0, 0)),
    ],
)
def test_settle_makes_one_stats_call_per_outcome(outcome, call):
    stats = RecordingStats()
    request = ServedRequest(rid=0, session="s", op=("scan", 1, 9), issued_at=50.0)
    stats.issue()
    error = RuntimeError("boom") if outcome != "ok" else None
    request.settle(stats, 300.0, outcome, error, rows=7 if outcome == "ok" else 0)
    assert stats.calls == [call]
    assert request.outcome == outcome and request.finished_at == 300.0
    assert request.error is error
    assert stats.in_flight.value == 0 and _identity_holds(stats)


def test_abandon_after_settle_keeps_the_terminal_outcome():
    stats = ServerStats()
    request = ServedRequest(rid=0, session="s", op=("lookup", 5))
    stats.issue()
    request.settle(stats, 400.0, "ok", rows=1)
    abandon(request, stats)
    assert request.outcome == "ok" and request.timed_out
    assert stats.timeouts == 1 and stats.completed == 1 and _identity_holds(stats)


def test_abandon_while_pending_reads_timeout_until_settled():
    stats = ServerStats()
    request = ServedRequest(rid=0, session="s", op=("lookup", 5))
    stats.issue()
    abandon(request, stats)
    assert request.outcome == "timeout" and request.timed_out
    assert stats.in_flight.value == 1 and _identity_holds(stats)
    request.settle(stats, 900.0, "failed", RuntimeError("late"))
    assert request.outcome == "failed" and request.timed_out
    assert stats.failed == 1 and _identity_holds(stats)


def test_second_settle_raises_and_counts_nothing():
    stats = RecordingStats()
    request = ServedRequest(rid=3, session="s", op=("insert", 11))
    stats.issue()
    request.settle(stats, 10.0, "ok", rows=1)
    with pytest.raises(AssertionError, match="settled twice"):
        request.settle(stats, 20.0, "failed", RuntimeError("again"))
    assert len(stats.calls) == 1 and request.outcome == "ok"
    assert stats.issued == stats.completed == 1 and _identity_holds(stats)


def test_settle_rejects_a_non_terminal_outcome():
    stats = RecordingStats()
    request = ServedRequest(rid=0, session="s", op=("lookup", 5))
    with pytest.raises(ValueError, match="timeout"):
        request.settle(stats, 10.0, "timeout")
    assert stats.calls == [] and request.finished_at < 0


# -- a worker is a process of its own only when a deadline can abandon it ----


def started_processes(env) -> list:
    """The processes ``env`` starts from now on, seen through its observer."""
    started = []
    env.observer = lambda kind, event: started.append(event) if kind == "process" else None
    return started


def disk_ios(server) -> int:
    return server.disks.total_reads + server.disks.total_writes


def spindles(server) -> int:
    """Disks whose one spindle process started because it served a command."""
    return sum(disk.spindle is not None for disk in server.disks.disks)


SERVED_OPS = {
    "lookup": lambda keys: ("lookup", int(keys[100])),
    "scan": lambda keys: ("scan", int(keys[100]), int(keys[700])),
    "insert": lambda keys: ("insert", None),
}


@pytest.mark.parametrize("kind", sorted(SERVED_OPS))
def test_undeadlined_fifo_op_starts_one_process_plus_one_per_spindle(kind):
    server = DbmsServer(small_db(), max_concurrency=2, queue_depth=4, pool_frames=32)
    started = started_processes(server.env)
    request = server.make_request(SERVED_OPS[kind](server.workload_keys))
    server.submit(request)
    server.run()
    assert request.outcome == "ok"
    assert disk_ios(server) > 0  # the op really went to disk
    # The client, with admission and _execute inline, plus one per spindle
    # that served a command (a disk I/O is a queued command, not a process).
    assert len(started) == 1 + spindles(server)


def test_undeadlined_queued_op_runs_inline_once_granted():
    server = DbmsServer(small_db(), max_concurrency=1, queue_depth=4, pool_frames=32)
    started = started_processes(server.env)
    keys = server.workload_keys
    requests = [server.make_request(("lookup", int(keys[i]))) for i in (10, 1_500)]
    for request in requests:
        server.submit(request)
    server.run()
    first, queued = requests
    assert queued.admitted_at == first.finished_at  # it waited for the one token
    assert queued.queue_wait_us > 0 and queued.outcome == "ok"
    assert len(started) == 2 + spindles(server)


def test_deadlined_fifo_op_gets_a_worker_process():
    server = DbmsServer(
        small_db(), max_concurrency=2, queue_depth=4, pool_frames=32, deadline_us=1e9
    )
    started = started_processes(server.env)
    request = server.make_request(("lookup", int(server.workload_keys[100])))
    server.submit(request)
    server.run()
    assert request.outcome == "ok" and not request.timed_out
    assert len(started) == 2 + spindles(server)  # the client and its worker


def test_crash_inside_an_inlined_execute_reaches_the_caller():
    server = DbmsServer(small_db(), max_concurrency=1, queue_depth=4, pool_frames=32)
    started = started_processes(server.env)

    def crashing_dispatch(request):
        yield server.env.timeout(50.0)
        raise SimulatedCrash("test", 1)

    server._dispatch = crashing_dispatch
    for __ in range(2):  # one executing, one queued behind it
        server.submit(server.make_request(("lookup", int(server.workload_keys[5]))))
    with pytest.raises(SimulatedCrash) as crash:
        server.run()
    assert len(started) == 2  # both clients; neither op had a worker process
    assert server.env.now == 50.0
    assert server.fail_unfinished(crash.value) == 2
    assert [r.outcome for r in server.requests] == ["failed", "failed"]
    assert server.stats.conserved() and server.stats.in_flight.value == 0


# -- one served traversal: per-page routing and scan prefetch under latches ----


def test_none_lookup_follows_a_split_that_lands_mid_descent():
    """A ``none`` lookup routes each page only after reading it, so a split
    that moves its key to a new leaf while the descent waits on disk sends
    it to the new leaf — the stale up-front path would read the old one."""
    from repro.storage.disk import DiskArray
    from repro.storage.prefetch import AsyncPageReader

    db = MiniDbms(num_rows=300, num_disks=2, page_size=512, seed=3, mature=False)
    env = Environment()
    config = StorageConfig(
        page_size=db.page_size, num_disks=db.num_disks, buffer_pool_pages=48, disk=db.disk_params
    )
    reader = AsyncPageReader(env, DiskArray(env, config), BufferPool(config, db.store))
    existing = set(int(k) for k in db._workload.keys)
    firsts, pids = db.leaf_key_map()
    mid = len(pids) // 2
    lo, hi = int(firsts[mid]), int(firsts[mid + 1])
    old_leaf = pids[mid]
    key = max(k for k in existing if lo <= k < hi)  # upper half: moves on a split
    expected = db.lookup(key)
    gaps = [k for k in range(lo + 1, key) if k not in existing]

    def splitter():
        # Land inside the descent's (multi-ms) cold root read.
        yield env.timeout(500.0)
        before = db.index.page_splits
        for gap in gaps:
            db.insert(gap)
            if db.index.page_splits > before:
                return
        raise AssertionError("the inserts must split the leaf")

    env.process(splitter())
    row = env.run(until=env.process(db.serve_lookup(reader, key, page_process_us=50.0)))
    new_leaf = db.index.page_path(key)[-1]
    assert new_leaf != old_leaf, "the split must have moved the key"
    assert row == expected
    assert reader.pool.contains(new_leaf), "the lookup must read the fresh route's leaf"
    assert not reader.pool.contains(old_leaf), "the stale leaf must not be demanded"


def test_page_scan_honours_brownout_shrunken_prefetch_depth():
    """Page-latched scans walk the same prefetching leaf span as unlatched
    ones, so the brownout ladder's shrunken ``scan_prefetch_depth`` slows
    them down instead of being ignored."""
    from repro.serve.resilience import BrownoutConfig, BrownoutController

    def scan_latency(degraded: bool):
        db = MiniDbms(num_rows=800, num_disks=2, page_size=512, seed=5, mature=False)
        server = DbmsServer(
            db, max_concurrency=4, queue_depth=16, pool_frames=64,
            page_process_us=50.0, seed=5, concurrency="page",
        )
        if degraded:
            BrownoutController(server, BrownoutConfig())._set_level(1)
            assert server.scan_prefetch_depth == 1
        keys = [int(k) for k in db._workload.keys]
        request = server.make_request(("scan", keys[10], keys[400]))
        server.submit(request)
        server.run()
        assert request.outcome == "ok"
        assert request.rows == db.index.range_scan(keys[10], keys[400]).count
        return request.latency_us, server.reader.prefetches

    full_us, full_prefetches = scan_latency(degraded=False)
    shrunk_us, shrunk_prefetches = scan_latency(degraded=True)
    assert full_prefetches > 0, "a page scan must prefetch its leaf span"
    assert shrunk_us > full_us, "a shallower prefetch window must cost latency"
