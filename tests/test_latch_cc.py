"""Unit tests for page-level concurrency control (:mod:`repro.btree.cc`).

Covers the version-latch protocol (optimistic reads, FIFO write hand-off,
wraparound), the DES deadlock watchdog, and the latch edge cases the issue
names: a root split under a reader's optimistic snapshot of the old root,
writer retry-budget exhaustion, and version-counter wraparound.
"""

from __future__ import annotations

import pytest

from repro.btree.cc import (
    GLOBAL_LATCH,
    GlobalProtocol,
    LatchChain,
    LatchDeadlockError,
    NullProtocol,
    PageLatchManager,
    PageProtocol,
    make_protocol,
    page_safe,
)
from repro.dbms.engine import MiniDbms
from repro.des import Environment, Event, SimulationError
from repro.serve.server import DbmsServer

from .broken_protocol import break_latches

#: Every cached page pair is recomputed and compared on use (conftest.py).
pytestmark = pytest.mark.usefixtures("checked_page_entries")


def make_manager(wrap: int = 1 << 32) -> tuple[Environment, PageLatchManager]:
    env = Environment()
    manager = PageLatchManager(env, wrap=wrap)
    manager.attach_watchdog()
    return env, manager


# -- the latch protocol ------------------------------------------------------


def test_latch_free_begin_marks_exactly_the_protocols_with_the_null_begin():
    # descend skips begin (token None) where latch_free_begin is set, so the
    # flag must follow begin itself: a protocol that overrides begin, and
    # declares nothing else, must never have its begin skipped.
    assert NullProtocol.latch_free_begin and GlobalProtocol.latch_free_begin
    assert not PageProtocol.latch_free_begin and not LatchChain.latch_free_begin

    class Waits(NullProtocol):
        def begin(self, pid, owner):
            yield None

    class KeepsTheNullBegin(GlobalProtocol):
        pass

    class InheritsALatchedBegin(PageProtocol):
        pass

    assert not Waits.latch_free_begin
    assert KeepsTheNullBegin.latch_free_begin
    assert not InheritsALatchedBegin.latch_free_begin
    # Skipping the null begin loses nothing: it never yields and returns None.
    with pytest.raises(StopIteration) as done:
        next(NullProtocol().begin(1, "owner"))
    assert done.value.value is None


def test_write_latch_mutual_exclusion_is_fifo():
    env, m = make_manager()
    order = []

    def writer(tag, hold_us):
        yield from m.write_acquire(7, tag)
        order.append((tag, "in", env.now))
        yield env.timeout(hold_us)
        m.write_release(7, tag)

    for tag, hold in (("a", 10), ("b", 5), ("c", 1)):
        env.process(writer(tag, hold))
    env.run()
    # Strict FIFO: despite shorter holds, b and c wait their turn.
    assert [tag for tag, phase, _ in order] == ["a", "b", "c"]
    assert not m.locked(7)
    assert m.counters()["write_waits"] == 2


def test_version_is_odd_while_held_and_bumps_on_release():
    env, m = make_manager()
    observed = {}

    def writer():
        pre = yield from m.write_acquire(3, "w")
        observed["pre"] = pre
        observed["held_version"] = m.version(3)
        m.write_release(3, "w")
        observed["post"] = m.version(3)

    env.process(writer())
    env.run()
    assert observed["pre"] == 0
    assert observed["held_version"] == 1  # odd while held
    assert observed["post"] == 2  # even and advanced after release


def test_reader_waits_out_writer_then_validates():
    env, m = make_manager()
    trace = {}

    def writer():
        yield from m.write_acquire(1, "w")
        yield env.timeout(100)
        m.write_release(1, "w")

    def reader():
        yield env.timeout(10)  # arrive while the writer holds the latch
        version = yield from m.read_begin(1, "r")
        trace["begin_at"] = env.now
        trace["validates"] = m.validate(1, version)

    env.process(writer())
    env.process(reader())
    env.run()
    assert trace["begin_at"] == pytest.approx(100.0)  # parked until release
    assert trace["validates"] is True
    assert m.counters()["read_waits"] == 1


def test_validation_fails_after_interleaved_write():
    env, m = make_manager()
    outcome = {}

    def reader():
        version = yield from m.read_begin(2, "r")
        yield env.timeout(50)  # a writer sneaks in during this wait
        outcome["valid"] = m.validate(2, version)

    def writer():
        yield env.timeout(10)
        yield from m.write_acquire(2, "w")
        m.write_release(2, "w")

    env.process(reader())
    env.process(writer())
    env.run()
    assert outcome["valid"] is False
    assert m.counters()["validation_failures"] == 1


def test_bump_invalidates_optimistic_snapshots_without_latching():
    env, m = make_manager()
    version = m.version(9)
    m.bump(9)
    assert not m.locked(9)
    assert m.validate(9, version) is False


def test_version_counter_wraparound_preserves_parity():
    env, m = make_manager(wrap=8)
    releases = []

    def writer(i):
        # Staggered starts: no contention, so each release leaves the latch
        # free (a contended release hands off directly and leaves it odd).
        yield env.timeout(i * 10)
        yield from m.write_acquire(0, f"w{i}")
        yield env.timeout(1)
        m.write_release(0, f"w{i}")
        releases.append(m.version(0))

    for i in range(6):  # 6 releases at +2 each wraps an 8-cycle counter
        env.process(writer(i))
    env.run()
    assert releases == [2, 4, 6, 0, 2, 4]  # wrapped, still even
    assert not m.locked(0)
    # A snapshot from before the wrap that collides numerically would be
    # the ABA case; the production wrap (2**32) makes it unreachable, and
    # parity preservation keeps the protocol itself sound across the wrap.
    version = m.version(0)
    m.bump(0)
    assert m.validate(0, version) is False


def test_release_of_unheld_latch_raises():
    env, m = make_manager()
    with pytest.raises(SimulationError, match="unheld"):
        m.write_release(4, "nobody")


def test_wrap_must_be_even():
    env = Environment()
    with pytest.raises(ValueError):
        PageLatchManager(env, wrap=7)


# -- the deadlock watchdog ---------------------------------------------------


def test_watchdog_names_holder_and_waiters_on_drain():
    env, m = make_manager()

    def hog():
        yield from m.write_acquire(5, "session-a#1")
        yield env.timeout(1)
        # leaks the latch: never releases

    def victim():
        yield env.timeout(0.5)
        yield from m.write_acquire(5, "session-b#2")

    env.process(hog())
    env.process(victim())
    with pytest.raises(LatchDeadlockError) as excinfo:
        env.run()
    message = str(excinfo.value)
    assert "page 5" in message
    assert "session-a#1" in message  # the holder
    assert "session-b#2" in message  # the parked waiter
    assert excinfo.value.held == {5: "session-a#1"}
    assert excinfo.value.parked == [(5, "session-b#2", "write")]


def test_watchdog_fires_on_run_until_event_drain():
    env, m = make_manager()

    def hog():
        yield from m.write_acquire(1, "hog")
        yield env.timeout(1)

    def victim():
        yield env.timeout(0.5)
        yield from m.write_acquire(1, "victim")
        m.write_release(1, "victim")

    env.process(hog())
    stuck = env.process(victim())
    with pytest.raises(LatchDeadlockError):
        env.run(until=stuck)


def test_watchdog_silent_when_all_latches_released():
    env, m = make_manager()

    def worker():
        yield from m.write_acquire(1, "w")
        yield env.timeout(1)
        m.write_release(1, "w")

    env.process(worker())
    env.run()  # no exception: clean drain


# -- concurrent tree ops edge cases -----------------------------------------


def serve_db(**kwargs) -> tuple[MiniDbms, DbmsServer]:
    defaults = dict(num_rows=300, num_disks=2, page_size=512, seed=3, mature=False)
    defaults.update({k: v for k, v in kwargs.items() if k in defaults})
    db = MiniDbms(**defaults)
    server = DbmsServer(
        db,
        max_concurrency=kwargs.get("max_concurrency", 8),
        queue_depth=128,
        pool_frames=32,
        page_process_us=50.0,
        seed=defaults["seed"],
        concurrency=kwargs.get("concurrency", "page"),
        retry_budget=kwargs.get("retry_budget", 8),
    )
    return db, server


def served_insert(server, key, owner):
    return server.db.serve_insert(
        server.reader, server.disks, key,
        page_process_us=server.page_process_us, owner=owner, protocol=server.protocol,
    )


def served_lookup(server, key, owner):
    return server.db.serve_lookup(
        server.reader, key,
        page_process_us=server.page_process_us, owner=owner, protocol=server.protocol,
    )


def test_root_split_under_optimistic_snapshot_of_old_root():
    """A reader snapshots the root version, a writer splits the root: the
    stale snapshot must fail validation, and a descent started after the
    split must route through the new root and still find its key."""
    db, server = serve_db()
    latches = server.latches
    tree = db.index
    env = server.env
    old_root = tree.root_pid
    old_version = latches.version(old_root)
    root_split = Event(env)

    result = {}

    def writer():
        # Drive inserts through the real concurrent path until the root
        # splits (the tree grows a level).
        height = tree.height
        key = int(db._workload.keys[-1])
        while tree.height == height:
            key += 2
            yield from served_insert(server, key, owner="writer")
        root_split.succeed()

    def reader():
        yield root_split
        assert tree.root_pid != old_root
        # The pre-split snapshot of the old root is stale: the split
        # rewrote that page, so optimistic validation must fail.
        assert latches.validate(old_root, old_version) is False
        key = int(db._workload.keys[0])
        row = yield from served_lookup(server, key, owner="reader")
        result["row"] = row

    env.process(writer())
    env.process(reader())
    env.run()
    assert result["row"] is not None
    tree.validate()


def test_reader_restarts_when_descent_validation_fails():
    db, server = serve_db()
    latches = server.latches
    env = server.env
    key = int(db._workload.keys[5])
    done = {}

    def reader():
        row = yield from served_lookup(server, key, owner="r")
        done["row"] = row

    def meddler():
        # Bump the target leaf every 30us until the reader finishes: a bump
        # always lands between the reader's leaf snapshot and its
        # post-paging validation, forcing restarts.  The reader still
        # terminates: after the retry budget the pessimistic fallback
        # ignores version bumps entirely.
        while "row" not in done:
            latches.bump(db.index.page_path(key)[-1])
            yield env.timeout(30.0)

    env.process(reader())
    env.process(meddler())
    env.run()
    assert done["row"] is not None
    assert server.protocol.read_restarts >= 1


def _split_safe_key(db) -> int:
    """A fresh key routed to a leaf that one insert cannot split.

    Retry-budget exhaustion needs the optimistic path to fail on
    *validation* every time; an unsafe leaf would short-circuit straight to
    crabbing without burning the budget.
    """
    for stored in db._workload.keys.tolist():
        key = int(stored) + 1  # between stored keys (stride 2): always fresh
        leaf_pid = db.index.page_path(key)[-1]
        if page_safe(db.index, db.index.store.page(leaf_pid)):
            return key
    raise AssertionError("no split-safe leaf in a freshly bulkloaded tree")


def test_writer_retry_budget_exhaustion_falls_back_to_crabbing():
    db, server = serve_db(retry_budget=2)
    latches = server.latches
    env = server.env
    key = _split_safe_key(db)
    finished = {}

    def writer():
        row = yield from served_insert(server, key, owner="w")
        finished["row"] = row

    def meddler():
        # Keep bumping the target leaf so every optimistic attempt fails
        # validation; after the budget the writer must crab (write latches
        # root-down), where the bumps are irrelevant, and still succeed.
        while "row" not in finished:
            latches.bump(db.index.page_path(key)[-1])
            yield env.timeout(30.0)

    env.process(writer())
    env.process(meddler())
    env.run()
    assert "row" in finished
    assert server.protocol.pessimistic_writes == 1
    assert server.protocol.write_restarts >= 2  # burned the whole budget first
    assert db.index.search(key) is not None
    db.index.validate()


def test_reader_retry_budget_exhaustion_falls_back_to_pessimistic():
    db, server = serve_db(retry_budget=2)
    latches = server.latches
    env = server.env
    key = int(db._workload.keys[8])
    finished = {}

    def reader():
        row = yield from served_lookup(server, key, owner="r")
        finished["row"] = row

    def meddler():
        while "row" not in finished:
            latches.bump(db.index.page_path(key)[-1])
            yield env.timeout(30.0)

    env.process(reader())
    env.process(meddler())
    env.run()
    assert finished["row"] is not None
    assert server.protocol.pessimistic_reads == 1


def test_coarse_mode_serializes_behind_global_latch():
    db, server = serve_db(concurrency="coarse")
    reqs = []
    for i in range(12):
        kind = ("lookup", int(db._workload.keys[i]))
        if i % 3 == 0:
            kind = ("insert", None)
        req = server.make_request(kind, session=f"s{i % 3}")
        reqs.append(req)
        server.submit(req)
    server.run()
    assert all(r.outcome == "ok" for r in reqs)
    counters = server.latch_counters()
    # Every op took the one global latch; with >1 in flight, someone waited.
    assert counters["write_acquires"] == len(reqs)
    assert counters["write_waits"] > 0
    assert not server.latches.locked(GLOBAL_LATCH)
    db.index.validate()


def test_broken_mode_loses_updates_under_concurrent_splits():
    """The deliberately unvalidated protocol misroutes inserts when a split
    races the traversal — the seeded known-bad behaviour the
    linearizability checker must catch (see test_concurrent_serve)."""
    db, server = serve_db(concurrency="page", max_concurrency=12)
    break_latches(server)
    reqs = []
    for i in range(50):
        req = server.make_request(("insert", None), session=f"w{i % 6}")
        reqs.append(req)
        server.submit(req)
    server.run()
    acked = [r.op[1] for r in reqs if r.outcome == "ok"]
    assert acked, "broken mode still acknowledges inserts"
    lost = [key for key in acked if db.index.search(key) is None]
    assert lost, "expected the broken latch path to lose at least one insert"


def test_page_mode_loses_nothing_under_the_same_load():
    db, server = serve_db(concurrency="page", max_concurrency=12)
    reqs = []
    for i in range(50):
        req = server.make_request(("insert", None), session=f"w{i % 6}")
        reqs.append(req)
        server.submit(req)
    server.run()
    acked = [r.op[1] for r in reqs if r.outcome == "ok"]
    assert len(acked) == 50
    assert all(db.index.search(key) is not None for key in acked)
    db.index.validate()
    # The load genuinely contended: optimistic validation failed somewhere.
    assert server.latch_counters()["validation_failures"] > 0


def test_concurrent_scans_and_inserts_agree_with_final_tree():
    db, server = serve_db(max_concurrency=10)
    keys = [int(k) for k in db._workload.keys]
    reqs = []
    for i in range(30):
        if i % 3 == 2:
            op = ("insert", None)
        else:
            lo = keys[(i * 7) % len(keys)]
            op = ("scan", lo, lo + 3_000)
        req = server.make_request(op, session=f"s{i % 5}")
        reqs.append(req)
        server.submit(req)
    server.run()
    assert all(r.outcome == "ok" for r in reqs)
    for req in reqs:
        if req.kind == "scan":
            # Every scan's count must be bounded by the final range content
            # (inserts only add entries over the run).
            final = int(db.index.range_scan(req.op[1], req.op[2]).count)
            assert 0 <= req.rows <= final
    db.index.validate()


def test_concurrency_mode_is_validated():
    db = MiniDbms(num_rows=100, num_disks=2, page_size=512, seed=3, mature=False)
    with pytest.raises(ValueError, match="concurrency"):
        DbmsServer(db, concurrency="optimistic")
    with pytest.raises(ValueError, match="mode"):
        make_protocol("nope")


def test_broken_is_not_a_served_mode():
    db = MiniDbms(num_rows=100, num_disks=2, page_size=512, seed=3, mature=False)
    with pytest.raises(ValueError, match="unknown concurrency mode 'broken'"):
        DbmsServer(db, concurrency="broken")
