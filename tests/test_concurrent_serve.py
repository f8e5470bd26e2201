"""End-to-end tests: concurrent serving, linearizability, crash-safe splits.

The serving layer in ``concurrency="page"`` mode lets sessions genuinely
race inside the tree (optimistic reads, latch-crabbing writes); these tests
record the resulting histories on the DES clock and validate them with the
Wing–Gong checker — including the two headline acceptance criteria:

* the deliberately unsound test-only broken protocol (no validation,
  inserts applied into the stale traversal leaf — see
  ``tests/broken_protocol.py``) manufactures lost updates the checker must
  reject, while ``"page"`` histories under identical load are accepted; and
* a crash injected at the start of a page split *while concurrent writers
  race inside the tree* recovers via the WAL with zero acknowledged
  inserts lost, a scrub-clean tree, a linearizable acknowledged history,
  and byte-identical reports and histories across two same-seed runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbms.engine import MiniDbms
from repro.faults.schedule import ChaosSchedule
from repro.serve.resilience import ChaosRunner, ClientRetryPolicy
from repro.serve.server import DbmsServer
from repro.serve.stats import ServerStats
from repro.verify.linearizability import History, HistoryRecorder, check_linearizable
from repro.workloads.ops import MixedOpStream, OpMix

from .broken_protocol import break_latches

#: Every cached page pair is recomputed and compared on use (conftest.py).
pytestmark = pytest.mark.usefixtures("checked_page_entries")


def make_server(seed: int, concurrency: str, num_rows: int = 300) -> DbmsServer:
    db = MiniDbms(num_rows=num_rows, num_disks=2, page_size=512, seed=seed, mature=False)
    server = DbmsServer(
        db,
        max_concurrency=8,
        queue_depth=256,
        pool_frames=32,
        page_process_us=50.0,
        seed=seed,
        concurrency=concurrency,
    )
    recorder = HistoryRecorder(clock=lambda: server.env.now)
    recorder.initial_keys = [int(k) for k in db._workload.keys]
    server.attach_history(recorder)
    return server


def burst(server: DbmsServer, ops, sessions: int = 6):
    """Submit every op up front (one burst) and run the simulation dry."""
    requests = []
    for i, op in enumerate(ops):
        request = server.make_request(op, session=f"s{i % sessions}")
        requests.append(request)
        server.submit(request)
    server.run()
    return requests


def insert_burst_then_audit(seed: int, concurrency: str, broken: bool = False):
    """The seeded known-bad recipe: race 50 inserts across 6 sessions on a
    small-page tree (plenty of splits), then look up every acked key."""
    server = make_server(seed, concurrency)
    if broken:
        break_latches(server)
    inserts = burst(server, [("insert", None)] * 50)
    acked = [r.op[1] for r in inserts if r.outcome == "ok"]
    assert acked, "the burst must acknowledge some inserts"
    burst(server, [("lookup", key) for key in acked])
    return server, check_linearizable(server.history.history())


@pytest.mark.parametrize("seed", [3, 7])
def test_broken_mode_history_is_rejected(seed):
    server, result = insert_burst_then_audit(seed, "page", broken=True)
    assert not result.ok
    assert "no linearization" in result.reason
    # The rejection has a concrete cause: some acked insert is unreachable.
    acked = [r.op[1] for r in server.requests if r.kind == "insert" and r.outcome == "ok"]
    assert any(server.db.index.search(key) is None for key in acked)


@pytest.mark.parametrize("seed", [3, 7, 11, 19])
def test_page_mode_history_is_accepted(seed):
    server, result = insert_burst_then_audit(seed, "page")
    assert result.ok, result.reason
    server.db.index.validate()
    # The latches genuinely arbitrated: the same load that breaks the broken
    # protocol produced validation conflicts here, and none were lost.
    assert server.latch_counters()["validation_failures"] > 0


@pytest.mark.parametrize("seed", [5, 13])
def test_mixed_traffic_history_is_accepted(seed):
    """Lookups, scans and inserts racing through the page-latched tree
    produce a linearizable history (and an intact tree)."""
    server = make_server(seed, "page")
    stream = MixedOpStream(
        server.db._workload.keys, OpMix(lookup=0.4, scan=0.2, insert=0.4), seed=seed
    )
    requests = burst(server, [stream.next_op() for __ in range(60)])
    assert all(r.outcome == "ok" for r in requests)
    result = check_linearizable(server.history.history())
    assert result.ok, result.reason
    server.db.index.validate()


# -- crash during a concurrent split ------------------------------------------


def crash_split_runner() -> ChaosRunner:
    """The crash-mid-split scenario: insert-heavy traffic on 512-byte pages
    (so splits are frequent), machine dies at the start of split #4 while
    writers are racing inside the tree."""
    return ChaosRunner(
        ChaosSchedule.parse("crash split=4", seed=5),
        num_rows=500,
        num_disks=4,
        page_size=512,
        sessions=6,
        ops_per_session=24,
        mix=OpMix(lookup=0.3, scan=0.1, insert=0.6),
        retry=ClientRetryPolicy(max_attempts=3),
        seed=5,
        concurrency="page",
        record_history=True,
    )


@pytest.fixture(scope="module")
def crash_split_runs():
    """Two identical crash-mid-split runs (shared across the tests below)."""
    out = []
    for __ in range(2):
        runner = crash_split_runner()
        report = runner.run()
        out.append((runner, report))
    return out


def test_crash_during_concurrent_split_recovers_cleanly(crash_split_runs):
    runner, report = crash_split_runs[0]
    assert report["crashes"] == 1
    (crash,) = report["crash_log"]
    assert crash["point"] == "page-split"
    assert crash["drained_in_flight"] > 1, "the crash must hit concurrent in-flight ops"
    assert crash["scrub_ok"] is True
    assert report["scrubs"] == 1
    assert report["scrub_violations"] == 0
    assert report["conserved"] is True
    assert report["lost_inserts"] == 0, "every acknowledged insert survived recovery"
    assert report["committed_inserts"] > 0


def test_crash_during_concurrent_split_history_linearizes(crash_split_runs):
    runner, __ = crash_split_runs[0]
    history = runner.history.history()
    assert history.pending, "ops killed by the crash must stay pending"
    result = check_linearizable(history)
    assert result.ok, result.reason


def test_crash_split_history_checks_the_same_after_a_json_round_trip(crash_split_runs):
    runner, __ = crash_split_runs[0]
    history = runner.history.history()
    keys = history.initial_keys
    assert keys is runner.history.initial_keys  # shared by every snapshot, not copied
    assert keys.dtype == np.int64 and bool((np.diff(keys) > 0).all())
    replayed = History.from_json(history.to_json())
    assert replayed.to_json() == history.to_json()
    verdict = check_linearizable(history)
    assert verdict.ok and check_linearizable(replayed) == verdict


def test_crash_during_concurrent_split_is_deterministic(crash_split_runs):
    import json

    (runner_a, report_a), (runner_b, report_b) = crash_split_runs
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    assert runner_a.history.history().to_json() == runner_b.history.history().to_json()


# -- satellite regressions -----------------------------------------------------


def test_leaf_map_cache_tracks_splits():
    """The cached leaf map must not go stale across page splits."""
    db = MiniDbms(num_rows=300, num_disks=2, page_size=512, seed=3, mature=False)
    first = db.cached_leaf_map()
    assert db.cached_leaf_map() is first  # epoch unchanged: cache hit
    splits_before = db.index.page_splits
    key = int(db._workload.keys[-1])
    while db.index.page_splits == splits_before:
        key += 2
        db.insert(key)
    refreshed = db.cached_leaf_map()
    assert refreshed is not first
    # The refreshed map routes to the key's current leaf; a stale map from
    # before the split could not know the new page.
    __, pids = refreshed
    assert db.index.page_path(key)[-1] in [int(p) for p in pids]


def test_leaf_map_cache_invalidated_by_recovery():
    schedule = ChaosSchedule.parse("", seed=1)
    db = MiniDbms(num_rows=200, num_disks=2, page_size=1024, seed=3, mature=False)
    db.enable_wal(schedule.to_fault_plan(), checkpoint_interval=4)
    first = db.cached_leaf_map()
    db.insert(int(db._workload.keys[-1]) + 2)
    db.crash_and_recover()
    assert db.cached_leaf_map() is not first  # generation bumped


def test_scrub_counters_surface_in_stats_snapshot():
    stats = ServerStats()
    assert stats.scrubs == 0 and stats.scrub_violations == 0
    stats.scrubs += 2  # one clean scrub, one that found a violation
    stats.scrub_violations += 1
    resilience = stats.snapshot()["resilience"]
    assert resilience["scrubs"] == 2
    assert resilience["scrub_violations"] == 1
    assert stats.metrics.value("serve.scrubs") == 2
    assert stats.metrics.value("serve.scrub_violations") == 1
