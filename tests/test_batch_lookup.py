"""Unit and property tests for level-wise batched lookups (repro.btree.batch).

The batch executor must be *bit-equivalent* to the paths it amortizes:
same routing, same leaf verdicts, same rows — only the I/O schedule
changes.  These tests pin that the cached flat page pairs route and
exact-match like the traced in-page node walk (enumerated and
property-based, for single keys and for whole batches through
``descend``), the dedup/wave accounting, the epoch fallback that keeps
``concurrency="none"`` batches correct across concurrent splits, and the
prefetch-wave interaction with the brownout cap.  Every cached pair use is
recomputed and compared (``checked_page_entries``).

Regression note (verified to fail pre-fix): ``prefetch_wave`` originally
fast-pathed straight to ``_start_read`` and ignored
``max_outstanding_prefetches`` — a brownout-shrunken cap was silently
bypassed by batched traversals (a wave of 8 fresh pages issued all 8 reads
and ``prefetches_suppressed`` stayed 0).
``test_prefetch_wave_respects_outstanding_cap`` pins the fix.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.batch import LevelWiseLookupBatch
from repro.des import Environment
from repro.dbms.engine import MiniDbms
from repro.serve.server import DbmsServer
from repro.storage import AsyncPageReader, BufferPool, DiskArray, StorageConfig

from page_walk import assert_descend_matches_search, assert_pages_route_like_walk

#: Every cached page pair is recomputed and compared on use (conftest.py).
pytestmark = pytest.mark.usefixtures("checked_page_entries")


def make_db(num_rows=400, seed=7, page_size=512, num_disks=2) -> MiniDbms:
    return MiniDbms(
        num_rows=num_rows, num_disks=num_disks, page_size=page_size,
        seed=seed, mature=False,
    )


def make_substrate(db: MiniDbms, frames: int = 48, seed: int = 0):
    env = Environment()
    config = StorageConfig(
        page_size=db.page_size, num_disks=db.num_disks,
        buffer_pool_pages=frames, disk=db.disk_params,
    )
    disks = DiskArray(env, config)
    pool = BufferPool(config, db.store)
    reader = AsyncPageReader(env, disks, pool, seed=seed)
    return env, reader, disks


def run_process(env, gen):
    return env.run(until=env.process(gen))


def probe_keys(db: MiniDbms) -> list[int]:
    """Existing keys plus below-range, above-range, and gap probes."""
    keys = [int(k) for k in db._workload.keys]
    probes = keys[:: max(1, len(keys) // 40)]
    probes += [-5, 0, keys[0] - 1, keys[-1] + 7]
    probes += [k + 1 for k in keys[:: max(1, len(keys) // 10)]]
    return probes


# -- the cached page pair equals the node walk --------------------------------


def test_vectorized_routing_matches_scalar_walk():
    """The cached page pairs route and match like the scalar node walk."""
    db = make_db()
    probes = sorted(probe_keys(db))
    interior, leaves = assert_pages_route_like_walk(db.index, lambda page: probes)
    assert interior >= 1 and leaves >= 2
    # A batch splits into per-child runs in one searchsorted per page.
    assert_descend_matches_search(db, probes)


_PROP_DB = make_db(num_rows=300, seed=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=32))
def test_vectorized_routing_property(keys):
    """Arbitrary probe batches (negatives and repeats included) route and
    search identically to the node walk on every page of a real tree, one
    key at a time and as one descent."""
    assert_pages_route_like_walk(_PROP_DB.index, lambda page: keys)
    assert_descend_matches_search(_PROP_DB, keys)


# -- batch execution equals individual lookups --------------------------------


def batch_keys(db: MiniDbms, stride: int = 9) -> list[int]:
    keys = [int(k) for k in db._workload.keys]
    picked = keys[::stride]
    picked += [keys[0] - 3, keys[-1] + 11, keys[3] + 1]  # guaranteed misses
    return picked


def test_batch_results_match_individual_lookups():
    db = make_db()
    env, reader, __ = make_substrate(db)
    keys = batch_keys(db)
    expected = [db.lookup(k) for k in keys]
    fired: list[tuple[int, object]] = []
    batch = LevelWiseLookupBatch(db, keys)
    rows = run_process(env, batch.run(reader, on_result=lambda i, row: fired.append((i, row))))
    assert rows == expected
    # on_result fired exactly once per key, with that key's row.
    assert sorted(i for i, __ in fired) == list(range(len(keys)))
    assert {i: row for i, row in fired} == {i: rows[i] for i in range(len(keys))}


def test_batch_dedups_shared_pages():
    db = make_db()
    env, reader, __ = make_substrate(db)
    keys = batch_keys(db)
    levels = {}  # pid -> key indices is rebuilt per level; count distinct pages
    expected_pages = set()
    for k in keys:
        expected_pages.update(db.index.page_path(k))
    for k in keys:
        tid = db.index.search(k)
        if tid is not None:
            heap_pid, __slot = db.table.tid_to_location(int(tid) - 1)
            expected_pages.add(heap_pid)
    del levels
    batch = LevelWiseLookupBatch(db, keys)
    run_process(env, batch.run(reader))
    height = db.index.height
    # Shared pages (the root above all) are visited once per batch, so the
    # page count is the number of *distinct* pages, far below B * path_len.
    assert batch.pages_visited == len(expected_pages)
    assert batch.pages_visited < len(keys) * (height + 1)
    # Each tree level and the heap went out as prefetch waves.
    assert reader.prefetch_waves >= 2
    assert reader.prefetch_wave_pages >= reader.prefetch_waves


@pytest.mark.parametrize("mode", ["page", "coarse"])
def test_latched_batch_modes_match_individual_lookups(mode):
    db = make_db()
    server = DbmsServer(
        db, max_concurrency=8, queue_depth=64, pool_frames=48,
        page_process_us=50.0, seed=5, concurrency=mode,
    )
    keys = batch_keys(db)
    expected = [db.lookup(k) for k in keys]
    rows = server.env.run(
        until=server.env.process(
            db.serve_lookup_batch(server.reader, keys, owner="t", protocol=server.protocol)
        )
    )
    assert rows == expected


def test_batch_is_deterministic_across_runs():
    db = make_db()
    keys = batch_keys(db)
    snaps = []
    for __ in range(2):
        env, reader, __disks = make_substrate(db)
        batch = LevelWiseLookupBatch(db, keys)
        rows = run_process(env, batch.run(reader))
        snaps.append(
            (
                rows, env.now, batch.pages_visited,
                int(reader.demand_reads), int(reader.prefetches),
                int(reader.prefetch_waves), int(reader.prefetch_wave_pages),
            )
        )
    assert snaps[0] == snaps[1]


# -- epoch fallback: splits landing between a batch's yields ------------------


def gap_keys_in_range(db: MiniDbms, lo: int, hi: int) -> list[int]:
    existing = set(int(k) for k in db._workload.keys)
    return [k for k in range(lo + 1, hi) if k not in existing]


def test_epoch_fallback_keeps_batch_correct_across_split():
    """A split landing between the batch's yields moves keys off the page
    the level-wise routing chose; the epoch fallback must re-resolve them
    (``concurrency="none"`` semantics: same answers as per-key serve_lookup)."""
    db = make_db()
    env, reader, __ = make_substrate(db)
    firsts, pids = db.leaf_key_map()
    mid = len(pids) // 2
    lo, hi = int(firsts[mid]), int(firsts[mid + 1])
    keys = [int(k) for k in db._workload.keys if lo <= int(k) < hi]
    expected = [db.lookup(k) for k in keys]
    gaps = gap_keys_in_range(db, lo, hi)
    assert len(gaps) >= 4, "the probed leaf needs insertable gap keys"

    def inserter():
        # Fire mid-batch: the batch is deep in its (multi-ms) root demand
        # at t=500us, so the split lands between its yields.
        yield env.timeout(500.0)
        before = db.index.page_splits
        for gap in gaps:
            db.insert(gap)
            if db.index.page_splits > before:
                return

    env.process(inserter())
    batch = LevelWiseLookupBatch(db, keys)
    rows = run_process(env, batch.run(reader))
    assert db.index.page_splits > 0, "the inserter must have split the leaf"
    assert rows == expected
    assert batch.epoch_fallbacks > 0, "the moved epoch must have been noticed"


# -- prefetch waves vs the reader's degradation knobs -------------------------


def test_prefetch_wave_skips_resident_and_inflight_pages():
    db = make_db()
    env, reader, __ = make_substrate(db)
    leaves = db.index.leaf_page_ids()
    run_process(env, reader.demand(leaves[0]))  # resident
    reader.prefetch(leaves[1])  # in flight
    before = int(reader.prefetches)
    issued = reader.prefetch_wave(leaves[:4])
    assert issued == 2  # leaves[2], leaves[3]
    assert int(reader.prefetches) == before + 2
    assert int(reader.prefetch_waves) == 1
    assert int(reader.prefetch_wave_pages) == 2


def test_prefetch_wave_respects_prefetch_disabled():
    db = make_db()
    __, reader, __disks = make_substrate(db)
    reader.prefetch_enabled = False
    assert reader.prefetch_wave(db.index.leaf_page_ids()[:4]) == 0
    assert int(reader.prefetches) == 0
    assert int(reader.prefetch_waves) == 0


def test_prefetch_wave_respects_outstanding_cap():
    """Regression (satellite: brownout vs waves): a shrunken
    ``max_outstanding_prefetches`` must bound wave issue exactly as it
    bounds single prefetches, counting the rest as suppressed.

    Pre-fix, ``prefetch_wave`` bypassed the cap entirely: the wave below
    issued all 8 reads (outstanding == 8 > 2) and suppressed stayed 0.
    """
    db = make_db()
    __, reader, __disks = make_substrate(db)
    reader.max_outstanding_prefetches = 2
    wave = db.index.leaf_page_ids()[:8]
    issued = reader.prefetch_wave(wave)
    assert issued == 2
    assert reader.outstanding == 2
    assert int(reader.prefetches_suppressed) == len(wave) - issued == 6
    # The wave counters record what was actually issued, not the attempt.
    assert int(reader.prefetch_wave_pages) == issued
