"""Crash/torn-write injection and redo recovery, end to end.

The scenarios the WAL exists for: a crash point landing between the page
writes of a multi-page split, a torn log tail, a torn data-page write —
each must recover to a scrub-clean tree holding exactly the committed
transactions, deterministically (the same crash image always recovers to
the same bytes).
"""

import random

import pytest

from repro import (
    CacheFirstFpTree,
    DiskBPlusTree,
    DiskFirstFpTree,
    MicroIndexTree,
    MiniDbms,
    PrefetchingBPlusTree,
    TreeEnvironment,
    WalManager,
    recover,
    scrub_tree,
)
from repro.faults import FaultPlan, SimulatedCrash
from repro.image import dump_tree_bytes
from repro.wal import CrashImage, RecoveryError, encode_record, scan_records

PAGE = 1024
FRAMES = 16


def fresh_tree(kind=DiskFirstFpTree):
    return kind(TreeEnvironment(page_size=PAGE, buffer_pages=FRAMES))


def loaded_tree(kind=DiskFirstFpTree, n=1000):
    tree = fresh_tree(kind)
    keys = list(range(0, 2 * n, 2))
    tree.bulkload(keys, [k + 1 for k in keys])
    return tree


def run_until_crash(plan, kind=DiskFirstFpTree, n_ops=300, checkpoint_interval=20):
    """Bulkload, attach a WAL with ``plan``, insert odd keys until a crash.

    Returns ``(wal, attempted)`` where ``attempted[i]`` is the key whose
    insert ran as transaction ``i + 1`` (committed or not).
    """
    tree = loaded_tree(kind)
    wal = WalManager(tree, plan=plan, checkpoint_interval=checkpoint_interval)
    attempted = []
    crashed = False
    try:
        for k in range(1, 2 * n_ops, 2):
            attempted.append(k)
            tree.insert(k, k + 1)
    except SimulatedCrash:
        crashed = True
    assert crashed, "the fault plan never fired"
    return wal, attempted


def expected_after(attempted, committed_txns, n=1000):
    """The key->value map a correct recovery must produce."""
    expected = {k: k + 1 for k in range(0, 2 * n, 2)}
    for i, key in enumerate(attempted):
        if i + 1 in committed_txns:
            expected[key] = key + 1
    return expected


class TestCrashMidSplit:
    def test_crash_inside_split_discards_the_transaction(self):
        # Find a transaction whose insert splits a page, then crash between
        # that split's WAL appends (a split logs several page images; the
        # +2 lands after the first image but before the commit).
        probe = loaded_tree()
        probe_wal = WalManager(probe)
        crash_at = None
        for k in range(1, 600, 2):
            before_appends = probe_wal.log.appends
            before_splits = probe.page_splits
            probe.insert(k, k + 1)
            if probe.page_splits > before_splits:
                assert probe_wal.log.appends - before_appends >= 4
                crash_at = before_appends + 2
                break
        assert crash_at is not None, "no insert split a page"

        wal, attempted = run_until_crash(FaultPlan.crash_point(wal_appends=crash_at))
        tree, stats = recover(wal.crash_state(), fresh_tree)
        assert stats.discarded_txns  # the mid-split transaction vanished
        assert dict(tree.items()) == expected_after(attempted, stats.committed_txns)
        scrub_tree(tree)

    def test_committed_inserts_survive_any_crash_point(self):
        for crash_at in (1, 2, 5, 17, 60, 201):
            wal, attempted = run_until_crash(FaultPlan.crash_point(wal_appends=crash_at))
            tree, stats = recover(wal.crash_state(), fresh_tree)
            assert dict(tree.items()) == expected_after(attempted, stats.committed_txns), crash_at

    def test_deletes_recover_too(self):
        tree = loaded_tree()
        wal = WalManager(tree, plan=FaultPlan.crash_point(wal_appends=120), checkpoint_interval=10)
        attempted = []
        try:
            for i in range(200):
                key = 2 * i
                attempted.append(key)
                tree.delete(key)
        except SimulatedCrash:
            pass
        recovered, stats = recover(wal.crash_state(), fresh_tree)
        expected = {k: k + 1 for k in range(0, 2000, 2)}
        for i, key in enumerate(attempted):
            if i + 1 in stats.committed_txns:
                del expected[key]
        assert dict(recovered.items()) == expected
        scrub_tree(recovered)


class TestDeterminism:
    def test_same_image_recovers_to_identical_bytes(self):
        wal, __ = run_until_crash(FaultPlan.crash_point(wal_appends=77))
        image = wal.crash_state()
        tree_a, stats_a = recover(image, fresh_tree)
        tree_b, stats_b = recover(image, fresh_tree)
        assert dump_tree_bytes(tree_a) == dump_tree_bytes(tree_b)
        assert stats_a == stats_b

    def test_same_seed_produces_identical_crash_image(self):
        plan = FaultPlan.crash_point(wal_appends=77)
        wal_a, __ = run_until_crash(plan)
        wal_b, __ = run_until_crash(plan)
        image_a, image_b = wal_a.crash_state(), wal_b.crash_state()
        assert image_a.wal_data == image_b.wal_data
        assert image_a.pages == image_b.pages


class TestTornWrites:
    def test_torn_wal_append_truncates_the_tail(self):
        wal, attempted = run_until_crash(FaultPlan.crash_point(torn_wal=150))
        tree, stats = recover(wal.crash_state(), fresh_tree)
        assert stats.truncated_bytes > 0  # the torn half-record was dropped
        assert stats.valid_wal_bytes < stats.wal_bytes
        assert dict(tree.items()) == expected_after(attempted, stats.committed_txns)
        scrub_tree(tree)

    def test_torn_page_write_is_healed_from_the_log(self):
        wal, attempted = run_until_crash(FaultPlan.crash_point(torn_page=30))
        image = wal.crash_state()
        tree, stats = recover(image, fresh_tree)
        assert len(stats.torn_pages) == 1
        assert stats.pages_restored >= 1
        assert dict(tree.items()) == expected_after(attempted, stats.committed_txns)
        scrub_tree(tree)

    def test_crash_after_page_write(self):
        wal, attempted = run_until_crash(FaultPlan.crash_point(page_writes=25))
        tree, stats = recover(wal.crash_state(), fresh_tree)
        assert dict(tree.items()) == expected_after(attempted, stats.committed_txns)
        scrub_tree(tree)


class TestRecoveryEdges:
    def test_empty_log_is_unrecoverable(self):
        image = CrashImage(wal_data=b"", pages={}, checksums={}, page_size=PAGE)
        with pytest.raises(RecoveryError):
            recover(image, fresh_tree)

    def test_unhealable_torn_page_raises(self):
        wal, __ = run_until_crash(FaultPlan.crash_point(torn_page=30))
        image = wal.crash_state()
        # Truncate the log to just the attach-time checkpoint: the torn
        # page's after-images vanish, so the tear cannot be healed.
        records = scan_records(image.wal_data)[0]
        checkpoint_only = CrashImage(
            wal_data=encode_record(records[0]),
            pages=image.pages,
            checksums=image.checksums,
            page_size=image.page_size,
        )
        with pytest.raises(RecoveryError):
            recover(checkpoint_only, fresh_tree)

    def test_recovery_charges_simulated_time(self):
        wal, __ = run_until_crash(FaultPlan.crash_point(wal_appends=100))
        __, stats = recover(wal.crash_state(), fresh_tree)
        assert stats.recovery_us > 0

    def test_disk_baseline_tree_recovers(self):
        wal, attempted = run_until_crash(
            FaultPlan.crash_point(wal_appends=80), kind=DiskBPlusTree
        )
        tree, stats = recover(wal.crash_state(), lambda: fresh_tree(DiskBPlusTree))
        assert dict(tree.items()) == expected_after(attempted, stats.committed_txns)
        scrub_tree(tree)


class TestScrubCoverage:
    @pytest.mark.parametrize("kind", [DiskBPlusTree, MicroIndexTree, DiskFirstFpTree])
    def test_scrubs_every_kind_the_wal_recovers(self, kind):
        report = scrub_tree(loaded_tree(kind))
        assert report.entries == 1000 and report.leaf_pages >= 1

    def test_rejects_other_kinds_before_walking(self):
        cache_first = CacheFirstFpTree(
            TreeEnvironment(page_size=PAGE, buffer_pages=FRAMES), num_keys_hint=2000
        )
        keys = list(range(2000))
        cache_first.bulkload(keys, keys)
        for tree in (cache_first, PrefetchingBPlusTree()):
            with pytest.raises(TypeError, match="disk, micro and fp-disk"):
                scrub_tree(tree)


class TestPropertyBasedCrashRecovery:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_workload_random_crash(self, seed):
        # One seeded random workload, crashed at a seeded random WAL
        # append; the recovered tree must equal a fresh replay of exactly
        # the committed transactions.
        rng = random.Random(1000 + seed)
        base_keys = list(range(0, 4000, 4))
        n_ops = 250
        ops = []
        live = set(base_keys)
        for __ in range(n_ops):
            if live and rng.random() < 0.25:
                key = rng.choice(sorted(live))
                ops.append(("delete", key))
                live.discard(key)
            else:
                key = rng.randrange(1, 8000)
                ops.append(("insert", key))
                live.add(key)
        crash_at = rng.randrange(1, 4 * n_ops)

        def build():
            tree = fresh_tree()
            tree.bulkload(base_keys, [k + 1 for k in base_keys])
            return tree

        tree = build()
        wal = WalManager(
            tree,
            plan=FaultPlan.crash_point(wal_appends=crash_at),
            checkpoint_interval=rng.choice([0, 7, 25]),
        )
        # The workload may finish before the crash point fires; either way
        # the durable image must recover to exactly the committed prefix.
        try:
            for op, key in ops:
                if op == "insert":
                    tree.insert(key, key + 1)
                else:
                    tree.delete(key)
        except SimulatedCrash:
            pass
        recovered, stats = recover(wal.crash_state(), fresh_tree)
        scrub_tree(recovered)

        replay = build()
        for i, (op, key) in enumerate(ops):
            if i + 1 not in stats.committed_txns:
                continue
            if op == "insert":
                replay.insert(key, key + 1)
            else:
                replay.delete(key)
        assert dict(recovered.items()) == dict(replay.items())
        assert recovered.num_entries == replay.num_entries


class TestMiniDbmsCrashRecovery:
    def test_clean_crash_and_recover(self):
        db = MiniDbms(num_rows=500, page_size=PAGE, index_kind="fp-disk")
        db.enable_wal(checkpoint_interval=50)
        base = max(k for k, __ in db.index.items())
        inserted = [base + 1 + i for i in range(120)]
        for key in inserted:
            db.insert(key)
        stats = db.crash_and_recover()
        assert len(stats.committed_txns) == len(inserted)
        assert not stats.discarded_txns
        assert db.last_recovery is stats
        for key in inserted:
            assert db.lookup(key) is not None
        assert db.wal is None  # logging is off until re-enabled

    def test_crash_point_drops_uncommitted_rows(self):
        db = MiniDbms(num_rows=500, page_size=PAGE, index_kind="fp-disk")
        db.enable_wal(plan=FaultPlan.crash_point(wal_appends=200), checkpoint_interval=25)
        base = max(k for k, __ in db.index.items())
        attempted = []
        with pytest.raises(SimulatedCrash):
            for i in range(400):
                attempted.append(base + 1 + i)
                db.insert(attempted[-1])
        stats = db.crash_and_recover()
        # The crash can land on a COMMIT append itself: the transaction is
        # durable but the client never heard the ack, so committed may equal
        # the attempted count.
        committed = len(stats.committed_txns)
        assert 0 < committed <= len(attempted)
        for key in attempted[:committed]:
            assert db.lookup(key) is not None
        for key in attempted[committed:]:
            assert db.lookup(key) is None
        # The heap dropped the same uncommitted suffix as the index: every
        # surviving index entry can still fetch its row.
        assert db.table.num_rows == 500 + committed
        scan = db.scan(prefetchers=0)
        assert scan.row_count == 500 + committed

    def test_scan_reports_write_path_stats(self):
        db = MiniDbms(num_rows=300, page_size=PAGE, index_kind="fp-disk")
        db.enable_wal(checkpoint_interval=10)
        base = max(k for k, __ in db.index.items())
        for i in range(40):
            db.insert(base + 1 + i)
        stats = db.scan(prefetchers=0)
        assert stats.wal_appends > 0
        assert stats.page_writes > 0
        assert stats.disk_write_us > 0

    def test_enable_wal_twice_raises(self):
        db = MiniDbms(num_rows=200, page_size=PAGE, index_kind="fp-disk")
        db.enable_wal()
        with pytest.raises(RuntimeError):
            db.enable_wal()

    def test_recover_without_wal_raises(self):
        db = MiniDbms(num_rows=200, page_size=PAGE, index_kind="fp-disk")
        with pytest.raises(RuntimeError):
            db.crash_and_recover()
