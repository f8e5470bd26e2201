"""Tests for the mini DBMS (heap table + index-only scans)."""

import numpy as np
import pytest

from repro.dbms import DEFAULT_SCHEMA, HeapTable, MiniDbms
from repro.des import Environment
from repro.storage import PageStore
from repro.storage.pager import page_checksum
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import DiskArray
from repro.storage.prefetch import AsyncPageReader
from repro.workloads.generator import KeyWorkload


class TestHeapTable:
    def test_schema_row_size_matches_paper(self):
        # (int, int, char(20), int, char(512)) = 544 bytes.
        assert DEFAULT_SCHEMA.row_bytes == 544

    def test_insert_and_fetch(self):
        store = PageStore(16384)
        table = HeapTable(store)
        tids = [table.insert_row(k, k * 2, k * 3) for k in range(100)]
        assert table.fetch(tids[42]) == (42, 84, 126)
        assert table.num_rows == 100

    def test_rows_per_page(self):
        store = PageStore(16384)
        table = HeapTable(store)
        assert table.rows_per_page == (16384 - 64) // 544

    def test_pages_allocated_on_demand(self):
        store = PageStore(16384)
        table = HeapTable(store)
        per_page = table.rows_per_page
        for k in range(per_page + 1):
            table.insert_row(k, 0, 0)
        assert table.num_pages == 2

    def test_fetch_invalid_tid(self):
        store = PageStore(16384)
        table = HeapTable(store)
        table.insert_row(1, 2, 3)
        with pytest.raises(KeyError):
            table.fetch(9999)

    def test_rows_iterator_matches_inserts(self):
        store = PageStore(16384)
        table = HeapTable(store)
        for k in range(50):
            table.insert_row(k, k + 1, k + 2)
        rows = list(table.rows())
        assert len(rows) == 50
        assert rows[10] == (10, 10, 11, 12)

    def test_append_rows_matches_row_by_row_inserts(self):
        """Same pages, slots and tuple ids, also onto a part-filled tail."""
        bulk, single = HeapTable(PageStore(4096)), HeapTable(PageStore(4096))
        for table in (bulk, single):
            table.insert_row(1, 2, 3)
        k1 = np.arange(100, 100 + 3 * bulk.rows_per_page + 2)
        bulk.append_rows(k1, k1 * 2, k1 % 7)
        for key in k1.tolist():
            single.insert_row(key, key * 2, key % 7)
        assert list(bulk.rows()) == list(single.rows())
        assert bulk.page_ids() == single.page_ids() and bulk.num_rows == single.num_rows
        assert all(bulk.store.verify_checksum(pid) for pid in bulk.page_ids())


def row_by_row_table(num_rows, seed, page_size, key_range=None):
    """The heap table built one row and one payload draw at a time."""
    table = HeapTable(PageStore(page_size))
    rng = np.random.default_rng(seed + 1)
    keys, __ = KeyWorkload(num_rows, seed=seed).bulkload_arrays()
    lo, hi = key_range if key_range is not None else (None, None)
    for key in keys.tolist():
        value = int(rng.integers(0, 1 << 31))
        if (lo is None or key >= lo) and (hi is None or key < hi):
            table.insert_row(key, value, key % 997)
    return list(table.rows())


@pytest.mark.parametrize(
    "mature,key_range",
    [
        (True, None),
        (False, None),
        (False, (None, 3000)),
        (False, (2000, 6000)),
        (False, (5000, None)),
    ],
)
def test_bulk_heap_build_matches_row_by_row(mature, key_range):
    db = MiniDbms(
        num_rows=3000, num_disks=2, page_size=4096, seed=11, mature=mature, key_range=key_range
    )
    expected = row_by_row_table(3000, 11, 4096, key_range)
    assert list(db.table.rows()) == expected
    assert [row[1] for row in expected] == db.stored_keys.tolist()


class TestBulkHeapBuild:
    """``append_rows`` fills column blocks and stores each new page once."""

    def bulk(self, rows, page_size=4096, prefix=0):
        table = HeapTable(PageStore(page_size))
        assert table.rows_per_page == 7  # the tests below count in 7-row pages
        for key in range(prefix):
            table.insert_row(key, key + 1, key + 2)
        k1 = np.arange(1000, 1000 + rows)
        table.append_rows(k1, k1 * 2, k1 % 7)
        return table

    def test_writing_one_page_leaves_its_neighbours(self):
        table = self.bulk(5 * 7 + 3)
        before = list(table.rows())
        middle = table.store.page(table.page_ids()[2])
        middle.k1[:] = 0
        middle.k3[1] = 99
        after = list(table.rows())
        changed = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
        assert changed == list(range(2 * 7, 3 * 7))

    def test_insert_row_continues_a_bulk_built_tail(self):
        table = self.bulk(2 * 7 + 3)
        assert table.num_pages == 3
        tids = [table.insert_row(k, k, k) for k in range(5)]
        assert tids == list(range(2 * 7 + 3, 2 * 7 + 8))
        assert table.num_pages == 4
        assert [row[1] for row in table.rows()][-5:] == list(range(5))
        assert all(table.store.verify_checksum(pid) for pid in table.page_ids())

    def test_each_new_page_has_its_own_token_and_a_good_checksum(self):
        table = self.bulk(6 * 7 + 1)
        store = table.store
        tokens = [store.write_token(pid) for pid in table.page_ids()]
        assert len(set(tokens)) == len(tokens)
        assert all(store.verify_checksum(pid) for pid in table.page_ids())
        assert all(
            store.expected_checksum(pid) == page_checksum(pid, store.write_token(pid))
            for pid in table.page_ids()
        )

    @pytest.mark.parametrize("prefix,rows", [(0, 20), (3, 20), (7, 20), (3, 2), (0, 0), (3, 0)])
    def test_write_counter_counts_new_pages_and_a_topped_up_tail(self, prefix, rows):
        table = self.bulk(0, prefix=prefix)
        pages_before, counter = table.num_pages, table.store._write_counter
        k1 = np.arange(rows)
        table.append_rows(k1, k1, k1)
        topped_up = prefix % 7 != 0 and rows > 0
        new_pages = table.num_pages - pages_before
        assert table.store._write_counter - counter == new_pages + topped_up
        assert table.num_rows == prefix + rows

    def test_bulk_build_under_a_write_observer_is_refused(self):
        table = HeapTable(PageStore(4096))
        table.store.write_observer = lambda event, pid: None
        with pytest.raises(RuntimeError):
            table.append_rows([1], [2], [3])


def test_one_workload_serves_the_build_and_the_query_generators():
    db = MiniDbms(num_rows=2000, num_disks=2, page_size=4096, seed=5, mature=False)
    fresh = KeyWorkload(2000, seed=5)
    assert np.array_equal(db._workload.keys, fresh.keys)
    assert np.array_equal(db._workload.search_keys(50), fresh.search_keys(50))
    for got, want in zip(db._workload.insert_keys(30), fresh.insert_keys(30)):
        assert np.array_equal(got, want)


class TestMiniDbms:
    @pytest.fixture(scope="class")
    def db(self):
        return MiniDbms(num_rows=20_000, num_disks=8, seed=3)

    def test_count_star_counts_every_row(self, db):
        stats = db.scan()
        assert stats.row_count == 20_000

    def test_in_memory_floor_is_fastest(self, db):
        plain = db.scan(prefetchers=0)
        warm = db.scan(in_memory=True)
        assert warm.elapsed_us < plain.elapsed_us
        assert warm.disk_reads == 0

    def test_prefetchers_speed_up_scan(self, db):
        plain = db.scan(prefetchers=0)
        fetched = db.scan(prefetchers=8)
        assert fetched.elapsed_us < plain.elapsed_us
        assert fetched.row_count == plain.row_count

    def test_more_prefetchers_monotone_improvement(self, db):
        times = [db.scan(prefetchers=n).elapsed_us for n in (1, 4, 8)]
        assert times[2] <= times[0]

    def test_smp_parallelism_speeds_up(self, db):
        serial = db.scan(smp_degree=1, prefetchers=4)
        parallel = db.scan(smp_degree=4, prefetchers=4)
        assert parallel.elapsed_us < serial.elapsed_us
        assert parallel.row_count == serial.row_count

    def test_prefetch_approaches_in_memory(self, db):
        warm = db.scan(in_memory=True, smp_degree=2)
        fetched = db.scan(prefetchers=12, smp_degree=2)
        plain = db.scan(prefetchers=0, smp_degree=2)
        # The prefetched scan lands much closer to the floor than to plain.
        assert fetched.elapsed_us - warm.elapsed_us < (plain.elapsed_us - warm.elapsed_us) / 2

    def test_lookup_through_index(self, db):
        workload_key = int(db._workload.keys[123])
        row = db.lookup(workload_key)
        assert row is not None
        assert row[0] == workload_key

    def test_invalid_parameters(self, db):
        with pytest.raises(ValueError):
            db.scan(smp_degree=0)
        with pytest.raises(ValueError):
            db.scan(prefetchers=-1)


class TestIndexKinds:
    @pytest.mark.parametrize("kind", ["disk", "micro", "fp-disk", "fp-cache"])
    def test_count_star_correct_with_any_index(self, kind):
        db = MiniDbms(num_rows=5000, num_disks=4, seed=2, mature=False, index_kind=kind)
        stats = db.scan(smp_degree=2, prefetchers=2)
        assert stats.row_count == 5000

    def test_standard_btree_also_benefits_from_prefetchers(self):
        """The paper's DB2 experiment used standard B+-Trees (Section 4.3.3)."""
        db = MiniDbms(num_rows=20_000, num_disks=8, seed=2, index_kind="disk", page_size=4096)
        plain = db.scan(prefetchers=0)
        fetched = db.scan(prefetchers=8)
        assert fetched.elapsed_us < plain.elapsed_us

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(ValueError):
            MiniDbms(num_rows=100, index_kind="btree-9000")


# -- the leaf map -------------------------------------------------------------


def parent_rule_firsts(db):
    """First keys by the in-order walk, 0 for an empty page."""
    firsts = []
    for pid in db.index.leaf_page_ids():
        nodes = [node for node in db.store.page(pid).leaf_nodes_in_order() if node.count]
        firsts.append(int(nodes[0].keys[0]) if nodes else 0)
    return firsts


def test_leaf_key_map_unchanged_without_empty_pages():
    db = MiniDbms(num_rows=6000, num_disks=2, page_size=4096, seed=4)
    for key in range(1, 4000, 7):
        db.insert(key)
    assert db.index.page_splits > 0
    firsts, pids = db.leaf_key_map()
    assert pids == db.index.leaf_page_ids()
    assert firsts.dtype == np.int64 and firsts.tolist() == parent_rule_firsts(db)


def scan_leaves(db, start_key, end_key):
    """(count, leaf pages demanded) of one served scan on a cold pool."""
    env = Environment()
    config = StorageConfig(
        page_size=db.page_size, num_disks=db.num_disks, buffer_pool_pages=64, disk=db.disk_params
    )
    reader = AsyncPageReader(env, DiskArray(env, config), BufferPool(config, db.store))
    demanded = []
    demand = reader.demand

    def recording_demand(pid, *args, **kwargs):
        demanded.append(pid)
        return (yield from demand(pid, *args, **kwargs))

    reader.demand = recording_demand
    count = env.run(until=env.process(db.serve_scan(reader, start_key, end_key)))
    leaves = set(db.index.leaf_page_ids())
    return count, [pid for pid in demanded if pid in leaves]


def test_emptied_leaf_page_keeps_the_leaf_map_sorted():
    """Deletes are lazy, so a leaf page can empty out and stay in the chain.

    Its routing key used to be 0, which unsorted the map and sent every
    scan starting left of the page to the empty page.
    """
    db = MiniDbms(num_rows=8000, num_disks=2, page_size=4096, seed=6, mature=False)
    pids = db.index.leaf_page_ids()
    middle = len(pids) // 2
    page = db.store.page(pids[middle])
    for node in page.leaf_nodes_in_order():
        for key in node.keys[: node.count].tolist():
            assert db.delete(key)
    assert page.total == 0 and db.index.leaf_page_ids() == pids
    in_order = parent_rule_firsts(db)
    before, after = in_order[middle - 1], in_order[middle + 1]
    firsts, map_pids = db.leaf_key_map()
    assert map_pids == pids
    assert np.all(np.diff(firsts) >= 0)
    assert firsts[middle] == after  # the successor's first key
    cases = [
        (before + 1, after + 1, pids[middle - 1 : middle + 2]),  # starts just left of it
        (int(firsts[1]) + 1, after, pids[1 : middle + 2]),  # starts further left
        (before, before + 2, pids[middle - 1 : middle]),  # ends before it
        (after, after + 5, pids[middle + 1 : middle + 2]),  # starts right of it
    ]
    for start, end, expected in cases:
        count, leaves = scan_leaves(db, start, end)
        assert leaves == expected, (start, end)
        assert count == db.index.range_scan(start, end).count
