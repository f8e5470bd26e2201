"""Property-based tests (hypothesis) for the core data structures."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree import chunk_evenly, traced_searchsorted
from repro.btree.context import TreeEnvironment
from repro.btree.trace import Tracer
from repro.core import ExternalJumpPointerArray, LineAllocator
from repro.mem import Cache, MemorySystem, align_up

fast = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- chunk_evenly -------------------------------------------------------------


@fast
@given(total=st.integers(0, 10_000), max_chunk=st.integers(1, 500))
def test_chunk_evenly_partitions(total, max_chunk):
    sizes = chunk_evenly(total, max_chunk)
    assert sum(sizes) == total
    assert all(1 <= s <= max_chunk for s in sizes)
    if sizes:
        assert max(sizes) - min(sizes) <= 1  # balanced


# -- traced binary search matches numpy ----------------------------------------


@fast
@given(
    values=st.lists(st.integers(0, 1000), min_size=0, max_size=80),
    key=st.integers(0, 1000),
    side=st.sampled_from(["left", "right"]),
)
def test_traced_searchsorted_matches_numpy(values, key, side):
    keys = np.array(sorted(values), dtype=np.uint32)
    mem = MemorySystem()
    tracer = Tracer(mem)
    got = traced_searchsorted(keys, len(keys), key, 4096, 4, tracer, side=side)
    assert got == int(np.searchsorted(keys, key, side=side))


@fast
@given(
    values=st.lists(st.integers(0, 1000), min_size=0, max_size=80),
    count=st.integers(0, 80),
    key=st.integers(0, 1000),
    side=st.sampled_from(["left", "right"]),
)
def test_untraced_searchsorted_matches_numpy_prefix(values, count, key, side):
    """Without a tracer the search runs in numpy over ``keys[:count]`` only."""
    keys = np.array(sorted(values) + [0] * 8, dtype=np.uint32)  # stale tail
    count = min(count, len(values))
    got = traced_searchsorted(keys, count, key, 4096, 4, side=side)
    assert type(got) is int
    assert got == int(np.searchsorted(keys[:count], key, side=side))


# -- LineAllocator ----------------------------------------------------------------


@fast
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 5), st.integers(0, 63)),
        max_size=60,
    )
)
def test_line_allocator_never_overlaps(operations):
    allocator = LineAllocator(64)
    live: list[tuple[int, int]] = []
    for op, width, hint in operations:
        if op == "alloc":
            line = allocator.alloc(width, hint=hint)
            if line is not None:
                for other_line, other_width in live:
                    assert line + width <= other_line or other_line + other_width <= line
                assert 1 <= line and line + width <= 64
                live.append((line, width))
        elif live:
            line, width = live.pop()
            allocator.free(line, width)
    assert allocator.free_lines == 63 - sum(w for __, w in live)


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(2, 40),
    reserved=st.integers(1, 3),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(1, 12), st.integers(-2, 45)),
        max_size=40,
    ),
)
def test_line_allocator_matches_list_scan_reference(total, reserved, steps):
    """First-fit order is the old list scan's: ``hint`` to the end, then
    wrap from the first non-reserved line."""
    reserved = min(reserved, total - 1)
    allocator = LineAllocator(total, reserved)
    used = [1] * reserved + [0] * (total - reserved)
    live: list[tuple[int, int]] = []
    for is_alloc, width, hint in steps:
        if is_alloc or not live:
            start = max(reserved, hint)
            order = list(range(start, total - width + 1)) + list(
                range(reserved, min(start, total - width + 1))
            )
            expected = next((c for c in order if not any(used[c : c + width])), None)
            if expected is not None:
                used[expected : expected + width] = [1] * width
                live.append((expected, width))
            assert allocator.alloc(width, hint) == expected
        else:
            line, width = live.pop(hint % len(live))
            used[line : line + width] = [0] * width
            allocator.free(line, width)
        assert list(allocator._used) == used
        assert allocator.free_lines == used.count(0)


# -- Cache LRU model ---------------------------------------------------------------


@fast
@given(accesses=st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_cache_matches_reference_lru(accesses):
    assoc, num_sets = 2, 4
    cache = Cache(size_bytes=64 * assoc * num_sets, line_size=64, associativity=assoc)
    reference = [[] for __ in range(num_sets)]  # per-set LRU lists (MRU last)
    for line in accesses:
        cache_set = reference[line % num_sets]
        hit = line in cache_set
        assert cache.contains(line) == hit
        if hit:
            cache_set.remove(line)
        cache.insert(line)
        cache_set.append(line)
        if len(cache_set) > assoc:
            cache_set.pop(0)
    for line in range(31):
        assert cache.contains(line) == (line in reference[line % num_sets])


# -- align_up ----------------------------------------------------------------------


@fast
@given(value=st.integers(0, 1 << 30), shift=st.integers(0, 12))
def test_align_up_properties(value, shift):
    alignment = 1 << shift
    aligned = align_up(value, alignment)
    assert aligned % alignment == 0
    assert 0 <= aligned - value < alignment


# -- external jump-pointer array ------------------------------------------------------


@fast
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=30, unique=True),
    insertions=st.lists(st.tuples(st.integers(0, 29), st.integers(20_000, 30_000)), max_size=40),
)
def test_jump_pointer_array_matches_list(seeds, insertions):
    jpa = ExternalJumpPointerArray(chunk_capacity=4)
    jpa.build(seeds)
    reference = list(seeds)
    next_id = 100_000
    for position, __ in insertions:
        left = reference[position % len(reference)]
        jpa.insert_after(left, next_id)
        reference.insert(reference.index(left) + 1, next_id)
        next_id += 1
    assert jpa.to_list() == reference
    # iter_from any element yields the proper suffix.
    probe = reference[len(reference) // 2]
    assert list(jpa.iter_from(probe)) == reference[reference.index(probe) :]


# -- index invariants under random workloads --------------------------------------------


def _ops_strategy():
    return st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "search"]), st.integers(1, 400)),
        min_size=1,
        max_size=120,
    )


def _check_index_against_dict(make_index, operations):
    index = make_index()
    reference: dict[int, int] = {}
    for op, key in operations:
        if op == "insert":
            if key not in reference:
                index.insert(key, key + 1)
                reference[key] = key + 1
        elif op == "delete":
            assert index.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert index.search(key) == reference.get(key)
    assert index.num_entries == len(reference)
    assert list(index.items()) == sorted(reference.items())
    index.validate()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops_strategy())
def test_disk_btree_random_ops(operations):
    from repro.baselines import DiskBPlusTree

    _check_index_against_dict(
        lambda: DiskBPlusTree(TreeEnvironment(page_size=512, buffer_pages=128)), operations
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops_strategy())
def test_micro_index_random_ops(operations):
    from repro.baselines import MicroIndexTree

    _check_index_against_dict(
        lambda: MicroIndexTree(TreeEnvironment(page_size=1024, buffer_pages=128)), operations
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops_strategy())
def test_disk_first_fp_tree_random_ops(operations):
    from repro.core import DiskFirstFpTree

    _check_index_against_dict(
        lambda: DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=128)), operations
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops_strategy())
def test_cache_first_fp_tree_random_ops(operations):
    from repro.core import CacheFirstFpTree

    _check_index_against_dict(
        lambda: CacheFirstFpTree(
            TreeEnvironment(page_size=1024, buffer_pages=128), num_keys_hint=10_000
        ),
        operations,
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops_strategy())
def test_pbtree_random_ops(operations):
    from repro.baselines import PrefetchingBPlusTree

    _check_index_against_dict(lambda: PrefetchingBPlusTree(width_lines=2), operations)


# -- faults only cost time, never correctness ----------------------------------------------


def _des_leaf_scan(index, plan):
    """Scan an index's leaf pages through the DES reader; returns the entry total."""
    from repro.des import Environment
    from repro.faults import FaultInjector
    from repro.storage import AsyncPageReader, BufferPool, DiskArray, RetryPolicy, StorageConfig

    leaf_pids = index.leaf_page_ids()
    store = index.env.store
    config = StorageConfig(
        page_size=store.page_size,
        num_disks=2,
        buffer_pool_pages=len(leaf_pids) + 8,
    )
    env = Environment()
    injector = FaultInjector(plan) if plan is not None else None
    disks = DiskArray(env, config, injector=injector, mirrored=True)
    pool = BufferPool(config, store)
    policy = RetryPolicy(max_attempts=8) if plan is not None else None
    reader = AsyncPageReader(env, disks, pool, policy=policy, seed=plan.seed if plan else 0)
    total = 0

    def scanner():
        nonlocal total
        for pid in leaf_pids:
            yield from reader.demand(pid)
            total += store.page(pid).count

    env.run(until=env.process(scanner()))
    return total


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(1, 400)),
        min_size=1,
        max_size=80,
    ),
    fault_seed=st.integers(0, 7),
)
def test_faulty_scan_preserves_tree_invariants_and_results(operations, fault_seed):
    """Random workloads + a nonzero fault plan: faults cost time, never answers."""
    from repro.baselines import DiskBPlusTree
    from repro.faults import DiskFaultProfile, FaultPlan

    index = DiskBPlusTree(TreeEnvironment(page_size=512, buffer_pages=128))
    reference: dict[int, int] = {}
    for op, key in operations:
        if op == "insert":
            if key not in reference:
                index.insert(key, key + 1)
                reference[key] = key + 1
        else:
            index.delete(key)
            reference.pop(key, None)
    index.validate()
    before_items = list(index.items())

    plan = FaultPlan(
        seed=fault_seed,
        default=DiskFaultProfile(corrupt_rate=0.1, timeout_rate=0.05),
    )
    faulty_total = _des_leaf_scan(index, plan)
    clean_total = _des_leaf_scan(index, None)
    assert faulty_total == clean_total == index.num_entries

    # The faulty scan left the tree structurally intact and its answers unchanged.
    index.validate()
    assert list(index.items()) == before_items
    assert before_items == sorted(reference.items())


# -- scan consistency across implementations -----------------------------------------------


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(10, 400),
    bounds=st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
)
def test_all_indexes_agree_on_scans(n, bounds):
    from repro.baselines import DiskBPlusTree, MicroIndexTree
    from repro.core import CacheFirstFpTree, DiskFirstFpTree

    keys = list(range(5, 5 + 4 * n, 4))
    tids = [k * 3 for k in keys]
    lo, hi = min(bounds), max(bounds)
    results = set()
    for factory in (
        lambda: DiskBPlusTree(TreeEnvironment(page_size=512, buffer_pages=128)),
        lambda: MicroIndexTree(TreeEnvironment(page_size=1024, buffer_pages=128)),
        lambda: DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=128)),
        lambda: CacheFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=128), num_keys_hint=10_000),
    ):
        index = factory()
        index.bulkload(keys, tids, fill=0.9)
        results.add(index.range_scan(lo, hi))
    assert len(results) == 1  # every structure returns the identical answer
