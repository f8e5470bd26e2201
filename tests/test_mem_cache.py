"""Unit tests for the set-associative cache model."""

import pytest

from repro.mem import Cache, MemorySystem


def test_miss_then_hit():
    cache = Cache(size_bytes=1024, line_size=64, associativity=2)
    assert not cache.contains(3)
    assert cache.insert(3) is None  # a free way: nothing evicted
    assert cache.contains(3)
    assert cache.resident_lines() == 1


def test_lru_eviction_within_set():
    # 2 sets, 2-way: lines with the same parity map to the same set.
    cache = Cache(size_bytes=256, line_size=64, associativity=2)
    assert cache.num_sets == 2
    cache.insert(0)
    cache.insert(2)
    victim = cache.insert(4)  # set 0 full -> evict LRU (line 0)
    assert victim == 0
    assert not cache.contains(0)
    assert cache.contains(2)
    assert cache.contains(4)


def test_reinsert_refreshes_lru_order():
    cache = Cache(size_bytes=256, line_size=64, associativity=2)
    cache.insert(0)
    cache.insert(2)
    cache.insert(0)  # 0 becomes MRU, so 2 is the next victim
    victim = cache.insert(4)
    assert victim == 2
    assert cache.contains(0)


def test_direct_mapped_conflicts():
    cache = Cache(size_bytes=256, line_size=64, associativity=1)
    assert cache.num_sets == 4
    cache.insert(1)
    victim = cache.insert(5)  # 1 and 5 conflict in a 4-set direct-mapped cache
    assert victim == 1
    assert cache.contains(5)


def test_insert_existing_line_is_not_eviction():
    cache = Cache(size_bytes=256, line_size=64, associativity=2)
    cache.insert(0)
    assert cache.insert(0) is None
    assert cache.resident_lines() == 1


def test_contains_does_not_count():
    """A residency probe is not an access: prefetch_run's L1 check counts
    nothing in MemoryStats and leaves the LRU order alone."""
    cache = Cache(size_bytes=256, line_size=64, associativity=2)
    cache.insert(1)
    cache.insert(3)
    assert cache.contains(1)
    assert cache.insert(5) == 1  # 1 is still the LRU victim
    mem = MemorySystem()
    mem.read_run(0, 4)
    mem.prefetch_run(0, 4)  # L1-resident: probed, not counted
    assert (mem.stats.accesses, mem.stats.l1_hits) == (1, 0)


def test_evicted_line_is_gone():
    cache = Cache(size_bytes=256, line_size=64, associativity=2)
    cache.insert(9)
    cache.insert(11)
    assert cache.insert(13) == 9  # set 1 full: 9 is the LRU victim
    assert not cache.contains(9)
    assert cache.insert(9) == 11  # re-installing 9 evicts the next LRU


def test_clear_preserves_counters():
    mem = MemorySystem()
    mem.read_run(0, 4)  # one counted L1 miss (a memory fetch), then an install
    mem.clear_caches()
    assert mem.l1.resident_lines() == 0
    assert (mem.stats.accesses, mem.stats.l1_hits, mem.stats.memory_fetches) == (1, 0, 1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Cache(size_bytes=100, line_size=64, associativity=2)
    with pytest.raises(ValueError):
        Cache(size_bytes=256, line_size=64, associativity=0)


def test_full_capacity():
    cache = Cache(size_bytes=64 * 16, line_size=64, associativity=4)
    for line in range(16):
        cache.insert(line)
    assert cache.resident_lines() == 16
    for line in range(16):
        assert cache.contains(line)
