"""Unit tests for the storage substrate: page store, buffer pool, disk array."""

import pytest

from repro.des import Environment
from repro.mem import AddressSpace, MemorySystem
from repro.storage import (
    AsyncPageReader,
    BufferPool,
    BufferPoolExhausted,
    DiskArray,
    DiskParameters,
    PageStore,
    StorageConfig,
)


class FakePage:
    def __init__(self, label):
        self.label = label


# -- PageStore -----------------------------------------------------------------


def test_page_store_allocates_dense_ids():
    store = PageStore(page_size=4096)
    ids = [store.allocate(FakePage(i)) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    assert store.num_pages == 5


def test_page_store_free_and_reuse():
    store = PageStore(page_size=4096)
    first = store.allocate(FakePage("a"))
    store.free(first)
    assert store.num_pages == 0
    second = store.allocate(FakePage("b"))
    assert second == first  # id recycled
    assert store.page(second).label == "b"


def test_page_store_errors_on_bad_ids():
    store = PageStore(page_size=4096)
    with pytest.raises(KeyError):
        store.page(0)
    with pytest.raises(KeyError):
        store.free(3)


def test_page_store_replace():
    store = PageStore(page_size=4096)
    pid = store.allocate(FakePage("old"))
    store.replace(pid, FakePage("new"))
    assert store.page(pid).label == "new"


def test_page_store_total_bytes():
    store = PageStore(page_size=8192)
    store.allocate(FakePage(0))
    store.allocate(FakePage(1))
    assert store.total_bytes == 16384


# -- BufferPool -----------------------------------------------------------------


def make_pool(frames=4, mem=None):
    config = StorageConfig(page_size=4096, buffer_pool_pages=frames)
    store = PageStore(config.page_size)
    pool = BufferPool(config, store, mem=mem)
    return config, store, pool


def test_buffer_pool_hit_and_miss_counting():
    __, store, pool = make_pool()
    pid = store.allocate(FakePage("x"))
    pool.access(pid)
    pool.access(pid)
    assert pool.misses == 1
    assert pool.hits == 1


def test_buffer_pool_clock_eviction():
    __, store, pool = make_pool(frames=2)
    pids = [store.allocate(FakePage(i)) for i in range(3)]
    pool.access(pids[0])
    pool.access(pids[1])
    pool.access(pids[2])  # must evict one of the first two
    assert pool.resident_pages == 2
    assert pool.contains(pids[2])


def test_buffer_pool_clock_second_chance():
    """A page with its reference bit set survives over one with it clear."""
    __, store, pool = make_pool(frames=2)
    a, b, c, d = [store.allocate(FakePage(i)) for i in range(4)]
    pool.access(a)
    pool.access(b)
    # Installing c sweeps the clock: clears both ref bits, evicts a, and
    # leaves c with its bit set while b's bit is clear.
    pool.access(c)
    assert not pool.contains(a)
    # The next eviction must pick b (clear bit), giving c its second chance.
    pool.access(d)
    assert pool.contains(c)
    assert not pool.contains(b)


def test_buffer_pool_pinned_page_not_evicted():
    __, store, pool = make_pool(frames=2)
    a, b, c = [store.allocate(FakePage(i)) for i in range(3)]
    with pool.pinned(a):
        pool.access(b)
        pool.access(c)  # must evict b, not pinned a
        assert pool.contains(a)


def test_buffer_pool_all_pinned_raises():
    __, store, pool = make_pool(frames=1)
    a = store.allocate(FakePage("a"))
    b = store.allocate(FakePage("b"))
    with pool.pinned(a):
        with pytest.raises(RuntimeError):
            pool.access(b)


def test_buffer_pool_clear_resets_residency():
    __, store, pool = make_pool()
    pid = store.allocate(FakePage("x"))
    pool.access(pid)
    pool.clear()
    assert not pool.contains(pid)
    pool.access(pid)
    assert pool.misses == 2


def test_buffer_pool_invalidate():
    __, store, pool = make_pool()
    pid = store.allocate(FakePage("x"))
    pool.access(pid)
    pool.invalidate(pid)
    assert not pool.contains(pid)


def pool_state(pool):
    return (
        pool.hits, pool.misses, list(pool._frame_page), bytes(pool._ref_bit),
        list(pool._pin_count), pool._hand,
    )


def test_pin_has_the_side_effects_of_pinned():
    # pin()/unpin() are what pinned() wraps: the same access (hit or miss,
    # CLOCK reference bit, eviction) and the same pin bookkeeping.
    __, store_a, explicit = make_pool(frames=2)
    __, store_b, wrapped = make_pool(frames=2)
    for store in (store_a, store_b):
        for i in range(4):
            store.allocate(FakePage(i))
    for pid in (0, 1, 0, 2, 3, 2):
        token = explicit.pin(pid, owner="s#1")
        with wrapped.pinned(pid, owner="s#1") as page:
            assert page is store_b.page(pid)
            assert pool_state(explicit) == pool_state(wrapped)
        explicit.unpin(pid, token, owner="s#1")
        assert pool_state(explicit) == pool_state(wrapped)
    assert explicit._pin_count == [0, 0]
    assert explicit._pin_owners == [[], []]


class ClockModel:
    """The CLOCK rule every pool access follows, written out as a reference.

    A hit counts and sets the frame's reference bit; a miss counts, sweeps
    the hand past (and clears) set bits, installs into the first clear
    frame with its bit set and renews that frame's occupancy stamp.  No
    pins: the accesses compared against it leave none behind.
    """

    def __init__(self, frames):
        self.pages = [-1] * frames
        self.ref = [0] * frames
        self.gen = [0] * frames
        self.hand = self.occupancy = self.hits = self.misses = 0

    def access(self, pid):
        if pid in self.pages:
            frame = self.pages.index(pid)
            self.hits += 1
        else:
            self.misses += 1
            while self.ref[self.hand]:
                self.ref[self.hand] = 0
                self.hand = (self.hand + 1) % len(self.pages)
            frame = self.hand
            self.hand = (self.hand + 1) % len(self.pages)
            self.pages[frame] = pid
            self.occupancy += 1
            self.gen[frame] = self.occupancy
        self.ref[frame] = 1
        return frame

    def state(self):
        return (
            self.hits, self.misses, self.pages, bytes(self.ref), self.hand,
            self.gen, self.occupancy,
        )


def clock_state(pool):
    assert pool._pin_count == [0] * len(pool._pin_count)
    return (
        pool.hits, pool.misses, list(pool._frame_page), bytes(pool._ref_bit), pool._hand,
        list(pool._frame_gen), pool._occupancy,
    )


#: On two frames: misses, evicting misses, and two hits on pages whose
#: reference bit a sweep had cleared (so a hit that skips the bit shows).
CLOCK_SEQUENCE = (0, 1, 2, 1, 3, 2, 0, 2)


@pytest.mark.parametrize("with_mem", [False, True])
@pytest.mark.parametrize("call", ["touch", "access"])
def test_touch_and_access_follow_the_clock_rule(call, with_mem):
    # touch() is the one place a pool access is accounted and access() is
    # touch() plus its (page, address) result: both count hits and misses,
    # set reference bits, move the CLOCK hand and renew occupancy stamps by
    # the reference rule, and charge the busy time once per call.
    mem = MemorySystem() if with_mem else None
    __, store, pool = make_pool(frames=2, mem=mem)
    for i in range(4):
        store.allocate(FakePage(i))
    model = ClockModel(2)
    for pid in CLOCK_SEQUENCE:
        frame = model.access(pid)
        if call == "touch":
            assert pool.touch(pid) == frame
        else:
            assert pool.access(pid) == (store.page(pid), pool.frame_address(frame))
        assert clock_state(pool) == model.state()
    assert (pool.hits, pool.misses) == (2, 6)
    if with_mem:
        assert mem.stats.busy_cycles == len(CLOCK_SEQUENCE) * mem.cpu.buffer_pool_access


def test_pin_touches_the_pool_by_the_clock_rule():
    # A pin is one pool access plus the pin bookkeeping, nothing else.
    __, store, pool = make_pool(frames=2)
    for i in range(4):
        store.allocate(FakePage(i))
    model = ClockModel(2)
    for pid in CLOCK_SEQUENCE:
        model.access(pid)
        pool.unpin(pid, pool.pin(pid, owner="s#1"), owner="s#1")
        assert clock_state(pool) == model.state()
    assert pool._pin_owners == [[], []]


def test_unpin_keeps_the_generation_stamp():
    # An invalidate plus a reinstall of the same page into the same frame
    # while pinned must not let the old token steal the newer pin.
    __, store, pool = make_pool(frames=1)
    a = store.allocate(FakePage("a"))
    b = store.allocate(FakePage("b"))
    stale = pool.pin(a, owner="old")
    pool.invalidate(a)
    frame = pool.install(a)
    fresh = pool.pin(a, owner="new")
    assert fresh != stale
    pool.unpin(a, stale, owner="old")
    assert pool._pin_count[frame] == 1
    assert pool._pin_owners[frame] == ["new"]
    with pytest.raises(BufferPoolExhausted):
        pool.access(b)
    pool.unpin(a, fresh, owner="new")
    assert pool._pin_count[frame] == 0
    pool.access(b)
    assert pool.contains(b)


def test_pin_tokens_are_unique_across_frames():
    # A token names one occupancy of one frame: after any mix of installs,
    # evictions and invalidations no two frames carry the same stamp, so a
    # stale token can never match a page that moved to another frame.
    __, store, pool = make_pool(frames=3)
    pids = [store.allocate(FakePage(i)) for i in range(5)]
    for pid in (0, 1, 2, 3, 0, 4, 1):
        pool.unpin(pids[pid], pool.pin(pids[pid]))
        if pid == 3:
            pool.invalidate(pids[0])
    assert pool._pin_count == [0, 0, 0]
    assert len(set(pool._frame_gen)) == 3
    stale = pool.pin(pids[1])
    pool.invalidate(pids[1])
    pool.access(pids[1])
    fresh = pool.pin(pids[1])
    pool.unpin(pids[1], stale)
    assert pool._pin_count[pool.frame_of(pids[1])] == 1
    pool.unpin(pids[1], fresh)
    assert pool._pin_count == [0, 0, 0]


def test_pin_owners_appear_in_pin_holders():
    __, store, pool = make_pool(frames=2)
    a, b, c = (store.allocate(FakePage(i)) for i in range(3))
    token_a = pool.pin(a, owner="session-a#1")
    pool.pin(b, owner="session-b#2")
    pool.pin(b, owner="session-c#3")
    with pytest.raises(BufferPoolExhausted) as excinfo:
        pool.access(c)
    assert excinfo.value.pin_holders == {
        a: ("session-a#1",), b: ("session-b#2", "session-c#3"),
    }
    assert excinfo.value.pinned_pages == {a: 1, b: 2}
    pool.unpin(a, token_a, owner="session-a#1")
    pool.access(c)  # a's frame is free again
    assert not pool.contains(a)


def test_buffer_pool_frame_addresses_are_page_strided():
    mem = MemorySystem()
    config = StorageConfig(page_size=4096, buffer_pool_pages=4)
    store = PageStore(config.page_size)
    pool = BufferPool(config, store, mem=mem, address_space=AddressSpace())
    pids = [store.allocate(FakePage(i)) for i in range(4)]
    addresses = set()
    for pid in pids:
        __, address = pool.access(pid)
        addresses.add(address)
    assert len(addresses) == 4
    sorted_addresses = sorted(addresses)
    deltas = {b - a for a, b in zip(sorted_addresses, sorted_addresses[1:])}
    assert deltas == {4096}


def test_buffer_pool_charges_busy_time():
    mem = MemorySystem()
    __, store, pool = make_pool(mem=mem)
    pid = store.allocate(FakePage("x"))
    pool.access(pid)
    assert mem.stats.busy_cycles == mem.cpu.buffer_pool_access


def test_buffer_pool_access_unknown_page_raises():
    __, __, pool = make_pool()
    with pytest.raises(KeyError):
        pool.access(99)


# -- DiskArray ------------------------------------------------------------------


def timing_config(num_disks=1, page_size=4096):
    return StorageConfig(
        page_size=page_size,
        num_disks=num_disks,
        buffer_pool_pages=64,
        disk=DiskParameters(
            seek_time_us=5000,
            rotational_latency_us=3000,
            track_to_track_us=1000,
            transfer_rate_bytes_per_us=40.0,
        ),
    )


def test_single_random_read_time():
    env = Environment()
    config = timing_config()
    array = DiskArray(env, config)
    done = array.read_page(0)
    env.run(until=done)
    # seek + rotation + transfer of 4096 bytes at 40 B/us
    assert env.now == pytest.approx(5000 + 3000 + 4096 / 40.0)


def test_sequential_read_is_cheap():
    env = Environment()
    config = timing_config()
    array = DiskArray(env, config)

    def scan():
        yield array.read_page(0)
        first = env.now
        yield array.read_page(1)  # adjacent block: track-to-track only
        return env.now - first

    second_duration = env.run(until=env.process(scan()))
    assert second_duration == pytest.approx(1000 + 4096 / 40.0)


def test_far_read_pays_full_seek():
    env = Environment()
    config = timing_config()
    array = DiskArray(env, config)

    def scan():
        yield array.read_page(0)
        first = env.now
        yield array.read_page(1000)
        return env.now - first

    second_duration = env.run(until=env.process(scan()))
    assert second_duration == pytest.approx(5000 + 3000 + 4096 / 40.0)


def test_reads_on_distinct_disks_overlap():
    env = Environment()
    array = DiskArray(env, timing_config(num_disks=2))

    def scan():
        # Pages 0 and 1 stripe onto disks 0 and 1.
        yield env.all_of([array.read_page(0), array.read_page(1)])

    env.run(until=env.process(scan()))
    single = 5000 + 3000 + 4096 / 40.0
    assert env.now == pytest.approx(single)  # fully parallel


def test_reads_on_same_disk_serialize():
    env = Environment()
    array = DiskArray(env, timing_config(num_disks=2))

    def scan():
        # Pages 0 and 2 both live on disk 0.
        yield env.all_of([array.read_page(0), array.read_page(2)])

    env.run(until=env.process(scan()))
    first = 5000 + 3000 + 4096 / 40.0
    second = 1000 + 4096 / 40.0  # blocks 0 -> 1 on the same disk
    assert env.now == pytest.approx(first + second)


def test_striping_layout():
    config = timing_config(num_disks=4)
    assert [config.disk_of(p) for p in range(6)] == [0, 1, 2, 3, 0, 1]
    assert config.block_of(5) == 1


# -- the spindle: one process per disk, one event per command ------------------


def observed(env):
    """Lists of the processes started and the events stepped from now on."""
    seen = {"process": [], "step": []}
    env.observer = lambda kind, event: seen[kind].append(event)
    return seen


def test_read_on_an_idle_spindle_costs_three_events_and_queued_costs_two():
    env = Environment()
    array = DiskArray(env, timing_config())
    seen = observed(env)
    array.read_page(0)  # the first command starts the spindle: its bootstrap
    env.run()
    assert len(seen["step"]) == 3  # wake, service timer, completion
    seen["step"].clear()
    array.read_page(1)  # the spindle is parked: the arrival wakes it
    env.run()
    assert len(seen["step"]) == 3
    seen["step"].clear()
    array.read_page(2)
    array.read_page(3)  # queued behind page 2: no wake
    env.run()
    assert len(seen["step"]) == 3 + 2
    assert len(seen["process"]) == 1


def test_any_number_of_commands_start_one_process_per_disk():
    env = Environment()
    array = DiskArray(env, timing_config(num_disks=2))
    seen = observed(env)
    for page_id in range(0, 20, 2):  # all on disk 0
        array.read_page(page_id)
        array.write_page(page_id)
    array.write_at(0, 50, 512)
    env.run()
    env.run(until=array.read_page(4))  # after an idle spell
    assert seen["process"] == [array.disks[0].spindle]
    assert array.disks[1].spindle is None  # never served a command
    assert array.disks[0].reads == 11 and array.disks[0].writes == 11


def test_interleaved_commands_complete_in_submit_order():
    env = Environment()
    config = timing_config()
    array = DiskArray(env, config)
    pages = [5, 0, 9, 3, 7, 2]
    events = [
        array.write_page(pid) if i % 2 else array.read_page(pid) for i, pid in enumerate(pages)
    ]
    finished = []
    for event in events:
        event.callbacks.append(lambda event: finished.append((env.now, event.value)))
    env.run()
    assert [receipt.page_id for __, receipt in finished] == pages
    head, now, expected = -1, 0.0, []
    for pid in pages:
        block = config.block_of(pid)
        expected.append(config.disk.service_time_us(head, block, config.page_size))
        head = block
    assert [receipt.service_us for __, receipt in finished] == expected
    ends = [when for when, __ in finished]
    for service_us, end in zip(expected, ends):
        now += service_us
        assert end == pytest.approx(now)  # back to back: no idle gap between commands


@pytest.mark.parametrize("fault", ["disk-failed", "timeout"])
def test_a_failed_read_fails_only_its_own_event(fault):
    from repro.faults import (
        DiskFailedError,
        DiskFaultProfile,
        DiskTimeoutError,
        FaultInjector,
        FaultPlan,
    )

    if fault == "disk-failed":
        plan, error = FaultPlan.disk_failure(0, at_us=0.0), DiskFailedError
    else:
        plan, error = FaultPlan(default=DiskFaultProfile(timeout_rate=1.0)), DiskTimeoutError
    env = Environment()
    config = timing_config()
    array = DiskArray(env, config, injector=FaultInjector(plan))
    disk = array.disks[0]
    read, write = array.read_page(3), array.write_page(4)
    finished = {}
    for name, event in (("read", read), ("write", write)):
        event.callbacks.append(lambda event, name=name: finished.setdefault(name, env.now))
    env.run()
    assert not read.ok and type(read.value) is error
    read_us = config.disk.service_time_us(-1, config.block_of(3), config.page_size)
    if fault == "disk-failed":
        charged = plan.failed_response_us
        head = -1  # a dead disk never moved its head
    else:
        charged = read_us * plan.timeout_stall_multiplier
        head = config.block_of(3)
    assert finished["read"] == charged  # the fault occupied the spindle this long
    assert write.ok and write.value.page_id == 4
    write_us = config.disk.service_time_us(head, config.block_of(4), config.page_size)
    assert write.value.service_us == write_us
    assert finished["write"] == pytest.approx(charged + write_us)
    assert disk.busy_time_us == pytest.approx(charged + write_us)
    assert disk.faults == 1 and disk.spindle.is_alive


def test_queue_depth_gauge_counts_waiting_in_service_and_the_arrival():
    env = Environment()
    array = DiskArray(env, timing_config())
    gauge = array.obs.metrics.gauge("disk0.queue_depth")
    depths = []

    def arrive(page_id):
        array.read_page(page_id)
        depths.append(gauge.value)

    def client():
        arrive(0)  # idle disk: the arrival alone
        yield env.timeout(1.0)
        arrive(1)  # page 0 in service
        arrive(2)  # page 0 in service, page 1 waiting
        yield array.read_page(3)  # fourth arrival: depth 4
        arrive(4)  # page 3 done, nothing in service
        arrive(5)

    env.run(until=env.process(client()))
    env.run()
    assert depths == [1, 2, 3, 1, 2]
    assert gauge.max_value == 4


# -- AsyncPageReader ----------------------------------------------------------------


def reader_fixture(num_disks=1, frames=16):
    env = Environment()
    config = timing_config(num_disks=num_disks)
    config = StorageConfig(
        page_size=config.page_size,
        num_disks=num_disks,
        buffer_pool_pages=frames,
        disk=config.disk,
    )
    store = PageStore(config.page_size)
    pool = BufferPool(config, store)
    array = DiskArray(env, config)
    reader = AsyncPageReader(env, array, pool)
    return env, store, pool, reader


def test_demand_read_blocks_for_io():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))

    def scan():
        yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    assert env.now > 0
    assert pool.contains(pid)
    assert reader.demand_reads == 1


def test_demand_hit_is_instant():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))
    pool.access(pid)

    def scan():
        yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    assert env.now == 0
    assert reader.demand_hits == 1


def test_demand_hit_touches_the_pool_by_the_clock_rule():
    # A demand that finds its page resident counts a pool hit and sets the
    # reference bit by the rule access() follows, and yields no event.
    env, store, pool, reader = reader_fixture(frames=2)
    model = ClockModel(2)
    for i in range(3):
        pool.access(store.allocate(FakePage(i)))
        model.access(i)
    resident = [pid for pid in range(3) if pool.contains(pid)]
    assert pool._ref_bit[pool.frame_of(resident[0])] == 0  # the sweep cleared it

    def scan():
        for pid in resident:
            yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    for pid in resident:
        model.access(pid)
    assert env.now == 0
    assert reader.demand_hits == len(resident) == 2
    assert clock_state(pool) == model.state()


def test_prefetch_then_demand_coalesces():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))

    def scan():
        reader.prefetch(pid)
        yield env.timeout(1)
        yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    assert reader.prefetches == 1
    assert reader.demand_covered == 1
    assert reader.demand_reads == 0


def test_prefetch_of_resident_page_is_noop():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))
    pool.access(pid)
    assert reader.prefetch(pid) is None
    assert reader.prefetches == 0


def test_completed_prefetch_installs_page():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))

    def scan():
        reader.prefetch(pid)
        yield env.timeout(60000)

    env.run(until=env.process(scan()))
    assert pool.contains(pid)
    assert reader.outstanding == 0


def test_preload_marks_resident():
    env, store, pool, reader = reader_fixture()
    pids = [store.allocate(FakePage(i)) for i in range(3)]
    reader.preload(pids)
    for pid in pids:
        assert pool.contains(pid)


# -- in-flight coalescing edge cases --------------------------------------------


def _seed_with_outcomes(timeout_rate, wanted):
    """A seed whose successive reads on disk 0 time out per ``wanted``."""
    import random

    for seed in range(1000):
        stream = random.Random((seed << 20) ^ 1)
        got = []
        for __ in wanted:
            timeout_draw = stream.random()
            stream.random()  # corrupt draw
            got.append(timeout_draw < timeout_rate)
        if got == list(wanted):
            return seed
    raise AssertionError("no suitable seed in range")


def faulty_reader_fixture(wanted_timeouts):
    """Reader over a single disk whose reads time out per ``wanted_timeouts``."""
    from repro.faults import DiskFaultProfile, FaultInjector, FaultPlan

    rate = 0.5
    plan = FaultPlan(
        seed=_seed_with_outcomes(rate, wanted_timeouts),
        default=DiskFaultProfile(timeout_rate=rate),
    )
    env = Environment()
    config = StorageConfig(
        page_size=4096, num_disks=1, buffer_pool_pages=16, disk=timing_config().disk
    )
    store = PageStore(config.page_size)
    pool = BufferPool(config, store)
    array = DiskArray(env, config, injector=FaultInjector(plan))
    reader = AsyncPageReader(env, array, pool)
    return env, store, pool, reader


def test_demand_recovers_when_coalesced_prefetch_fails_mid_flight():
    """A demand that piggybacked on a failing prefetch issues its own read."""
    env, store, pool, reader = faulty_reader_fixture([True, False])
    pid = store.allocate(FakePage("x"))

    def scan():
        reader.prefetch(pid)
        yield env.timeout(1)  # arrive while the doomed prefetch is in flight
        yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    assert pool.contains(pid)
    assert reader.prefetches == 1
    assert reader.demand_covered == 1  # it did coalesce first...
    assert reader.demand_reads == 1  # ...then fell back to its own read


def test_demand_own_read_failure_propagates():
    """A demand whose *own* read fails (no retry policy) surfaces the fault."""
    import pytest as _pytest

    from repro.faults import DiskTimeoutError

    env, store, pool, reader = faulty_reader_fixture([True])
    pid = store.allocate(FakePage("x"))

    def scan():
        with _pytest.raises(DiskTimeoutError):
            yield from reader.demand(pid)

    env.run(until=env.process(scan()))
    assert not pool.contains(pid)


def test_duplicate_prefetches_do_not_double_count():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))

    def scan():
        first = reader.prefetch(pid)
        assert first is not None
        assert reader.prefetch(pid) is None  # duplicate while in flight
        assert reader.prefetches == 1
        yield first
        assert reader.prefetch(pid) is None  # duplicate once resident

    env.run(until=env.process(scan()))
    assert reader.prefetches == 1
    assert pool.contains(pid)


def test_prefetch_disabled_by_degradation_switch():
    env, store, pool, reader = reader_fixture()
    pid = store.allocate(FakePage("x"))
    reader.prefetch_enabled = False
    assert reader.prefetch(pid) is None
    assert reader.prefetches == 0
    assert reader.outstanding == 0
