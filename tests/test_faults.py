"""Tests for the fault-injection & resilience layer.

Covers: fault plans and the deterministic injector, typed disk faults,
page checksums (store + buffer-pool boundary), the DES timeout/race
helpers, retrying and hedged reads in the AsyncPageReader, and graceful
degradation in the MiniDbms scan path.
"""

import random

import pytest

from repro.des import Environment, WaitTimeout, first_success, with_timeout
from repro.dbms import MiniDbms
from repro.faults import (
    DiskFailedError,
    DiskFaultProfile,
    DiskTimeoutError,
    FaultInjector,
    FaultPlan,
    PageChecksumError,
    ReadFailedError,
    ReadOutcome,
)
from repro.storage import (
    AsyncPageReader,
    BufferPool,
    BufferPoolExhausted,
    DiskArray,
    DiskParameters,
    PageStore,
    RetryPolicy,
    StorageConfig,
)


class FakePage:
    def __init__(self, label):
        self.label = label


def make_config(num_disks=1, frames=64, page_size=4096):
    return StorageConfig(
        page_size=page_size,
        num_disks=num_disks,
        buffer_pool_pages=frames,
        disk=DiskParameters(
            seek_time_us=5000,
            rotational_latency_us=3000,
            track_to_track_us=1000,
            transfer_rate_bytes_per_us=40.0,
        ),
    )


def make_stack(num_disks=1, frames=64, plan=None, mirrored=False, policy=None, seed=0):
    env = Environment()
    config = make_config(num_disks=num_disks, frames=frames)
    store = PageStore(config.page_size)
    pool = BufferPool(config, store)
    injector = FaultInjector(plan) if plan is not None else None
    disks = DiskArray(env, config, injector=injector, mirrored=mirrored)
    reader = AsyncPageReader(env, disks, pool, policy=policy, seed=seed)
    return env, store, pool, disks, reader


RANDOM_READ_US = 5000 + 3000 + 4096 / 40.0


# -- plans and injector ---------------------------------------------------------


class TestFaultPlan:
    def test_profile_lookup_falls_back_to_default(self):
        limp = DiskFaultProfile(limp_factor=4.0)
        plan = FaultPlan(default=DiskFaultProfile(corrupt_rate=0.1), disks={2: limp})
        assert plan.profile(2) is limp
        assert plan.profile(0).corrupt_rate == 0.1

    def test_is_clean(self):
        assert FaultPlan().is_clean
        assert not FaultPlan.uniform(corrupt_rate=0.01).is_clean
        assert not FaultPlan.limping_disk(0, factor=2.0).is_clean
        assert not FaultPlan.disk_failure(1, at_us=5.0).is_clean

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"corrupt_rate": -0.1},
            {"corrupt_rate": 1.5},
            {"timeout_rate": 2.0},
            {"fail_at_us": -1.0},
            {"limp_factor": 0.5},
            {"limp_after_us": -3.0},
        ],
    )
    def test_profile_validation(self, kwargs):
        with pytest.raises(ValueError):
            DiskFaultProfile(**kwargs)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(timeout_stall_multiplier=0.5)
        with pytest.raises(ValueError):
            FaultPlan(failed_response_us=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(disks={-1: DiskFaultProfile()})


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.uniform(corrupt_rate=0.3, timeout_rate=0.2, seed=9)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        decisions_a = [a.decide(0, t).outcome for t in range(200)]
        decisions_b = [b.decide(0, t).outcome for t in range(200)]
        assert decisions_a == decisions_b
        assert ReadOutcome.CORRUPT in decisions_a
        assert ReadOutcome.TIMEOUT in decisions_a

    def test_streams_are_per_disk(self):
        plan = FaultPlan.uniform(corrupt_rate=0.5, seed=3)
        solo = FaultInjector(plan)
        expected = [solo.decide(1, 0).outcome for __ in range(50)]
        # Interleaving draws on disk 0 must not perturb disk 1's stream.
        mixed = FaultInjector(plan)
        got = []
        for __ in range(50):
            mixed.decide(0, 0)
            got.append(mixed.decide(1, 0).outcome)
        assert got == expected

    def test_limp_and_failure_windows(self):
        plan = FaultPlan(
            disks={
                0: DiskFaultProfile(limp_factor=8.0, limp_after_us=100.0),
                1: DiskFaultProfile(fail_at_us=50.0),
            }
        )
        injector = FaultInjector(plan)
        assert injector.decide(0, 99.0).latency_multiplier == 1.0
        assert injector.decide(0, 100.0).latency_multiplier == 8.0
        assert injector.decide(1, 49.0).outcome is ReadOutcome.OK
        assert injector.decide(1, 50.0).outcome is ReadOutcome.DISK_FAILED
        assert injector.limped_reads == 1
        assert injector.injected_disk_failures == 1


# -- config validation (satellite) ----------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("rate", [0.0, -40.0])
    def test_nonpositive_transfer_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            DiskParameters(transfer_rate_bytes_per_us=rate)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seek_time_us": -1.0},
            {"rotational_latency_us": -1.0},
            {"track_to_track_us": -0.5},
            {"sequential_window_blocks": -1},
        ],
    )
    def test_negative_timings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiskParameters(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_size": 0},
            {"page_size": -4096},
            {"page_size": 1000},  # not a power of two
            {"num_disks": 0},
            {"num_disks": -2},
            {"buffer_pool_pages": 0},
        ],
    )
    def test_storage_config_rejected(self, kwargs):
        defaults = dict(page_size=4096, num_disks=1, buffer_pool_pages=16)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            StorageConfig(**defaults)


# -- checksums ------------------------------------------------------------------


class TestChecksums:
    def test_stamped_on_every_write(self):
        store = PageStore(4096)
        pid = store.allocate(FakePage("a"))
        first = store.expected_checksum(pid)
        assert store.verify_checksum(pid)
        store.replace(pid, FakePage("b"))
        assert store.expected_checksum(pid) != first
        assert store.verify_checksum(pid)

    def test_place_stamps(self):
        store = PageStore(4096)
        store.place(7, FakePage("x"))
        assert store.verify_checksum(7)

    def test_corrupt_and_scrub(self):
        store = PageStore(4096)
        pid = store.allocate(FakePage("x"))
        store.corrupt_page(pid)
        assert not store.verify_checksum(pid)
        assert store.checksum(pid) != store.expected_checksum(pid)
        store.scrub(pid)
        assert store.verify_checksum(pid)

    def test_checksum_of_unallocated_page(self):
        store = PageStore(4096)
        with pytest.raises(KeyError):
            store.checksum(3)
        with pytest.raises(KeyError):
            store.corrupt_page(3)

    def test_pool_detects_media_rot_on_fill(self):
        config = make_config()
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        pid = store.allocate(FakePage("x"))
        store.corrupt_page(pid)
        with pytest.raises(PageChecksumError):
            pool.access(pid)
        assert pool.checksum_failures == 1
        assert not pool.contains(pid)
        store.scrub(pid)
        pool.access(pid)
        assert pool.contains(pid)

    def test_pool_fill_rejects_wire_corruption(self):
        config = make_config()
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        pid = store.allocate(FakePage("x"))
        delivered = store.expected_checksum(pid) ^ 0x1
        with pytest.raises(PageChecksumError):
            pool.fill(pid, delivered_checksum=delivered)
        assert not pool.contains(pid)
        pool.fill(pid, delivered_checksum=store.expected_checksum(pid))
        assert pool.contains(pid)


# -- buffer pool exhaustion (satellite) ------------------------------------------


class TestBufferPoolExhausted:
    def test_diagnostics_name_the_pinned_pages(self):
        config = make_config(frames=2)
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        a, b, c = [store.allocate(FakePage(i)) for i in range(3)]
        with pool.pinned(a), pool.pinned(b):
            with pytest.raises(BufferPoolExhausted) as excinfo:
                pool.access(c)
        err = excinfo.value
        assert err.frames == 2
        assert err.pinned_pages == {a: 1, b: 1}
        assert f"page {a}" in str(err)

    def test_is_a_runtime_error(self):
        # Callers that caught the old RuntimeError keep working.
        assert issubclass(BufferPoolExhausted, RuntimeError)

    def test_sweep_terminates_even_with_ref_bits_set(self):
        config = make_config(frames=3)
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        pids = [store.allocate(FakePage(i)) for i in range(3)]
        with pool.pinned(pids[0]), pool.pinned(pids[1]), pool.pinned(pids[2]):
            with pytest.raises(BufferPoolExhausted):
                pool.access(store.allocate(FakePage("d")))


# -- DES control helpers --------------------------------------------------------


class TestDesControl:
    def test_with_timeout_event_wins(self):
        env = Environment()

        def proc():
            value = yield with_timeout(env, env.timeout(5, value="done"), 10)
            return value

        assert env.run(until=env.process(proc())) == "done"
        env.run()  # drain the losing timer

    def test_with_timeout_event_win_detaches_the_timer(self):
        env = Environment()

        def proc():
            yield with_timeout(env, env.timeout(5, value="done"), 10)

        env.run(until=env.process(proc()))
        # The losing timer stays queued, so the run still drains at its
        # deadline, but it no longer holds the wait's callback.
        (timer,) = [event for __, __, event in env._queue]
        assert timer.callbacks == []
        env.run()
        assert env.now == 10

    def test_with_timeout_expires(self):
        env = Environment()

        def slow():
            yield env.timeout(100)

        def proc():
            with pytest.raises(WaitTimeout):
                yield with_timeout(env, env.process(slow()), 10)
            return env.now

        assert env.run(until=env.process(proc())) == 10
        env.run()  # the abandoned process completes without incident

    def test_with_timeout_absorbs_late_failure(self):
        env = Environment()

        def failing():
            yield env.timeout(100)
            raise DiskTimeoutError(0, 0, 100.0)

        def proc():
            with pytest.raises(WaitTimeout):
                yield with_timeout(env, env.process(failing()), 10)

        env.run(until=env.process(proc()))
        env.run()  # late DiskTimeoutError must not crash the loop

    def test_first_success_skips_failures(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise DiskTimeoutError(0, 7, 1.0)

        def proc():
            race = first_success(env, [env.process(failing()), env.timeout(5, value="ok")])
            index, value = yield race
            return index, value

        assert env.run(until=env.process(proc())) == (1, "ok")

    def test_first_success_fails_only_when_all_fail(self):
        env = Environment()

        def failing(delay):
            yield env.timeout(delay)
            raise DiskTimeoutError(0, delay, float(delay))

        def proc():
            with pytest.raises(DiskTimeoutError) as excinfo:
                yield first_success(env, [env.process(failing(1)), env.process(failing(9))])
            return excinfo.value.page_id

        assert env.run(until=env.process(proc())) == 9  # the *last* failure

    def test_first_success_requires_events(self):
        env = Environment()
        with pytest.raises(ValueError):
            first_success(env, [])


# -- disk-level faults ----------------------------------------------------------


def run_demand(env, reader, pid):
    def proc():
        yield from reader.demand(pid)

    done = env.process(proc())
    env.run(until=done)


class TestDiskFaults:
    def test_limping_disk_multiplies_latency(self):
        plan = FaultPlan.limping_disk(0, factor=10.0)
        env, store, pool, disks, reader = make_stack(plan=plan)
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert env.now == pytest.approx(10 * RANDOM_READ_US)

    def test_transient_timeout_is_typed_and_occupies_the_spindle(self):
        plan = FaultPlan(
            default=DiskFaultProfile(timeout_rate=1.0), timeout_stall_multiplier=4.0
        )
        env, store, pool, disks, reader = make_stack(plan=plan)
        pid = store.allocate(FakePage("x"))

        def proc():
            with pytest.raises(DiskTimeoutError) as excinfo:
                yield disks.read_page(pid)
            return excinfo.value

        err = env.run(until=env.process(proc()))
        assert err.disk_id == 0 and err.page_id == pid
        assert env.now == pytest.approx(4 * RANDOM_READ_US)

    def test_permanently_failed_disk_rejects_commands(self):
        plan = FaultPlan.disk_failure(0, at_us=0.0)
        env, store, pool, disks, reader = make_stack(plan=plan)
        pid = store.allocate(FakePage("x"))

        def proc():
            with pytest.raises(DiskFailedError):
                yield disks.read_page(pid)
            return env.now

        elapsed = env.run(until=env.process(proc()))
        assert elapsed == pytest.approx(plan.failed_response_us)

    def test_corrupt_delivery_flagged_on_receipt(self):
        plan = FaultPlan.uniform(corrupt_rate=1.0)
        env, store, pool, disks, reader = make_stack(plan=plan)
        pid = store.allocate(FakePage("x"))

        def proc():
            receipt = yield disks.read_page(pid)
            return receipt

        receipt = env.run(until=env.process(proc()))
        assert receipt.corrupt
        # The store media is intact — only this delivery was corrupt.
        assert store.verify_checksum(pid)

    def test_mirrored_replicas_on_distinct_disks(self):
        env, store, pool, disks, reader = make_stack(num_disks=4, mirrored=True)
        assert disks.replica_disks(1) == [1, 2]
        assert disks.replica_disks(3) == [3, 0]

    def test_mirroring_needs_two_disks(self):
        env = Environment()
        with pytest.raises(ValueError):
            DiskArray(env, make_config(num_disks=1), mirrored=True)


# -- retry policy ---------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_us=100.0,
            backoff_multiplier=2.0,
            backoff_cap_us=350.0,
            jitter_fraction=0.0,
        )
        rng = random.Random(0)
        delays = [policy.backoff_delay_us(retry, rng) for retry in (1, 2, 3, 4)]
        assert delays == [100.0, 200.0, 350.0, 350.0]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base_us=1000.0, jitter_fraction=0.25)
        a = [policy.backoff_delay_us(1, random.Random(7)) for __ in range(3)]
        assert a[0] == a[1] == a[2]
        assert 750.0 <= a[0] <= 1250.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_us": 0.0},
            {"backoff_base_us": -1.0},
            {"backoff_multiplier": 0.9},
            {"backoff_base_us": 10.0, "backoff_cap_us": 5.0},
            {"jitter_fraction": 1.5},
            {"hedge_after_us": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# -- reliable reads -------------------------------------------------------------


class TestReliableReads:
    def test_retry_recovers_from_corruption(self):
        # First read corrupt, later ones clean: seed chosen so the first
        # draw on disk 0 fires the 50% corruption.
        plan = FaultPlan(seed=_seed_with_first_corrupt(), default=DiskFaultProfile(corrupt_rate=0.5))
        policy = RetryPolicy(jitter_fraction=0.0, backoff_base_us=100.0)
        env, store, pool, disks, reader = make_stack(plan=plan, policy=policy)
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert pool.contains(pid)
        assert reader.checksum_failures >= 1
        assert reader.retries >= 1
        assert reader.backoff_us > 0

    def test_retry_exhaustion_raises_read_failed(self):
        plan = FaultPlan.uniform(corrupt_rate=1.0)
        policy = RetryPolicy(max_attempts=3, jitter_fraction=0.0)
        env, store, pool, disks, reader = make_stack(plan=plan, policy=policy)
        pid = store.allocate(FakePage("x"))

        def proc():
            with pytest.raises(ReadFailedError) as excinfo:
                yield from reader.demand(pid)
            return excinfo.value

        err = env.run(until=env.process(proc()))
        assert err.attempts == 3
        assert isinstance(err.last_error, PageChecksumError)
        assert reader.checksum_failures == 3

    def test_per_attempt_timeout_retries_on_mirror(self):
        # Disk 0 limps 100x; the per-attempt deadline abandons it and the
        # retry lands on the mirror (disk 1), which is healthy.
        plan = FaultPlan.limping_disk(0, factor=100.0)
        policy = RetryPolicy(
            timeout_us=2 * RANDOM_READ_US, jitter_fraction=0.0, backoff_base_us=100.0
        )
        env, store, pool, disks, reader = make_stack(
            num_disks=2, plan=plan, mirrored=True, policy=policy
        )
        pid = store.allocate(FakePage("x"))  # page 0: primary disk 0, mirror disk 1
        run_demand(env, reader, pid)
        assert pool.contains(pid)
        assert reader.timeouts == 1
        assert reader.retries == 1
        assert env.now < 5 * RANDOM_READ_US  # nowhere near the limped 100x

    def test_permanent_failure_falls_back_to_mirror(self):
        plan = FaultPlan.disk_failure(0, at_us=0.0)
        policy = RetryPolicy(jitter_fraction=0.0, backoff_base_us=100.0)
        env, store, pool, disks, reader = make_stack(
            num_disks=2, plan=plan, mirrored=True, policy=policy
        )
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert pool.contains(pid)
        assert reader.faults_seen == 1

    def test_unmirrored_dead_disk_exhausts_cleanly(self):
        plan = FaultPlan.disk_failure(0, at_us=0.0)
        policy = RetryPolicy(max_attempts=2, jitter_fraction=0.0)
        env, store, pool, disks, reader = make_stack(plan=plan, policy=policy)
        pid = store.allocate(FakePage("x"))

        def proc():
            with pytest.raises(ReadFailedError) as excinfo:
                yield from reader.demand(pid)
            return excinfo.value

        err = env.run(until=env.process(proc()))
        assert isinstance(err.last_error, DiskFailedError)

    def test_hedged_read_beats_limping_primary(self):
        plan = FaultPlan.limping_disk(0, factor=20.0)
        policy = RetryPolicy(
            timeout_us=None,
            jitter_fraction=0.0,
            hedge_after_us=0.5 * RANDOM_READ_US,
        )
        env, store, pool, disks, reader = make_stack(
            num_disks=2, plan=plan, mirrored=True, policy=policy
        )
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert pool.contains(pid)
        assert reader.hedges == 1
        assert reader.hedge_wins == 1
        # Hedge fired at 0.5x nominal, mirror served in 1x nominal.
        assert env.now == pytest.approx(1.5 * RANDOM_READ_US)
        env.run()  # the limping primary finishes without incident

    def test_hedge_not_launched_when_primary_is_fast(self):
        policy = RetryPolicy(timeout_us=None, hedge_after_us=5 * RANDOM_READ_US)
        env, store, pool, disks, reader = make_stack(num_disks=2, mirrored=True, policy=policy)
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert reader.hedges == 0
        assert disks.total_reads == 1

    def test_hedge_disabled_by_degradation_switch(self):
        plan = FaultPlan.limping_disk(0, factor=20.0)
        policy = RetryPolicy(timeout_us=None, hedge_after_us=0.5 * RANDOM_READ_US)
        env, store, pool, disks, reader = make_stack(
            num_disks=2, plan=plan, mirrored=True, policy=policy
        )
        reader.hedge_enabled = False
        pid = store.allocate(FakePage("x"))
        run_demand(env, reader, pid)
        assert reader.hedges == 0
        assert env.now == pytest.approx(20 * RANDOM_READ_US)


def _seed_with_first_corrupt():
    """A seed whose first draw pair on disk 0 injects a corruption (rate 0.5)."""
    for seed in range(100):
        stream = random.Random((seed << 20) ^ 1)
        stream.random()  # timeout draw
        if stream.random() < 0.5:  # corrupt draw
            return seed
    raise AssertionError("no suitable seed in range")


# -- MiniDbms scans under faults -------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    return MiniDbms(num_rows=6000, num_disks=4, seed=2, mature=False, page_size=4096)


class TestFaultyScans:
    def test_fixed_seed_scan_is_bit_for_bit_deterministic(self, small_db):
        plan = FaultPlan.uniform(corrupt_rate=0.05, timeout_rate=0.02, seed=11)
        runs = [
            small_db.scan(prefetchers=4, fault_plan=plan, mirrored=True) for __ in range(2)
        ]
        assert runs[0] == runs[1]  # every field, including retry/backoff counters

    def test_faults_cost_time_never_correctness(self, small_db):
        # Same machinery (mirroring, retry policy) on both sides; only the
        # fault rates differ.
        clean = small_db.scan(prefetchers=4, fault_plan=FaultPlan(seed=3), mirrored=True)
        plan = FaultPlan.uniform(corrupt_rate=0.1, timeout_rate=0.05, seed=3)
        faulty = small_db.scan(prefetchers=4, fault_plan=plan, mirrored=True)
        assert faulty.row_count == clean.row_count
        assert faulty.pages_scanned == clean.pages_scanned
        assert faulty.elapsed_us >= clean.elapsed_us

    def test_all_injected_corruptions_detected_at_pool_boundary(self, small_db):
        # Retry-only mode (no hedging): every delivery is awaited, so every
        # injected corruption must surface as a checksum failure — zero
        # silent corruptions.
        plan = FaultPlan.uniform(corrupt_rate=0.2, seed=7)
        policy = RetryPolicy(timeout_us=None, jitter_fraction=0.0, max_attempts=8)
        stats = small_db.scan(
            prefetchers=2, fault_plan=plan, retry_policy=policy, hedge=False
        )
        clean = small_db.scan(prefetchers=2)
        assert stats.row_count == clean.row_count
        assert stats.checksum_failures > 0  # the plan actually fired
        assert stats.faults_seen == stats.checksum_failures  # no other fault types

    def test_hedging_recovers_limping_disk_throughput(self, small_db):
        clean = small_db.scan(prefetchers=4)
        limp = FaultPlan.limping_disk(0, factor=10.0, seed=5)
        retry_only = small_db.scan(prefetchers=4, fault_plan=limp, mirrored=True, hedge=False)
        hedged = small_db.scan(prefetchers=4, fault_plan=limp, mirrored=True, hedge=True)
        assert hedged.hedge_wins > 0
        assert hedged.row_count == retry_only.row_count == clean.row_count
        assert hedged.elapsed_us < retry_only.elapsed_us

    def test_degradation_ladder_sheds_hedging_then_prefetch(self, small_db):
        limp = FaultPlan.limping_disk(0, factor=10.0, seed=5)
        healthy = small_db.scan(prefetchers=4, fault_plan=limp, mirrored=True)
        tight = small_db.scan(
            prefetchers=4,
            fault_plan=limp,
            mirrored=True,
            deadline_us=healthy.elapsed_us * 0.3,
        )
        assert tight.degradation_level == 2
        assert tight.deadline_exceeded
        assert tight.row_count == healthy.row_count
        # Shedding prefetch means fewer prefetches were issued.
        assert tight.prefetches <= healthy.prefetches

    def test_generous_deadline_never_degrades(self, small_db):
        stats = small_db.scan(prefetchers=4, deadline_us=1e12)
        assert stats.degradation_level == 0
        assert not stats.deadline_exceeded

    def test_scan_validates_deadline(self, small_db):
        with pytest.raises(ValueError):
            small_db.scan(deadline_us=0.0)

    def test_clean_plan_adds_no_faults(self, small_db):
        stats = small_db.scan(prefetchers=2, fault_plan=FaultPlan(), mirrored=True)
        assert stats.faults_seen == 0
        assert stats.row_count == 6000
