"""Regression tests for the accounting/deadline bug sweep.

Each test here fails on the pre-fix code:

* ``AsyncPageReader._race_with_hedge`` let a hedged attempt wait for
  ``hedge_after_us + timeout_us`` — the cutoff is now clamped to the
  per-attempt deadline and the race gets only the remaining budget.
* ``Disk.service`` charged no ``busy_time_us`` on the dead-disk rejection
  path, so a failed spindle reported zero utilization while rejecting
  commands.
* ``AsyncPageReader.preload`` routed through ``pool.access`` and charged
  one miss per preloaded page, polluting the 'in memory' baselines.
* ``BufferPool.pinned`` matched its frame on page id alone on exit, so a
  stale context manager could decrement a *newer* holder's pin after an
  invalidate + re-install of the same page into the same frame.
* ``MemorySystem.write`` fetched L2-resident lines without counting the
  L2 hit, understating ``stats.l2_hits`` on store-heavy phases.
"""

import pytest

from repro.des import Environment
from repro.faults import DiskFaultProfile, FaultInjector, FaultPlan, ReadFailedError
from repro.mem.hierarchy import MemorySystem
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


def run_demand_expecting_failure(env, reader, pid):
    def proc():
        with pytest.raises(ReadFailedError) as excinfo:
            yield from reader.demand(pid)
        return excinfo.value

    return env.run(until=env.process(proc()))


# -- hedge cutoff vs per-attempt deadline -------------------------------------


class TestHedgeDeadlineClamp:
    def test_cutoff_clamped_when_deadline_precedes_hedge_point(self):
        # timeout_us < hedge_after_us < service time: the attempt must be
        # abandoned at the deadline.  Pre-fix, the primary was awaited for
        # the full (unclamped) hedge cutoff and its late receipt accepted,
        # ignoring the deadline entirely.
        policy = RetryPolicy(
            timeout_us=0.5 * RANDOM_READ_US,
            hedge_after_us=2 * RANDOM_READ_US,
            max_attempts=1,
            jitter_fraction=0.0,
        )
        env, store, pool, disks, reader = make_stack(
            num_disks=2, mirrored=True, policy=policy
        )
        pid = store.allocate(FakePage("x"))
        run_demand_expecting_failure(env, reader, pid)
        assert not pool.contains(pid)
        assert reader.timeouts == 1
        assert reader.hedges == 0  # no budget left after the clamped cutoff
        assert env.now == pytest.approx(0.5 * RANDOM_READ_US)

    def test_race_gets_only_the_remaining_budget(self):
        # Both replicas limp far past the deadline.  The hedge fires at the
        # cutoff, and the race may use only deadline - cutoff: the whole
        # attempt ends at exactly timeout_us.  Pre-fix it ended at
        # cutoff + timeout_us.
        plan = FaultPlan(default=DiskFaultProfile(limp_factor=50.0))
        policy = RetryPolicy(
            timeout_us=1.5 * RANDOM_READ_US,
            hedge_after_us=0.5 * RANDOM_READ_US,
            max_attempts=1,
            jitter_fraction=0.0,
        )
        env, store, pool, disks, reader = make_stack(
            num_disks=2, plan=plan, mirrored=True, policy=policy
        )
        pid = store.allocate(FakePage("x"))
        run_demand_expecting_failure(env, reader, pid)
        assert reader.hedges == 1
        assert env.now == pytest.approx(policy.timeout_us)

    def test_attempt_never_exceeds_timeout_under_faults(self):
        # Property-flavoured check across hedge/deadline orderings: a
        # single attempt's wall time on the DES clock never exceeds
        # timeout_us when every replica is slower than the deadline.
        plan = FaultPlan(default=DiskFaultProfile(limp_factor=50.0))
        for hedge_after in (0.25, 0.9, 1.0, 1.7, 4.0):
            policy = RetryPolicy(
                timeout_us=RANDOM_READ_US,
                hedge_after_us=hedge_after * RANDOM_READ_US,
                max_attempts=1,
                jitter_fraction=0.0,
            )
            env, store, pool, disks, reader = make_stack(
                num_disks=2, plan=plan, mirrored=True, policy=policy
            )
            pid = store.allocate(FakePage("x"))
            run_demand_expecting_failure(env, reader, pid)
            assert env.now <= policy.timeout_us * (1 + 1e-9), hedge_after


# -- dead-disk occupancy ------------------------------------------------------


class TestDeadDiskAccounting:
    def test_rejections_charge_busy_time(self):
        plan = FaultPlan.disk_failure(0, at_us=0.0)
        policy = RetryPolicy(max_attempts=3, jitter_fraction=0.0, backoff_base_us=100.0)
        env, store, pool, disks, reader = make_stack(plan=plan, policy=policy)
        pid = store.allocate(FakePage("x"))
        run_demand_expecting_failure(env, reader, pid)
        disk = disks.disks[0]
        assert disk.faults == 3
        # Each rejection occupies the spindle for failed_response_us.
        assert disk.busy_time_us == pytest.approx(3 * plan.failed_response_us)
        assert disks.utilization()[0] > 0.0

    def test_attribute_and_registry_metric_agree(self):
        plan = FaultPlan.disk_failure(0, at_us=0.0)
        policy = RetryPolicy(max_attempts=2, jitter_fraction=0.0, backoff_base_us=100.0)
        env, store, pool, disks, reader = make_stack(plan=plan, policy=policy)
        pid = store.allocate(FakePage("x"))
        run_demand_expecting_failure(env, reader, pid)
        disk = disks.disks[0]
        assert disks.obs.metrics.value("disk0.busy_time_us") == disk.busy_time_us > 0


# -- preload statistics -------------------------------------------------------


class TestPreloadStats:
    def test_preload_counts_no_misses(self):
        env, store, pool, disks, reader = make_stack(frames=32)
        pids = [store.allocate(FakePage(i)) for i in range(8)]
        reader.preload(pids)
        assert all(pool.contains(pid) for pid in pids)
        assert pool.misses == 0
        assert pool.hits == 0

    def test_preload_eviction_churn_is_reset(self):
        # Preloading more pages than frames exercises eviction; none of
        # that churn may leak into the measured phase's statistics.
        env, store, pool, disks, reader = make_stack(frames=4)
        pids = [store.allocate(FakePage(i)) for i in range(12)]
        reader.preload(pids)
        assert pool.misses == 0 and pool.hits == 0
        # The measured phase starts clean: first access to a resident page
        # is the run's first hit.
        resident = [pid for pid in pids if pool.contains(pid)]
        pool.access(resident[0])
        assert (pool.hits, pool.misses) == (1, 0)


# -- pin generations ----------------------------------------------------------


class TestPinGenerations:
    def test_stale_exit_cannot_steal_newer_pin(self):
        config = make_config(frames=1)
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        a = store.allocate(FakePage("a"))
        b = store.allocate(FakePage("b"))

        stale = pool.pinned(a)
        stale.__enter__()
        pool.invalidate(a)  # pins die with the page
        frame = pool.install(a)  # same page, same (only) frame, new generation

        fresh = pool.pinned(a)
        fresh.__enter__()
        stale.__exit__(None, None, None)  # must NOT decrement the new pin

        # The fresh pin still protects the frame: nothing can be evicted.
        with pytest.raises(BufferPoolExhausted):
            pool.access(b)

        fresh.__exit__(None, None, None)
        pool.access(b)  # now the frame is free again
        assert pool.contains(b)
        assert pool._pin_count[frame] == 0

    def test_plain_pin_unpin_still_balances(self):
        config = make_config(frames=2)
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        a = store.allocate(FakePage("a"))
        with pool.pinned(a):
            with pool.pinned(a):
                assert pool._pin_count[pool.frame_of(a)] == 2
        assert pool._pin_count[pool.frame_of(a)] == 0

    def test_unpin_after_eviction_is_a_no_op(self):
        # The classic pre-generation case: page evicted (not invalidated)
        # while logically pinned would hit the page-id guard; still works.
        config = make_config(frames=1)
        store = PageStore(config.page_size)
        pool = BufferPool(config, store)
        a = store.allocate(FakePage("a"))
        b = store.allocate(FakePage("b"))
        cm = pool.pinned(a)
        cm.__enter__()
        pool.invalidate(a)
        pool.access(b)  # frame reused by b
        cm.__exit__(None, None, None)  # must not touch b's frame
        assert pool._pin_count[pool.frame_of(b)] == 0


# -- store-path L2 hits -------------------------------------------------------


class TestStorePathL2Hits:
    def test_l2_resident_store_counts_an_l2_hit(self):
        ms = MemorySystem()
        line = next(iter(ms.config.lines_touched(0, 4)))
        ms.l2.insert(line)
        before = ms.stats.l2_hits
        ms.write_run(0, 4)
        assert ms.stats.l2_hits == before + 1
        assert ms.stats.store_fetches == 0  # no memory-bus fetch happened

    def test_full_miss_store_still_counts_a_fetch(self):
        ms = MemorySystem()
        ms.write_run(0, 4)
        assert ms.stats.store_fetches == 1
        assert ms.stats.l2_hits == 0

    def test_load_and_store_l2_hit_accounting_agree(self):
        # A demand load of an L2-resident line and a store to another
        # L2-resident line each count exactly one L2 hit.
        ms = MemorySystem()
        line_size = ms.config.line_size
        load_line = next(iter(ms.config.lines_touched(0, 4)))
        store_line = next(iter(ms.config.lines_touched(line_size, 4)))
        ms.l2.insert(load_line)
        ms.l2.insert(store_line)
        ms.read_run(0, 4)
        ms.write_run(line_size, 4)
        assert ms.stats.l2_hits == 2
