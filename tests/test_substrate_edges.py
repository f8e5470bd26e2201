"""Edge-case coverage for the DES kernel, memory model, and storage layer."""

import pytest

from repro.des import AllOf, AnyOf, Environment, Resource, Store
from repro.mem import AddressSpace, CpuCostModel, MemoryConfig, MemorySystem, align_up
from repro.storage import DiskParameters, PageStore, StorageConfig


# -- DES -----------------------------------------------------------------------


class TestDesEdges:
    def test_event_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_run_until_past_time_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(10)

        env.process(proc())
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_advances_clock_even_without_events(self):
        env = Environment()
        env.run(until=100)
        assert env.now == 100

    def test_all_of_failure_propagates(self):
        env = Environment()
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("boom"))

        def waiter():
            yield AllOf(env, [env.timeout(5), bad])

        env.process(failer())
        process = env.process(waiter())
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=process)

    def test_any_of_with_already_processed_event(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        log = []

        def proc():
            yield env.timeout(1)
            value = yield AnyOf(env, [done, env.timeout(50)])
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log[0][0] == 1  # did not wait for the 50-tick timeout

    def test_process_is_alive_lifecycle(self):
        env = Environment()

        def work():
            yield env.timeout(3)

        process = env.process(work())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_active_process_visible_during_execution(self):
        env = Environment()
        seen = []

        def work():
            seen.append(env.active_process)
            yield env.timeout(1)

        process = env.process(work())
        env.run()
        assert seen == [process]
        assert env.active_process is None

    def test_resource_released_on_exception(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def crasher():
            with resource.request() as grant:
                yield grant
                raise ValueError("inside critical section")

        def follower():
            yield env.timeout(1)
            with resource.request() as grant:
                yield grant
                return "acquired"

        env.process(crasher())
        follower_proc = env.process(follower())
        with pytest.raises(ValueError):
            env.run()
        # The follower still gets the resource: the context manager released it.
        result = env.run(until=follower_proc)
        assert result == "acquired"

    def test_store_multiple_waiters_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        env.process(consumer("a"))
        env.process(consumer("b"))

        def producer():
            yield env.timeout(1)
            store.put(1)
            store.put(2)

        env.process(producer())
        env.run()
        assert got == [("a", 1), ("b", 2)]


# -- memory model -------------------------------------------------------------------


class TestMemoryEdges:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            MemoryConfig(line_size=48)
        with pytest.raises(ValueError):
            MemoryConfig(l1_size=100_000)

    def test_lines_touched_boundaries(self):
        config = MemoryConfig()
        assert list(config.lines_touched(0, 64)) == [0]
        assert list(config.lines_touched(63, 2)) == [0, 1]
        assert list(config.lines_touched(128, 0)) == []
        assert list(config.lines_touched(100, 1)) == [1]

    def test_zero_byte_read_is_free(self):
        mem = MemorySystem()
        mem.read_run(0, 0)
        assert mem.stats.total_cycles == 0

    def test_l2_direct_mapped_conflicts_through_system(self):
        mem = MemorySystem()
        l2_lines = mem.config.l2_size // mem.config.line_size
        mem.read_run(0, 4)
        mem.read_run(l2_lines * 64, 4)  # same L2 set, evicts line 0 from L2
        # Force L1 eviction of line 0 as well by filling its L1 set.
        l1_sets = mem.l1.num_sets
        mem.read_run(l1_sets * 64, 4)
        mem.read_run(2 * l1_sets * 64, 4)
        before = mem.stats.memory_fetches
        mem.read_run(0, 4)  # L2 lost it -> full memory fetch
        assert mem.stats.memory_fetches == before + 1

    def test_prefetch_pipelines_through_bus(self):
        mem = MemorySystem()
        mem.prefetch_run(0, 4 * 64)
        # Bus grants are 10 cycles apart: last line lands ~T1 + 3*Tnext.
        landed = sorted(entry[0] for entry in mem._inflight.values())
        assert landed[1] - landed[0] == pytest.approx(10)
        assert landed[-1] - landed[0] == pytest.approx(30)

    def test_probe_cost_helper(self):
        cpu = CpuCostModel()
        busy, other = cpu.probe_cost()
        assert busy == cpu.compare
        assert other == cpu.mispredict_rate * cpu.branch_mispredict

    def test_stats_str_is_informative(self):
        mem = MemorySystem()
        mem.read_run(0, 4)
        text = str(mem.stats)
        assert "busy" in text and "mem fetches 1" in text

    def test_stats_reset(self):
        mem = MemorySystem()
        mem.read_run(0, 4)
        mem.stats.reset()
        assert mem.stats.total_cycles == 0
        assert mem.stats.memory_fetches == 0

    def test_address_space_labels_and_high_water(self):
        space = AddressSpace(base=4096)
        first = space.alloc(100, alignment=64, label="pool")
        second = space.alloc(10, alignment=64, label="nodes")
        assert first % 64 == 0
        assert second >= first + 100
        assert space.high_water == second + 10
        labels = [label for label, __, __ in space.regions()]
        assert labels == ["pool", "nodes"]

    def test_address_space_invalid_inputs(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.alloc(0)
        with pytest.raises(ValueError):
            align_up(5, 3)
        with pytest.raises(ValueError):
            AddressSpace(base=-1)


# -- storage -----------------------------------------------------------------------------


class TestStorageEdges:
    def test_disk_parameters_branches(self):
        params = DiskParameters(
            seek_time_us=5000, rotational_latency_us=3000,
            track_to_track_us=1000, transfer_rate_bytes_per_us=40.0,
            sequential_window_blocks=8,
        )
        transfer = 4096 / 40.0
        assert params.service_time_us(-1, 5, 4096) == 8000 + transfer  # cold head
        assert params.service_time_us(5, 5, 4096) == transfer  # same block
        assert params.service_time_us(5, 9, 4096) == 1000 + transfer  # near
        assert params.service_time_us(5, 100, 4096) == 8000 + transfer  # far

    def test_sequential_window_zero_always_seeks(self):
        params = DiskParameters(sequential_window_blocks=0)
        near = params.service_time_us(5, 6, 4096)
        far = params.service_time_us(5, 5000, 4096)
        assert near == far

    def test_storage_config_validation(self):
        with pytest.raises(ValueError):
            StorageConfig(page_size=1000)
        with pytest.raises(ValueError):
            StorageConfig(num_disks=0)
        with pytest.raises(ValueError):
            StorageConfig(buffer_pool_pages=0)

    def test_page_store_place_and_rebuild_free_list(self):
        store = PageStore(4096)
        store.place(5, "page-five")
        store.place(2, "page-two")
        store.rebuild_free_list()
        # Gaps 0,1,3,4 become reusable ids.
        fresh = {store.allocate(f"p{i}") for i in range(4)}
        assert fresh == {0, 1, 3, 4}
        assert store.allocate("next") == 6

    def test_page_store_place_conflicts(self):
        store = PageStore(4096)
        store.place(1, "a")
        with pytest.raises(KeyError):
            store.place(1, "b")
        with pytest.raises(ValueError):
            store.place(-3, "c")
