"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry (counters, gauges, histograms, the
pull-based counter facade), the tracer (ring buffer, spans, determinism of track ids), the
Chrome-trace exporter and validator, the DES observer hook, and the
end-to-end contracts on ``MiniDbms.scan(trace=True)``: no simulated-time
drift, byte-identical exports per seed, and trace/stats reconciliation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.dbms import MiniDbms
from repro.faults import FaultPlan
from repro.serve import DbmsServer
from repro.storage import BufferPool, PageStore, StorageConfig
from repro.obs import (
    NULL_TRACER,
    BoundCounter,
    Counter,
    Histogram,
    MetricsRegistry,
    Observability,
    QueryTrace,
    Tracer,
    attach_des_observer,
    bind_counters,
    chrome_trace_dict,
    to_chrome_json,
    validate_chrome_trace,
)


# -- metrics -------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_memoized_and_incremented(self):
        reg = MetricsRegistry()
        c = reg.counter("reader.retries")
        c.inc()
        c.inc(3)
        assert reg.counter("reader.retries") is c
        assert reg.value("reader.retries") == 4

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("pool.resident")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 5

    def test_type_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert json.dumps(snap) == json.dumps(reg.snapshot())

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("never.created") == 0


class TestHistogram:
    def test_buckets_and_stats(self):
        h = Histogram("lat", bounds=(10.0, 100.0, 1000.0))
        for v in (5, 50, 500, 5000):
            h.record(v)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert h.min == 5 and h.max == 5000
        assert h.mean == pytest.approx((5 + 50 + 500 + 5000) / 4)

    def test_quantile_returns_bucket_bound(self):
        h = Histogram("lat", bounds=(10.0, 100.0))
        for __ in range(9):
            h.record(1.0)
        h.record(99.0)
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 100.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(10.0, 10.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([1.0, 10.0, 100.0, 1000.0]),  # exactly on a bound
                st.sampled_from([float("inf"), float("-inf"), float("nan")]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=30,
        )
    )
    def test_bucket_choice_matches_linear_scan(self, values):
        """The bisected bucket is the first bound >= value; NaN overflows."""
        bounds = (1.0, 10.0, 100.0, 1000.0)
        h = Histogram("lat", bounds=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            h.record(value)
            # The original linear rule, kept here as the oracle.
            index = len(bounds)
            for i, bound in enumerate(bounds):
                if value <= bound:
                    index = i
                    break
            expected[index] += 1
        assert h.counts == expected


class TestMetricAttrFacade:
    class Thing:
        def __init__(self, registry):
            bind_counters(self, registry, "thing.", ("retries", "faults"))

    def test_attribute_is_the_registry_counter(self):
        reg = MetricsRegistry()
        thing = self.Thing(reg)
        thing.retries += 1
        thing.retries += 1
        thing.faults = 7
        assert thing.retries == 2
        assert reg.value("thing.retries") == 2
        assert reg.value("thing.faults") == 7
        thing.retries = 0  # reset_stats() idiom
        assert reg.value("thing.retries") == 0

    def test_attribute_is_a_plain_value_and_the_registry_pulls_it(self):
        reg = MetricsRegistry()
        thing = self.Thing(reg)
        assert "retries" in vars(thing)  # no descriptor on the class
        thing.retries += 3
        assert reg.snapshot() == {"thing.faults": 0, "thing.retries": 3}
        view = reg.counter("thing.retries")
        assert isinstance(view, BoundCounter) and view is reg.get("thing.retries")
        thing.retries += 1
        assert view.value == 4
        view.inc(2)  # writes through to the owner
        assert thing.retries == 6

    def test_reset_stats_zeroes_bound_counters(self):
        config = StorageConfig(page_size=4096, buffer_pool_pages=2)
        store = PageStore(config.page_size)
        reg = MetricsRegistry()
        pool = BufferPool(config, store, obs=Observability(metrics=reg))
        pid = store.allocate(object())
        pool.access(pid)
        pool.access(pid)
        assert (reg.value("pool.hits"), reg.value("pool.misses")) == (1, 1)
        pool.reset_stats()
        assert (reg.value("pool.hits"), reg.value("pool.misses")) == (0, 0)

    def test_rebind_continues_the_total_and_detaches_the_old_owner(self):
        db = MiniDbms(num_rows=2_000, num_disks=2, page_size=4096, seed=7, mature=False)
        server = DbmsServer(db, pool_frames=16)
        for key in db.stored_keys[:40:4]:
            server.submit(server.make_request(("lookup", int(key))))
        server.run()
        reg = server.obs.metrics
        old_pool, old_reader, old_admission = server.pool, server.reader, server.admission
        names = ("pool.hits", "reader.demand_reads", "admission.admitted")
        totals = tuple(reg.value(name) for name in names)
        assert all(total > 0 for total in totals)
        server.rebuild_substrate()
        assert server.pool is not old_pool and server.admission is not old_admission
        live = (server.pool.hits, server.reader.demand_reads, server.admission.admitted)
        assert live == totals
        old_pool.hits += 100  # a dead owner no longer feeds the registry
        old_reader.demand_reads += 100
        old_admission.admitted += 100
        assert tuple(reg.value(name) for name in names) == totals
        server.pool.hits += 1
        server.admission.admitted += 1
        assert reg.value("pool.hits") == totals[0] + 1
        assert reg.value("admission.admitted") == totals[2] + 1

    def test_every_serving_counter_is_a_bound_owner_attribute(self):
        from repro.faults import ChaosSchedule
        from repro.serve import BreakerConfig, BrownoutConfig, ChaosRunner, ClientRetryPolicy
        from repro.shard import BoundaryPlanner, build_fleet

        db = MiniDbms(num_rows=2_000, num_disks=2, page_size=4096, seed=7, mature=False)
        server = DbmsServer(db, pool_frames=16, admission_mode="batch")
        for key in db.stored_keys[:40:4]:
            server.submit(server.make_request(("lookup", int(key))))
        server.run()
        keys = db.stored_keys
        router = build_fleet(2_000, BoundaryPlanner(keys, 2).equal_width(), num_disks=2)
        for op in (("lookup", int(keys[3])), ("scan", int(keys[10]), int(keys[-10])),
                   ("insert", None)):
            router.submit(router.make_request(op))
        router.run()
        chaos = ChaosRunner(
            ChaosSchedule.parse("crash wal=4", seed=5), num_rows=2_000, sessions=4,
            ops_per_session=20, retry=ClientRetryPolicy(backoff_cap_us=20_000.0),
            breaker=BreakerConfig(), brownout=BrownoutConfig(p99_slo_us=15_000.0), seed=11,
        )
        assert chaos.run()["crashes"] == 1
        live = chaos.server
        registries = [
            server.obs.metrics, router.stats.metrics, live.obs.metrics,
            *(shard.obs.metrics for shard in router.shards),
        ]
        for reg in registries:
            snapshot = reg.snapshot()
            for name in reg.names():
                metric = reg.get(name)
                if isinstance(metric, Counter):
                    assert isinstance(metric, BoundCounter), name
                    assert getattr(metric.owner, metric.attr) == snapshot[name], name
        # The views read the live owners, through the crash rebuild too.
        assert live.obs.metrics.get("serve.crashes").owner is live.stats
        assert live.obs.metrics.get("admission.admitted").owner is live.admission
        assert router.stats.metrics.get("router.cross_shard_scans").owner is router
        assert live.stats.crashes == live.stats.recoveries == 1
        assert router.cross_shard_scans == 1 and server.stats.batches > 0

    def test_merges_sum_bound_counters(self):
        regs = [MetricsRegistry(), MetricsRegistry()]
        things = [self.Thing(reg) for reg in regs]
        things[0].retries, things[1].retries = 2, 5
        merged = MetricsRegistry()
        for reg in regs:
            merged.merge_from(reg)
        assert merged.value("thing.retries") == 7
        assert type(merged.get("thing.retries")) is Counter
        regs[0].merge_from(regs[1])  # into a bound view: writes through
        assert things[0].retries == 7 and things[1].retries == 5

    def test_server_stats_merge_sums_storage_counters(self):
        servers = []
        for seed in (1, 2):
            db = MiniDbms(num_rows=1_000, num_disks=2, page_size=4096, seed=seed, mature=False)
            server = DbmsServer(db, pool_frames=16)
            for key in db.stored_keys[:30:3]:
                server.submit(server.make_request(("lookup", int(key))))
            server.run()
            servers.append(server)
        merged = servers[0].stats.merge(servers[1].stats)
        for name in ("pool.hits", "pool.misses", "reader.demand_reads", "disk-array.total_reads"):
            expected = sum(server.obs.metrics.value(name) for server in servers)
            assert expected > 0 and merged.metrics.value(name) == expected


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_records_nothing(self):
        NULL_TRACER.instant("x")
        NULL_TRACER.complete("y", "t", 0.0)
        NULL_TRACER.counter("c", 1)
        assert len(NULL_TRACER.records) == 0
        assert NULL_TRACER.emitted == 0

    def test_clock_attachment_and_now(self):
        t = Tracer()
        assert t.now() == 0.0
        t.clock = lambda: 42.5
        t.instant("tick", track="a")
        (rec,) = t.records
        assert rec.ts == 42.5 and rec.ph == "i" and rec.track == "a"

    def test_complete_span_duration(self):
        times = iter([10.0, 25.0])
        t = Tracer(clock=lambda: next(times))
        start = t.now()
        t.complete("work", "main", start, pages=3)
        (rec,) = t.records
        assert rec.ts == 10.0 and rec.dur == 15.0 and rec.args == {"pages": 3}

    def test_span_context_manager_records_errors(self):
        t = Tracer(clock=lambda: 0.0)
        with pytest.raises(ValueError):
            with t.span("risky", track="main"):
                raise ValueError("boom")
        (rec,) = t.records
        assert rec.args["error"] == "ValueError"

    def test_ring_buffer_drops_oldest(self):
        t = Tracer(clock=lambda: 0.0, capacity=3)
        for i in range(5):
            t.instant(f"e{i}")
        assert [r.name for r in t.records] == ["e2", "e3", "e4"]
        assert t.dropped == 2
        assert t.emitted == 5

    def test_track_ids_in_first_use_order(self):
        t = Tracer(clock=lambda: 0.0)
        t.instant("a", track="zebra")
        t.instant("b", track="apple")
        t.instant("c", track="zebra")
        assert t.tracks == {"zebra": 0, "apple": 1}

    def test_clear(self):
        t = Tracer(clock=lambda: 0.0)
        t.instant("x")
        t.clear()
        assert len(t.records) == 0 and t.emitted == 0 and t.tracks == {}


# -- exporter ------------------------------------------------------------------


def make_sample_tracer():
    times = iter([0.0, 5.0, 5.0, 8.0])
    t = Tracer(clock=lambda: next(times, 10.0))
    start = t.now()  # 0.0
    t.complete("read", "disk0", start, cat="disk", page=7)  # ends at 5.0
    t.instant("hedge", track="reader", page=7)
    t.counter("reads", 1)
    return t


class TestExporter:
    def test_chrome_dict_shape(self):
        d = chrome_trace_dict(make_sample_tracer(), label="unit")
        assert validate_chrome_trace(d) == []
        names = [e["name"] for e in d["traceEvents"]]
        # Metadata first (process + one thread per track), then records.
        assert names[0] == "process_name"
        assert names.count("thread_name") == 3  # disk0, reader, counters
        span = next(e for e in d["traceEvents"] if e["ph"] == "X")
        assert span["dur"] == 5.0 and span["args"] == {"page": 7}
        assert d["otherData"]["label"] == "unit"

    def test_json_is_deterministic(self):
        assert to_chrome_json(make_sample_tracer()) == to_chrome_json(make_sample_tracer())

    def test_validator_catches_problems(self):
        assert validate_chrome_trace("not json {") != []
        assert validate_chrome_trace({"nope": 1}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "pid": 1, "tid": 0}]}
        problems = validate_chrome_trace(bad)
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        bad = {"traceEvents": [{"name": "x", "ph": "?", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad))


class TestQueryTrace:
    def test_count_and_counter_value(self):
        qt = QueryTrace(make_sample_tracer(), MetricsRegistry(), label="q")
        assert qt.count("read") == 1
        assert qt.count("read", ph="i") == 0
        assert qt.counter_value("reads") == 1
        assert qt.counter_value("missing") is None

    def test_write_roundtrip(self, tmp_path):
        qt = QueryTrace(make_sample_tracer(), MetricsRegistry())
        path = qt.write(str(tmp_path / "trace.json"))
        with open(path) as handle:
            assert validate_chrome_trace(json.load(handle)) == []

    def test_timeline_renders(self):
        text = QueryTrace(make_sample_tracer(), MetricsRegistry(), label="q").timeline()
        assert "disk0" in text and "read" in text
        assert "reads=1" in text


# -- DES observer hook --------------------------------------------------------


class TestDesObserver:
    def test_observer_sees_steps_without_changing_time(self):
        def run(observed):
            env = Environment()
            if observed is not None:
                attach_des_observer(env, observed)

            def proc():
                yield env.timeout(5)
                yield env.timeout(7)

            env.run(until=env.process(proc()))
            return env.now

        tracer = Tracer()
        plain = run(None)
        traced = run(tracer)
        assert traced == plain == 12
        kinds = {r.name for r in tracer.records}
        assert kinds == {"process", "step"}
        assert all(r.track == "des" for r in tracer.records)


# -- end-to-end: MiniDbms.scan(trace=True) ------------------------------------


@pytest.fixture(scope="module")
def traced_db():
    db = MiniDbms(num_rows=6_000, num_disks=4, page_size=4096, mature=False)
    db.enable_wal()
    for key in range(10_000_000, 10_000_010):
        db.insert(key)
    return db


SCAN_KW = dict(smp_degree=2, prefetchers=4, mirrored=True)


class TestTracedScan:
    def test_tracing_does_not_drift_simulated_time(self, traced_db):
        plan = FaultPlan.uniform(corrupt_rate=0.02, timeout_rate=0.01, seed=3)
        traced = traced_db.scan(trace=True, fault_plan=plan, **SCAN_KW)
        untraced = traced_db.scan(fault_plan=plan, **SCAN_KW)
        assert traced.elapsed_us == untraced.elapsed_us
        # The trace field is excluded from equality: the runs otherwise match.
        assert traced == untraced
        assert untraced.trace is None

    def test_export_is_byte_identical_per_seed(self, traced_db):
        plan = FaultPlan.uniform(corrupt_rate=0.02, timeout_rate=0.01, seed=3)
        a = traced_db.scan(trace=True, fault_plan=plan, **SCAN_KW)
        b = traced_db.scan(trace=True, fault_plan=plan, **SCAN_KW)
        assert a.trace.to_json() == b.trace.to_json()

    def test_export_validates_and_reconciles(self, traced_db):
        plan = FaultPlan.uniform(corrupt_rate=0.02, timeout_rate=0.01, seed=3)
        stats = traced_db.scan(trace=True, fault_plan=plan, **SCAN_KW)
        trace = stats.trace
        assert validate_chrome_trace(trace.to_json()) == []
        assert trace.counter_value("reads") == stats.disk_reads
        assert trace.counter_value("prefetches") == stats.prefetches
        assert trace.counter_value("hedges") == stats.hedges
        assert trace.counter_value("retries") == stats.retries
        assert trace.counter_value("wal_appends") == stats.wal_appends
        # Completion spans can only lag issued reads (in-flight at scan end).
        assert trace.count("read", ph="X") <= stats.disk_reads
        assert trace.count("page", ph="X") == stats.pages_scanned

    def test_caller_supplied_tracer_is_used(self, traced_db):
        tracer = Tracer(capacity=1 << 16)
        stats = traced_db.scan(trace=tracer, **SCAN_KW)
        assert stats.trace.tracer is tracer
        assert len(tracer.records) > 0

    def test_explain_with_and_without_trace(self, traced_db):
        stats = traced_db.scan(trace=True, **SCAN_KW)
        text = stats.explain()
        assert "disk reads" in text and "trace 'scan'" in text
        bare = traced_db.scan(**SCAN_KW).explain()
        assert "scan(trace=True)" in bare

    def test_untraced_scan_attaches_nothing(self, traced_db):
        assert traced_db.scan(**SCAN_KW).trace is None


class TestObservability:
    def test_default_bundle_is_disabled(self):
        obs = Observability()
        assert obs.tracer is NULL_TRACER
        assert not obs.tracing

    def test_enabled_bundle(self):
        obs = Observability(tracer=Tracer())
        assert obs.tracing
