"""Tests for chaos schedules, client resilience, brownout, and crash-under-load."""

import json
import random

import pytest

from repro.faults import ChaosSchedule, FaultPlan
from repro.serve import (
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    ChaosRunner,
    CircuitBreaker,
    ClientRetryPolicy,
    DbmsServer,
)
from repro.dbms.engine import MiniDbms


def small_db(num_rows=2_000, seed=7):
    return MiniDbms(num_rows=num_rows, num_disks=4, page_size=4096, seed=seed, mature=False)


# -- chaos schedule grammar -------------------------------------------------


class TestChaosSchedule:
    def test_parse_full_storm(self):
        schedule = ChaosSchedule.parse(
            "corrupt rate=0.25; limp disk=2 x8 @0.05s; kill disk=0 @200ms; crash wal=20",
            seed=5,
        )
        assert len(schedule.events) == 4
        plan = schedule.to_fault_plan()
        assert plan.seed == 5
        assert plan.default.corrupt_rate == 0.25
        assert plan.disks[2].limp_factor == 8.0
        assert plan.disks[2].limp_after_us == 50_000.0
        assert plan.disks[0].fail_at_us == 200_000.0
        assert plan.crash_after_wal_appends == 20
        assert schedule.has_crash_points
        assert not plan.is_clean

    def test_time_suffixes_agree(self):
        for text in ("kill disk=0 @250000", "kill disk=0 @250000us",
                     "kill disk=0 @250ms", "kill disk=0 @0.25s"):
            plan = ChaosSchedule.parse(text, seed=1).to_fault_plan()
            assert plan.disks[0].fail_at_us == 250_000.0, text

    def test_torn_and_page_crash_points(self):
        plan = ChaosSchedule.parse("torn wal=3; crash page=2", seed=0).to_fault_plan()
        assert plan.torn_wal_append == 3
        assert plan.crash_after_page_writes == 2

    def test_per_disk_rates_merge_with_default(self):
        plan = ChaosSchedule.parse(
            "corrupt rate=0.1; timeout rate=0.2 disk=1; limp disk=1 x4", seed=0
        ).to_fault_plan()
        assert plan.default.corrupt_rate == 0.1
        # The per-disk profile inherits the array-wide corrupt rate.
        assert plan.disks[1].corrupt_rate == 0.1
        assert plan.disks[1].timeout_rate == 0.2
        assert plan.disks[1].limp_factor == 4.0

    def test_describe_mentions_every_event(self):
        schedule = ChaosSchedule.parse("limp disk=3 x2; crash wal=1", seed=0)
        text = schedule.describe()
        assert "disk 3" in text and "limps" in text and "wal" in text

    @pytest.mark.parametrize("bad", [
        "explode disk=0",           # unknown verb
        "limp disk=0",              # limp needs a factor
        "corrupt disk=0",           # corrupt needs rate=
        "kill disk=0",              # kill needs a time
        "crash wal=1 page=2",       # one crash point per clause
        "crash",                    # crash needs wal= or page=
        "limp disk=0 x2; limp disk=0 x3",  # conflicting duplicate setting
    ])
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ValueError):
            ChaosSchedule.parse(bad, seed=0).to_fault_plan()

    def test_empty_schedule_compiles_clean(self):
        plan = ChaosSchedule.parse("", seed=3).to_fault_plan()
        assert plan.is_clean


class TestFaultPlanCrashPoints:
    def test_is_clean_false_when_crash_point_armed(self):
        # Regression: is_clean used to ignore the write-path crash points,
        # so a plan whose only fault was a crash looked harmless.
        assert FaultPlan().is_clean
        for name in FaultPlan.CRASH_POINT_FIELDS:
            plan = FaultPlan(**{name: 1})
            assert plan.has_crash_points, name
            assert not plan.is_clean, name

    def test_without_crash_points_strips_only_crash_points(self):
        schedule = ChaosSchedule.parse("limp disk=1 x4; crash wal=2", seed=9)
        plan = schedule.to_fault_plan()
        stripped = plan.without_crash_points()
        assert not stripped.has_crash_points
        assert stripped.disks[1].limp_factor == 4.0  # read faults stay live
        assert not stripped.is_clean


# -- client retry policy ----------------------------------------------------


class TestClientRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = ClientRetryPolicy(
            backoff_base_us=1_000.0, backoff_multiplier=2.0,
            backoff_cap_us=4_000.0, jitter_fraction=0.0,
        )
        rng = random.Random(0)
        delays = [policy.backoff_delay_us(retry, rng) for retry in (1, 2, 3, 4)]
        assert delays == [1_000.0, 2_000.0, 4_000.0, 4_000.0]

    def test_jitter_is_seeded_and_bounded(self):
        policy = ClientRetryPolicy(backoff_base_us=10_000.0, jitter_fraction=0.25)
        a = [policy.backoff_delay_us(1, random.Random(42)) for __ in range(3)]
        b = [policy.backoff_delay_us(1, random.Random(42)) for __ in range(3)]
        assert a == b  # same seed, same jitter
        for delay in a:
            assert 7_500.0 <= delay <= 12_500.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ClientRetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(backoff_cap_us=1.0, backoff_base_us=10.0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(jitter_fraction=1.5)


# -- circuit breaker --------------------------------------------------------


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **overrides):
        clock = ManualClock()
        config = BreakerConfig(**{
            "window": 4, "min_samples": 4, "failure_threshold": 0.5,
            "cooldown_us": 1_000.0, "half_open_probes": 2, **overrides,
        })
        return CircuitBreaker(config, clock=clock), clock

    def test_stays_closed_below_min_samples(self):
        breaker, __ = self.make()
        for __ in range(3):
            breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_trips_on_failure_rate(self):
        breaker, __ = self.make()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()  # 2/4 failures hits the 0.5 threshold
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()

    def test_open_half_open_closed_cycle(self):
        breaker, clock = self.make()
        breaker.trip()
        assert not breaker.allow()
        assert breaker.retry_after_us() == 1_000.0
        clock.now = 1_000.0
        assert breaker.allow()  # cooldown elapsed: half-open, probe admitted
        assert breaker.state == BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state == BreakerState.HALF_OPEN  # one probe is not enough
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        states = [(frm, to) for __, frm, to in breaker.transitions]
        assert states == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
        ]

    def test_failed_probe_reopens(self):
        breaker, clock = self.make()
        breaker.trip()
        clock.now = 1_000.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()  # a fresh cooldown started
        assert breaker.retry_after_us() == 1_000.0

    def test_close_clears_the_window(self):
        # Pre-trip failures must not linger and instantly re-trip the
        # breaker after it has proven the server healthy again.
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.trip()
        clock.now = 1_000.0
        breaker.allow()
        breaker.record_success()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()  # only 2 samples in the fresh window
        assert breaker.state == BreakerState.CLOSED

    def test_requires_clock(self):
        with pytest.raises(ValueError):
            CircuitBreaker(BreakerConfig())


# -- brownout ladder --------------------------------------------------------


def make_server(**kwargs):
    db = small_db()
    return DbmsServer(db, max_concurrency=8, queue_depth=16, pool_frames=32, **kwargs)


class TestBrownoutLadder:
    def breach(self, controller, count=10):
        for __ in range(count):
            controller._observe("lookup", None, ok=False)
        controller.evaluate_window()

    def healthy(self, controller, count=10):
        for __ in range(count):
            controller._observe("lookup", 100.0, ok=True)
        controller.evaluate_window()

    def test_ladder_steps_down_and_applies_knobs(self):
        server = make_server()
        config = BrownoutConfig(recover_intervals=2)
        controller = BrownoutController(server, config)
        assert server.scan_prefetch_depth == server.base_scan_prefetch_depth

        self.breach(controller)  # level 1: prefetch shrinks
        assert controller.level == 1
        assert server.scan_prefetch_depth == config.degraded_prefetch_depth
        assert server.reader.max_outstanding_prefetches == config.prefetch_cap

        self.breach(controller)  # level 2: scans truncate
        assert server.max_scan_pages == config.max_scan_pages

        self.breach(controller)  # level 3: inserts rejected
        assert server.reject_inserts

        self.breach(controller)  # level 4: token pool shrinks
        assert controller.level == 4
        assert server.admission.max_concurrency == max(
            1, int(server.admission.base_concurrency * config.token_shrink)
        )

        self.breach(controller)  # the ladder bottoms out at 4
        assert controller.level == 4

    def test_ladder_recovers_one_rung_per_streak(self):
        server = make_server()
        config = BrownoutConfig(recover_intervals=2)
        controller = BrownoutController(server, config)
        self.breach(controller)
        self.breach(controller)
        assert controller.level == 2

        self.healthy(controller)
        assert controller.level == 2  # one healthy window is not a streak
        self.healthy(controller)
        assert controller.level == 1  # streak of 2: one rung back up
        assert server.max_scan_pages is None

        self.healthy(controller)
        self.healthy(controller)
        assert controller.level == 0  # fully restored
        assert server.scan_prefetch_depth == server.base_scan_prefetch_depth
        assert server.reader.max_outstanding_prefetches is None
        assert not server.reject_inserts
        assert server.admission.max_concurrency == server.admission.base_concurrency

    def test_latency_breach_trips_like_failures(self):
        server = make_server()
        controller = BrownoutController(server, BrownoutConfig(p99_slo_us=1_000.0))
        for __ in range(10):
            controller._observe("scan", 5_000.0, ok=True)  # slow but successful
        controller.evaluate_window()
        assert controller.level == 1

    def test_small_windows_are_ignored(self):
        server = make_server()
        controller = BrownoutController(server, BrownoutConfig(min_window=6))
        for __ in range(3):
            controller._observe("lookup", None, ok=False)
        controller.evaluate_window()
        assert controller.level == 0

    def test_brownout_rejection_sheds_inserts_conserved(self):
        server = make_server()
        server.reject_inserts = True
        request = server.make_request(("insert", None), session="t")
        event = server.submit(request)
        server.env.run(until=event)
        assert request.outcome == "shed"
        assert server.stats.brownout_rejected == 1
        assert server.stats.conserved()


# -- admission resize -------------------------------------------------------


def test_admission_resize_grants_queued_waiters():
    from repro.des import Environment
    from repro.serve import AdmissionController

    env = Environment()
    admission = AdmissionController(env, max_concurrency=1, max_queue_depth=8)
    order = []

    def holder(name):
        ticket = yield from admission.admit()
        order.append(name)
        yield env.timeout(1_000.0)
        admission.release(ticket)

    def grower():
        yield env.timeout(10.0)
        admission.resize(3)

    for name in "abc":
        env.process(holder(name))
    env.process(grower())
    env.run()
    assert order == ["a", "b", "c"]
    # b and c were granted by the resize, long before a released its token.
    assert admission.max_concurrency == 3


# -- chaos runner: faults under live load -----------------------------------


class TestChaosUnderLoad:
    def run_chaos(self, text, *, resilient=True, sessions=4, ops=12, seed=11, **kwargs):
        schedule = ChaosSchedule.parse(text, seed=5)
        return ChaosRunner(
            schedule,
            num_rows=2_000,
            sessions=sessions,
            ops_per_session=ops,
            retry=ClientRetryPolicy(backoff_cap_us=20_000.0) if resilient else None,
            breaker=BreakerConfig() if resilient else None,
            brownout=BrownoutConfig(p99_slo_us=15_000.0) if resilient else None,
            seed=seed,
            **kwargs,
        ).run()

    def test_read_faults_under_load_conserved(self):
        report = self.run_chaos("corrupt rate=0.3; limp disk=1 x6 @0.02s")
        assert report["conserved"]
        assert report["crashes"] == 0
        assert report["ok_ops"] > 0
        assert report["client_retries"] > 0  # faults actually surfaced

    def test_clean_schedule_is_boring(self):
        report = self.run_chaos("", resilient=True)
        assert report["conserved"]
        assert report["ok_ops"] == report["client_ops"]
        assert report["client_retries"] == 0
        assert report["crashes"] == 0

    def test_crash_under_load_recovers_and_conserves(self):
        report = self.run_chaos("crash wal=4", ops=20)
        assert report["crashes"] == 1
        assert report["conserved"]
        assert report["lost_inserts"] == 0
        assert report["scrub_entries"] > 0
        (entry,) = report["crash_log"]
        assert entry["point"] == "wal-append"
        # Every session still finished its full workload after recovery.
        assert report["ok_ops"] + report["gave_up"] == report["client_ops"]

    def test_crash_drains_in_flight_requests(self):
        report = self.run_chaos("crash wal=4", ops=20)
        (entry,) = report["crash_log"]
        assert entry["drained_in_flight"] >= 1
        assert report["failed"] >= entry["drained_in_flight"]

    def test_crash_in_an_inlined_execute_reaches_the_runner(self):
        # Without a deadline every op's worker runs inside its client
        # process, so the WAL crash unwinds through the client straight to
        # the runner, whose drain still settles the op it killed.
        runner = ChaosRunner(
            ChaosSchedule.parse("crash wal=4", seed=5),
            num_rows=2_000, sessions=4, ops_per_session=20, seed=11,
        )
        workers = []
        runner.server.env.observer = lambda kind, event: (
            workers.append(event._generator.__name__)
            if kind == "process" and event._generator.__name__ in ("_admitted", "_execute")
            else None
        )
        report = runner.run()
        assert workers == []
        assert report["crashes"] == 1
        (entry,) = report["crash_log"]
        assert entry["drained_in_flight"] >= 1
        assert report["conserved"] and report["in_flight"] == 0
        assert report["lost_inserts"] == 0

    def test_breaker_trips_on_crash(self):
        report = self.run_chaos("crash wal=4", ops=20)
        transitions = [(frm, to) for __, frm, to in report["breaker_transitions"]]
        assert ("closed", "open") in transitions or ("half_open", "open") in transitions
        # The breaker recovered: it half-opened after the cooldown.
        assert any(to == "half_open" for __, to in transitions)

    def test_full_storm_two_runs_byte_identical(self):
        text = "corrupt rate=0.25; limp disk=2 x8 @0.03s; kill disk=0 @0.1s; crash wal=6"
        a = self.run_chaos(text, ops=15, deadline_us=30_000.0)
        b = self.run_chaos(text, ops=15, deadline_us=30_000.0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["crashes"] == 1
        assert a["conserved"]
        assert a["lost_inserts"] == 0

    def test_different_seeds_diverge(self):
        a = self.run_chaos("corrupt rate=0.3", seed=11)
        b = self.run_chaos("corrupt rate=0.3", seed=12)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_committed_inserts_survive_crash(self):
        report = self.run_chaos("crash wal=6", ops=25, sessions=5)
        assert report["crashes"] == 1
        assert report["committed_inserts"] > 0  # the check had teeth
        assert report["lost_inserts"] == 0
