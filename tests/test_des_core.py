"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.des import AllOf, AnyOf, Environment, Event, Process, SimulationError, with_timeout


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(5)
        fired.append(env.now)
        yield env.timeout(2.5)
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [5, 7.5]
    assert env.now == 7.5


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value_visible_to_waiter():
    env = Environment()
    results = []

    def worker():
        yield env.timeout(3)
        return 42

    def waiter():
        value = yield env.process(worker())
        results.append((env.now, value))

    env.process(waiter())
    env.run()
    assert results == [(3, 42)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def opener():
        yield env.timeout(10)
        gate.succeed("open")

    def waiter():
        value = yield gate
        log.append((env.now, value))

    env.process(opener())
    env.process(waiter())
    env.run()
    assert log == [(10, "open")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(failer())
    env.process(waiter())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=4.5)
    assert ticks == [1, 2, 3, 4]
    assert env.now == 4.5


def test_run_until_event_returns_value():
    env = Environment()

    def worker():
        yield env.timeout(7)
        return "done"

    result = env.run(until=env.process(worker()))
    assert result == "done"
    assert env.now == 7


def test_run_until_event_never_fires_raises():
    env = Environment()
    orphan = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_all_of_waits_for_slowest():
    env = Environment()
    at = []

    def proc():
        yield AllOf(env, [env.timeout(3), env.timeout(9), env.timeout(6)])
        at.append(env.now)

    env.process(proc())
    env.run()
    assert at == [9]


class _ScanCountingEvent(Event):
    """An event that counts reads of its ``triggered`` flag."""

    __slots__ = ("reads",)

    def __init__(self, env):
        super().__init__(env)
        self.reads = 0

    @property
    def triggered(self):
        self.reads += 1
        return self._triggered


def test_all_of_over_processed_events_never_rescans():
    """An AllOf over N already-processed events plus one pending event
    counts down to the pending one and fires once — it does not re-scan
    its whole event list on every observation (quadratic construction)."""
    env = Environment()
    n = 200
    done = [_ScanCountingEvent(env) for __ in range(n)]
    for event in done:
        event.succeed(event)
    env.run()
    assert all(event.processed for event in done)
    pending = _ScanCountingEvent(env)
    condition = AllOf(env, done + [pending])
    fired = []
    condition.callbacks.append(fired.append)
    assert not condition.triggered
    pending.succeed(pending)
    env.run()
    assert fired == [condition]
    assert condition.value == done + [pending]
    # Each full-list scan reads the first event's flag once; collecting the
    # values at the end is the only scan allowed.
    assert done[0].reads <= 1


def test_any_of_fires_on_fastest():
    env = Environment()
    at = []

    def proc():
        yield AnyOf(env, [env.timeout(3), env.timeout(9)])
        at.append(env.now)

    env.process(proc())
    env.run()
    assert at == [3]


def test_all_of_empty_fires_immediately():
    env = Environment()
    at = []

    def proc():
        yield AllOf(env, [])
        at.append(env.now)

    env.process(proc())
    env.run()
    assert at == [0]


def test_fifo_ordering_of_simultaneous_events():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(5)
        order.append(name)

    env.process(proc("first"))
    env.process(proc("second"))
    env.process(proc("third"))
    env.run()
    assert order == ["first", "second", "third"]


def test_yield_already_processed_event_resumes():
    env = Environment()
    done = env.event()
    done.succeed("early")
    seen = []

    def proc():
        yield env.timeout(2)
        value = yield done  # already processed by now
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(2, "early")]


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 5

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == 2
    env.run()
    assert env.peek() == float("inf")


def test_nested_processes_compose():
    env = Environment()

    def inner(duration):
        yield env.timeout(duration)
        return duration * 2

    def outer():
        first = yield env.process(inner(2))
        second = yield env.process(inner(3))
        return first + second

    result = env.run(until=env.process(outer()))
    assert result == 10
    assert env.now == 5


def test_nan_delay_rejected():
    # NaN compares false against 0 both ways: accepted, it would fire first
    # and drag the clock to NaN and then back to finite times.
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    assert env._queue == [] and env._next_id == 0
    with pytest.raises(ValueError):
        with_timeout(env, env.event(), float("nan"))


def test_same_time_events_fire_in_scheduling_order_across_sites():
    # Every scheduling site pushes (now + delay, next_id): at one instant,
    # events fire in the order they were scheduled, whichever site made them.
    env = Environment()
    log = []
    done = env.event()
    done.succeed()
    env.run()
    early = env.timeout(5)  # scheduled before everything below, same time
    early.callbacks.append(lambda ev: log.append("early-timeout"))

    def record(label):
        return lambda ev: log.append(label)

    def spawned():
        log.append("bootstrap")
        yield env.timeout(0)

    def driver():
        yield env.timeout(5)
        ok = env.event()
        ok.callbacks.append(record("succeed"))
        ok.succeed()
        bad = env.event()
        bad.callbacks.append(record("fail"))
        bad.fail(RuntimeError("observed"))
        yield done  # already processed: an immediate resume, queued here
        log.append("immediate-resume")
        env.timeout(0).callbacks.append(record("timeout"))
        env.process(spawned())
        last = env.event()
        last.callbacks.append(record("succeed-again"))
        last.succeed()

    env.process(driver())
    env.run()
    assert log == [
        "early-timeout", "succeed", "fail", "immediate-resume",
        "timeout", "bootstrap", "succeed-again",
    ]
    assert env.now == 5


@pytest.mark.parametrize("form", ["drain", "time", "event"])
def test_run_dispatches_every_event_through_step(monkeypatch, form):
    # Profilers count events by wrapping Environment.step, so run() must
    # never process an event any other way, in any of its three forms.
    steps = []
    original = Environment.step

    def counting_step(self):
        steps.append(self.peek())
        original(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    env = Environment()

    def worker(n):
        for __ in range(n):
            yield env.timeout(1)
            yield env.process(child())
        return n

    def child():
        yield env.timeout(0.5)

    workers = [env.process(worker(n)) for n in (2, 3, 4)]
    if form == "drain":
        env.run()
        assert not env._queue
    elif form == "time":
        env.run(until=4)
        assert env._queue  # stopped early: some events still pending
    else:
        assert env.run(until=workers[1]) == 3
        assert env._queue
    assert len(steps) == env._next_id - len(env._queue)
    assert steps == sorted(steps)


def test_finished_processes_need_no_cycle_collector():
    # A process holds its bound resume callback; once it finishes, that
    # self-reference must be gone, or every finished process lingers until
    # the cyclic collector runs.
    def live_processes() -> int:
        return sum(isinstance(obj, Process) for obj in gc.get_objects())

    gc.disable()
    try:
        before = live_processes()
        env = Environment()

        def work():
            yield env.timeout(1)
            return 1

        def waiter():
            return (yield env.process(work()))

        for __ in range(10):
            env.process(waiter())
        env.run()
        assert live_processes() == before
    finally:
        gc.enable()
