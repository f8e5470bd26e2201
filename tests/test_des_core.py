"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.des import AllOf, AnyOf, Environment, Event, SimulationError


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
