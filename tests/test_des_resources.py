"""Unit tests for DES resources and stores."""

import pytest

from repro.des import Environment, Resource, SimulationError, Store


def test_resource_serializes_access():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(name, hold):
        with resource.request() as grant:
            yield grant
            log.append((name, "in", env.now))
            yield env.timeout(hold)
            log.append((name, "out", env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [("a", "in", 0), ("a", "out", 5), ("b", "in", 5), ("b", "out", 8)]


def test_resource_capacity_two_overlaps():
    env = Environment()
    resource = Resource(env, capacity=2)
    entered = []

    def user(name):
        with resource.request() as grant:
            yield grant
            entered.append((name, env.now))
            yield env.timeout(4)

    for name in "abc":
        env.process(user(name))
    env.run()
    assert entered == [("a", 0), ("b", 0), ("c", 4)]


def test_resource_fifo_grant_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(name):
        with resource.request() as grant:
            yield grant
            order.append(name)
            yield env.timeout(1)

    for name in ["first", "second", "third", "fourth"]:
        env.process(user(name))
    env.run()
    assert order == ["first", "second", "third", "fourth"]


def test_resource_counts():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder():
        with resource.request() as grant:
            yield grant
            assert resource.count == 1
            yield env.timeout(2)

    def prober():
        yield env.timeout(1)
        assert resource.queue_length == 1

    def late():
        with resource.request() as grant:
            yield grant
            yield env.timeout(1)

    env.process(holder())
    env.process(late())
    env.process(prober())
    env.run()
    assert resource.count == 0
    assert resource.queue_length == 0


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_of_foreign_request_rejected():
    env = Environment()
    first = Resource(env, capacity=1)
    second = Resource(env, capacity=1)
    request = first.request()
    with pytest.raises(SimulationError):
        second.release(request)


def test_store_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in range(3):
            store.put(item)
            yield env.timeout(1)

    def consumer():
        for __ in range(3):
            item = yield store.get()
            received.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for item, __ in received] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(7)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 7)]
