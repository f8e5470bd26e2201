"""Shared-resource primitives for the DES kernel.

Provides the abstractions the storage, DBMS and serving simulators need:

* :class:`Resource` — a counted resource (e.g. a disk's service slot or a
  pool of I/O server processes) with FIFO request queuing.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (used for request queues between producers and server processes).

All follow the simpy idiom: ``request()``/``put()``/``get()`` return events
to be yielded from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    # Context-manager sugar: ``with resource.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class Resource:
    """A resource with integer capacity and FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit, waking the next waiter."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            # Released before it was ever granted: just drop it.
            self._waiting.remove(request)
            return
        else:
            raise SimulationError("release() of a request not issued on this resource")
        if self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource (e.g. a brownout shrinking a token pool).

        Growing grants queued waiters immediately; shrinking never preempts
        current holders — the pool drains down to the new capacity as they
        release.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit an item (never blocks); returns an already-fired event."""
        event = Event(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)
        event.succeed()
        return event

    def get(self) -> Event:
        """Take the oldest item; the event triggers with the item as value."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
