"""Discrete-event simulation kernel.

A small, dependency-free, simpy-flavoured event loop.  Simulation *processes*
are Python generators that ``yield`` :class:`Event` objects; the
:class:`Environment` resumes a process when the event it waits on is
triggered.  Time is a float with no unit attached — the storage layer uses
microseconds, but nothing in this module cares.

Only the features the reproduction needs are implemented: timeouts, generic
events, process joining, and ``AllOf``/``AnyOf`` condition events.  Process
interruption is deliberately left out; the disk and DBMS models never cancel
in-flight work.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding twice)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is *processed* once the environment has run
    its callbacks.  Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        heappush(env._queue, (env._now, env._next_id, self))
        env._next_id += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        heappush(env._queue, (env._now, env._next_id, self))
        env._next_id += 1
        return self

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` rather than ``<``: a NaN delay compares false both ways
        # and would otherwise fire first and set the clock to NaN.
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number, got {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.delay = delay
        heappush(env._queue, (env._now + delay, env._next_id, self))
        env._next_id += 1


ProcessGenerator = Generator[Event, Any, Any]

#: Allocates an :class:`Event` without running ``__init__`` (see
#: :meth:`Process._resume_now`).
_new_event = object.__new__


class Process(Event):
    """Wraps a generator, resuming it whenever the yielded event triggers.

    A ``Process`` is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other
    (``yield env.process(work())``).

    A waiting process is referenced only from the callbacks of the event it
    yielded; it keeps no pointer back to that event.  Resuming on an event
    that was already processed, and the bootstrap at creation, go through
    :meth:`_resume_now`, which queues a pre-triggered event at the current
    time.
    """

    __slots__ = ("_generator", "_resumer")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._generator = generator
        #: The bound ``_resume``, made once rather than once per wait.
        self._resumer = self._resume
        # Bootstrap: resume the process at the current simulation time.
        self._resume_now(True, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def _resume_now(self, ok: bool, value: Any) -> None:
        """Schedule a resumption with ``(ok, value)`` at the current time.

        The resumption is an already-triggered :class:`Event` whose only
        callback is this process, queued like :meth:`Event.succeed` would
        queue it (same time, next event id).  Its slots are set directly:
        the event is born triggered, so ``Event.__init__``'s pending state
        would only be overwritten.
        """
        env = self.env
        event = _new_event(Event)
        event.env = env
        event.callbacks = [self._resumer]
        event._value = value
        event._ok = ok
        event._triggered = True
        heappush(env._queue, (env._now, env._next_id, event))
        env._next_id += 1

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._resumer = None  # break the self-cycle: refcounting frees us
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._resumer = None
            self.fail(exc)
            return
        env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current time.
            self._resume_now(target._ok, target._value)
        else:
            callbacks.append(self._resumer)


class _ConditionEvent(Event):
    """Base for AllOf / AnyOf."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        #: Events not yet observed; AllOf finalizes when this reaches zero.
        self._pending = len(self.events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
        if not self._triggered and self._pending == 0:
            self._finalize()

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _finalize(self) -> None:
        raise NotImplementedError

    def _values(self) -> list[Any]:
        return [event.value for event in self.events if event.triggered and event.ok]


class AllOf(_ConditionEvent):
    """Triggers when every given event has triggered (fails fast on failure)."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self._finalize()

    def _finalize(self) -> None:
        self.succeed(self._values())


class AnyOf(_ConditionEvent):
    """Triggers as soon as one of the given events triggers."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._finalize()

    def _finalize(self) -> None:
        self.succeed(self._values())


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._next_id = 0
        self._active_process: Optional[Process] = None
        #: Optional lifecycle hook, called as ``observer(kind, event)`` with
        #: ``kind`` in {"process", "step"}.  Purely observational — the
        #: kernel never lets the hook schedule or advance anything.  Used by
        #: :func:`repro.obs.attach_des_observer`; None (the default) costs
        #: one attribute check per step.
        self.observer: Optional[Callable[[str, Event], None]] = None
        #: Drain checks, called (in registration order) whenever
        #: :meth:`run` finds the event queue empty — both at a normal
        #: ``run()`` completion and when ``run(until=event)`` drains before
        #: its stop event fires.  A check that detects stuck processes
        #: (e.g. latch waiters parked forever — see
        #: :class:`repro.btree.cc.PageLatchManager`) should raise a
        #: diagnostic; returning normally lets the drain proceed.
        self.drain_checks: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator."""
        proc = Process(self, generator)
        if self.observer is not None:
            self.observer("process", proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling / execution --------------------------------------------

    def step(self) -> None:
        """Process the single next event in the queue."""
        when, __, event = heappop(self._queue)
        self._now = when
        if self.observer is not None:
            self.observer("step", event)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waited for: surface the error rather
            # than letting it pass silently.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run up to that time), an :class:`Event`
        (run until it triggers, returning its value), or ``None`` (run until
        the queue drains).
        """
        # Every event goes through ``self.step`` (bound once per call), the
        # one dispatch that observers and profilers wrap.
        queue = self._queue
        step = self.step
        if isinstance(until, Event):
            stop_event = until
            while queue and stop_event.callbacks is not None:
                step()
            if not stop_event.triggered:
                self._run_drain_checks()
                raise SimulationError("run(until=event): queue drained before event fired")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
            while queue and queue[0][0] <= horizon:
                step()
            self._now = horizon
            return None
        while queue:
            step()
        self._run_drain_checks()
        return None

    def _run_drain_checks(self) -> None:
        for check in self.drain_checks:
            check()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
