"""Control-flow helpers over the DES kernel: timeouts-with-cancel and races.

The kernel deliberately has no process interruption, so "cancelling" a wait
means *detaching from it*: :func:`with_timeout` and :func:`first_success`
return fresh events that resolve from whichever source wins, while the
losing events keep their observer callbacks attached — so a late failure is
always considered handled and never crashes the event loop.
"""

from __future__ import annotations

from typing import Iterable

from .core import Environment, Event

__all__ = ["WaitTimeout", "with_timeout", "first_success"]


class WaitTimeout(Exception):
    """A wait placed on an event expired before the event triggered."""

    def __init__(self, delay: float, detail: str = "") -> None:
        self.delay = delay
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"wait expired after {delay:g} time units{suffix}")


def _forward(source: Event, target: Event) -> None:
    """Resolve ``target`` with ``source``'s result, if still unresolved."""
    if target.triggered:
        return
    if source.ok:
        target.succeed(source.value)
    else:
        target.fail(source.value)


def with_timeout(env: Environment, event: Event, delay: float, detail: str = "") -> Event:
    """Wait on ``event`` for at most ``delay`` time units.

    Returns a new event that mirrors ``event`` if it resolves in time, and
    fails with :class:`WaitTimeout` otherwise.  Either way the underlying
    event is left to run to completion; its late result (success *or*
    failure) is silently absorbed.  When ``event`` wins, the timer stays
    queued (when ``run()`` drains is unchanged) but drops its callback, so
    it holds nothing of this wait until the deadline.
    """
    if not delay >= 0:  # NaN too (see Timeout)
        raise ValueError(f"delay must be a non-negative number, got {delay}")
    result = Event(env)
    if event.processed:
        _forward(event, result)
        return result
    timer = env.timeout(delay)

    def on_event(ev: Event) -> None:
        _forward(ev, result)
        if not timer.processed:
            timer.callbacks.remove(on_timer)

    def on_timer(__: Event) -> None:
        if not result.triggered:
            result.fail(WaitTimeout(delay, detail))

    event.callbacks.append(on_event)
    timer.callbacks.append(on_timer)
    return result


def first_success(env: Environment, events: Iterable[Event]) -> Event:
    """Race ``events``; resolve with the first *success*.

    The returned event succeeds with ``(index, value)`` of the first event
    to succeed.  Unlike :class:`~repro.des.AnyOf`, individual failures do
    not abort the race — the result only fails (with the last failure) once
    *every* contender has failed.  Losers are absorbed as in
    :func:`with_timeout`.
    """
    contenders = list(events)
    if not contenders:
        raise ValueError("first_success() needs at least one event")
    result = Event(env)
    state = {"pending": len(contenders), "last_error": None}

    def observe(index: int, ev: Event) -> None:
        state["pending"] -= 1
        if result.triggered:
            return
        if ev.ok:
            result.succeed((index, ev.value))
        else:
            state["last_error"] = ev.value
            if state["pending"] == 0:
                result.fail(state["last_error"])

    # Every contender gets an observer even after the race is decided, so a
    # late failure is always handled and never crashes the event loop.
    for index, ev in enumerate(contenders):
        if ev.processed:
            observe(index, ev)
        else:
            ev.callbacks.append(lambda e, i=index: observe(i, e))
    return result
