"""Host-speed calibration interleaved with the timed phase.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from one minute to the next, for the program and for any other Python
code alike.  A throughput measured on the raw clock therefore follows
the host as much as the program.  :class:`Calibrator` measures the
host's speed *while* the program runs: every ``every_s`` seconds of the
timed phase (checked at each :meth:`Calibrator.tick`, which the drive
loops call between ops) it runs a fixed slice of reference work and
times it.  The program's own time in each window is then scaled by the
reference work's speed in the slice that closes the window, relative to
:data:`NOMINAL_UNIT_S`, the reference speed of the host the benchmark
was defined on.  The result, :attr:`Calibrator.nominal_s`, is the timed
phase's duration on that nominal host.

The reference work does what the simulator's hot paths do: attribute
counters, integer arithmetic, and dict lookups with move-to-MRU on a
set-associative table of a few hundred kilobytes.  It touches nothing
of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Seconds one :func:`reference_unit` takes on the host the benchmark's
#: nominal speed is defined on (a 2-vCPU VM, CPython 3, measured as the
#: median over several minutes).  Only a scale: it cancels in any
#: comparison between runs.
NOMINAL_UNIT_S = 0.36e-3

_SETS = 512
_ASSOC = 8


class _Counters:
    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def reference_unit(table: list, counters: _Counters, state: int) -> int:
    """One unit of reference work: 400 lookups into a modelled cache."""
    for _ in range(400):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = state >> 12
        ways = table[line % _SETS]
        if line in ways:
            del ways[line]
            ways[line] = None
            counters.hits += 1
        else:
            counters.misses += 1
            if len(ways) >= _ASSOC:
                for victim in ways:
                    break
                del ways[victim]
                counters.evictions += 1
            ways[line] = None
    return state


class Calibrator:
    """Interleaves reference slices with a timed phase; see the module doc."""

    def __init__(self, every_s: float = 0.1, units: int = 20) -> None:
        self.every_s = every_s
        self.units = units
        self._table = [dict() for _ in range(_SETS)]
        self._counters = _Counters()
        self._state = 1
        #: Host seconds spent in reference slices.
        self.reference_s = 0.0
        #: Reference units run.
        self.reference_units = 0
        #: The timed phase's program time, scaled to the nominal host.
        self.nominal_s = 0.0
        self._window_start = 0.0
        self._next_at = float("inf")

    def start(self) -> None:
        """Open the first window; call right before the timed phase."""
        self._slice()  # warm the reference table and code before timing
        self.reference_s = 0.0
        self.reference_units = 0
        self.nominal_s = 0.0
        self._window_start = perf_counter()
        self._next_at = self._window_start + self.every_s

    def tick(self) -> None:
        """Close the window with a reference slice once it is ``every_s`` long."""
        if perf_counter() >= self._next_at:
            self._close_window()

    def stop(self) -> None:
        """Close the last window; call right after the timed phase."""
        self._close_window()
        self._next_at = float("inf")

    def _slice(self) -> float:
        table, counters, state = self._table, self._counters, self._state
        start = perf_counter()
        for _ in range(self.units):
            state = reference_unit(table, counters, state)
        took = perf_counter() - start
        self._state = state
        return took

    def unit_s(self, slices: int = 5) -> float:
        """Seconds per unit, the median of ``slices`` slices run outside any window."""
        return statistics.median(self._slice() for _ in range(slices)) / self.units

    def _close_window(self) -> None:
        program_s = perf_counter() - self._window_start
        took = self._slice()
        self.reference_s += took
        self.reference_units += self.units
        self.nominal_s += program_s * NOMINAL_UNIT_S / (took / self.units)
        self._window_start = perf_counter()
        self._next_at = self._window_start + self.every_s

    @property
    def speed(self) -> float:
        """Mean host speed over the timed phase, relative to the nominal host."""
        if not self.reference_units:
            return float("nan")
        return NOMINAL_UNIT_S / (self.reference_s / self.reference_units)
