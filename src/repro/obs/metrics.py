"""Named counters, gauges and histograms for the simulators.

A :class:`MetricsRegistry` is a flat namespace of metrics addressed by
dotted name (``disk0.read_latency_us``, ``reader.retries``).  Everything is
zero-dependency, deterministic, and purely observational: recording a value
never touches any simulation clock.

Components keep their historical counters as plain instance attributes
(``reader.retries``, ``pool.misses``, ``disk.busy_time_us``), so a hot-path
``pool.hits += 1`` is a native attribute increment.  :func:`bind_counters`
registers a pull-based :class:`BoundCounter` view for each of them: the
registry *reads* the owner's attribute whenever it is asked for a value or
a snapshot, and writes through it on merge.  That is the "compatible
facade": the attribute *is* the metric, and ``reset_stats()`` zeroing the
attribute zeroes the metric.

Rebinding a name — a crash rebuild constructs a fresh buffer pool, reader
and disk array over the same registry — continues the total: the new owner's
attribute starts at the view's current value, and the view then reads the
new owner only, detaching the old one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BoundCounter",
    "bind_counters",
]

Number = Union[int, float]

#: Default histogram bucket upper bounds, in the storage layer's
#: microseconds: 64 us .. ~4.2 s in powers of four, plus +inf.
DEFAULT_BUCKETS_US: tuple[float, ...] = tuple(64.0 * 4**i for i in range(13))


class Counter:
    """A monotonically-written scalar (ints or float totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, delta: Number = 1) -> None:
        self.value += delta

    def merge_from(self, other: "Counter") -> None:
        """Fold another counter's total into this one."""
        self.value += other.value

    def snapshot(self) -> Number:
        return self.value


class BoundCounter(Counter):
    """A :class:`Counter` view whose value is an owner's plain attribute.

    Made by :func:`bind_counters`; reading ``value`` pulls the owner's
    attribute and assigning it writes the attribute back, so the owner's
    own ``+=`` and the registry always agree.
    """

    __slots__ = ("owner", "attr")

    def __init__(self, name: str, owner, attr: str) -> None:
        self.name = name
        self.owner = owner
        self.attr = attr

    @property
    def value(self) -> Number:
        return getattr(self.owner, self.attr)

    @value.setter
    def value(self, value: Number) -> None:
        setattr(self.owner, self.attr, value)


class Gauge:
    """A scalar that goes up and down (queue depths, residency)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self.max_value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, delta: Number = 1) -> None:
        self.set(self.value + delta)

    def merge_from(self, other: "Gauge") -> None:
        """Fold another gauge in: values add (a fleet's in-flight total is
        the sum of its members'), and ``max_value`` adds too — the true
        fleet-wide peak is unobservable after the fact, so the sum is kept
        as a conservative upper bound."""
        self.value += other.value
        self.max_value += other.max_value

    def snapshot(self) -> dict[str, Number]:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """Fixed-bucket distribution with sum/count/min/max.

    ``bounds`` are inclusive upper edges; values above the last bound land
    in an implicit overflow bucket.  Bounds are fixed at construction, so
    two runs that record the same values produce identical snapshots.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = tuple(bounds if bounds is not None else DEFAULT_BUCKETS_US)
        if list(self.bounds) != sorted(self.bounds) or len(set(self.bounds)) != len(self.bounds):
            raise ValueError(f"histogram bounds must be strictly increasing, got {self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        # The first bound >= value; NaN compares false against every bound,
        # so it belongs in the overflow bucket (bisect alone would say 0).
        index = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's distribution into this one.

        Both histograms must share identical bucket bounds — merging
        differently-bucketed series would silently blur quantiles.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def snapshot(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound:g}": n for bound, n in zip(self.bounds, self.counts)},
                "overflow": self.counts[-1],
            },
        }


class MetricsRegistry:
    """A flat, typed namespace of named metrics.

    Metrics are created on first use and memoized; asking for an existing
    name with a different type is an error (it would silently fork the
    series).  Snapshots iterate names in sorted order, so exporting a
    registry is deterministic.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, kind: type, *args) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif type(metric) is not Histogram:
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a Histogram")
        return metric  # type: ignore[return-value]

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold every metric of ``other`` into this registry by name.

        Counters and gauges add; histograms merge bucket-wise (identical
        bounds required).  Metrics absent here are created with the same
        type (and, for histograms, the same bounds) before merging, so a
        fresh registry accumulates any number of source registries — the
        aggregation primitive behind fleet-wide
        :meth:`~repro.serve.stats.ServerStats.merge`.
        """
        for name in other.names():
            metric = other._metrics[name]
            if isinstance(metric, Counter):
                self.counter(name).merge_from(metric)
            elif isinstance(metric, Gauge):
                self.gauge(name).merge_from(metric)
            elif isinstance(metric, Histogram):
                self.histogram(name, metric.bounds).merge_from(metric)
            else:  # pragma: no cover - the registry only makes these three
                raise TypeError(f"metric {name!r} has unmergeable type {type(metric).__name__}")

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def value(self, name: str) -> Number:
        """Scalar value of a counter or gauge (0 if never created)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        raise TypeError(f"metric {name!r} has no scalar value")

    def snapshot(self) -> dict[str, object]:
        """Deterministic dict of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}


def bind_counters(obj, registry: MetricsRegistry, prefix: str, names: Iterable[str]) -> None:
    """Expose ``obj``'s plain counter attributes ``names`` as registry counters.

    Each ``prefix + name`` becomes a :class:`BoundCounter` reading
    ``obj.<name>`` (dots in ``name`` read as underscores:
    ``"breaker.fast_fails"`` is ``obj.breaker_fast_fails``), which this sets
    to the name's running total (0 for a new name).  A name already bound to
    another owner is rebound in place: the total carries over to ``obj`` and
    the old owner is detached.
    """
    for name in names:
        full = prefix + name
        attr = name.replace(".", "_")
        metric = registry._metrics.get(full)
        if metric is not None and not isinstance(metric, Counter):
            raise TypeError(f"metric {full!r} is a {type(metric).__name__}, not a Counter")
        setattr(obj, attr, 0 if metric is None else metric.value)
        if isinstance(metric, BoundCounter):
            metric.owner = obj
        else:
            # New, or a plain counter made before any owner: view it from here.
            registry._metrics[full] = BoundCounter(full, obj, attr)
