"""Host-time spans recorded around the program's layer boundaries.

Tracing lives entirely in the benchmark: :func:`install` swaps selected
class attributes of the program for wrappers that record a span per call
(plain functions) or per resumption (process generators, so a DES process
that blocks on a disk read shows one span per slice of host work it did).
:meth:`Patches.restore` puts the originals back.  Nothing inside ``src/`` knows.

Each span stores its name, start, end, parent span and request id.  The
host is single-threaded, so spans nest strictly and the parent is simply
the innermost span open when the child starts.  Spans are kept in flat
arrays while the run lasts and written out once at the end.  A span's
*self time* is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np


class SpanRecorder:
    """Flat in-memory span store plus per-name call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.rids = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def open(self, nid: int, rid: int) -> int:
        index = len(self.starts)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if rid < 0 and parent >= 0:
            rid = self.rids[parent]  # inherit the request id of the caller
        self.name_ids.append(nid)
        self.parents.append(parent)
        self.rids.append(rid)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "rid": np.frombuffer(self.rids, dtype=np.int64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the duration of its direct children."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return duration - covered

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, spans, total and self host seconds."""
        spans = self.arrays()
        n = len(self.names)
        duration = spans["end"] - spans["start"]
        total = np.bincount(spans["name"], weights=duration, minlength=n)
        own = np.bincount(spans["name"], weights=self.self_times(), minlength=n)
        count = np.bincount(spans["name"], minlength=n)
        return {
            name: {
                "calls": self.calls[i],
                "spans": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Per layer (the span-name prefix before the first dot)."""
        layers: dict[str, dict[str, float]] = {}
        for name, row in self.by_name().items():
            layer = layers.setdefault(
                name.split(".", 1)[0], {"calls": 0, "spans": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in row.items():
                layer[key] += value
        return layers

    def write(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())


# -- wrappers ---------------------------------------------------------------

RidFn = Optional[Callable[..., int]]


def _rid(rid_fn: RidFn, args, kwargs) -> int:
    if rid_fn is None:
        return -1
    try:
        return int(rid_fn(*args, **kwargs))
    except (AttributeError, IndexError, TypeError, ValueError):
        return -1


def wrap_call(recorder: SpanRecorder, name: str, fn, rid_fn: RidFn = None):
    """A plain function, recorded as one span per call."""
    nid = recorder.name_id(name)
    calls = recorder.calls

    def traced(*args, **kwargs):
        calls[nid] += 1
        index = recorder.open(nid, _rid(rid_fn, args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    traced.__wrapped__ = fn
    return traced


def wrap_generator(recorder: SpanRecorder, name: str, fn, rid_fn: RidFn = None):
    """A generator function, recorded as one span per resumption."""
    nid = recorder.name_id(name)
    calls = recorder.calls

    def traced(*args, **kwargs):
        calls[nid] += 1
        rid = _rid(rid_fn, args, kwargs)
        inner = fn(*args, **kwargs)
        value = None
        error: Optional[BaseException] = None
        while True:
            index = recorder.open(nid, rid)
            try:
                if error is not None:
                    pending, error = error, None
                    target = inner.throw(pending)
                else:
                    target = inner.send(value)
            except StopIteration as stop:
                recorder.close(index)
                return stop.value
            except BaseException:
                recorder.close(index)
                raise
            recorder.close(index)
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                error = exc

    traced.__wrapped__ = fn
    return traced


def count_calls(counter: dict, name: str, fn):
    """A plain function that only counts its calls (no span, no timing)."""

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


# -- patching ---------------------------------------------------------------


class Patches:
    """Class-attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def replace(self, owner: type, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(recorder: SpanRecorder, patches: Patches, table) -> None:
    """Wrap every ``(owner, attr, span name, kind, rid_fn)`` row of ``table``.

    ``kind`` is ``"call"`` or ``"gen"``.
    """
    for owner, attr, name, kind, rid_fn in table:
        wrap = wrap_generator if kind == "gen" else wrap_call
        patches.replace(
            owner, attr, lambda fn, name=name, rid_fn=rid_fn, wrap=wrap: wrap(
                recorder, name, fn, rid_fn
            )
        )
