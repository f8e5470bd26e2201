"""Access tracing: the bridge between index code and the cache simulator.

Index implementations never talk to :class:`repro.mem.MemorySystem`
directly; they go through a :class:`Tracer`, which either forwards accesses
(cache-performance experiments) or swallows them (pure-functional and
I/O-only experiments, where ``mem is None``).  This keeps a single code path
for every tree operation regardless of the measurement plane.

Every forwarded access is *batched*: one ``read_run``/``write_run``/
``prefetch_run``/``probe_run`` call per byte range, so the memory system
walks the covered cache lines in a single tight loop instead of paying a
Python call per line.  Those entry points are the memory system's only
access implementation; the golden-equivalence tests (DESIGN.md §8) pin them
to the frozen scalar engine in :mod:`repro.mem.legacy`, which exposes the
same four names, so this one tracer drives either engine.

The tracer also centralizes the CPU cost conventions:

* :meth:`probe` — one binary-search probe: a demand load of the key plus the
  compare/branch busy time and the expected branch-misprediction stall.
* :meth:`move` — shifting ``nbytes`` of entries during insertion/deletion:
  demand-touches the source and destination line ranges and charges the
  per-line copy busy time.  This is the "data movement" cost that dominates
  updates in disk-optimized B+-Trees (paper Section 4.2.2).
"""

from __future__ import annotations

from typing import Optional

from ..mem.hierarchy import MemorySystem

__all__ = ["Tracer", "RecordingTracer", "replay_ops", "NULL_TRACER"]


class Tracer:
    """Forwards simulated memory accesses to an optional memory system."""

    __slots__ = ("mem",)

    def __init__(self, mem: Optional[MemorySystem] = None) -> None:
        self.mem = mem

    @property
    def active(self) -> bool:
        """True when accesses are being accounted."""
        return self.mem is not None and self.mem.enabled

    # -- plain accesses ------------------------------------------------------

    def read(self, address: int, nbytes: int) -> None:
        mem = self.mem
        if mem is not None:
            mem.read_run(address, nbytes)

    def write(self, address: int, nbytes: int) -> None:
        mem = self.mem
        if mem is not None:
            mem.write_run(address, nbytes)

    def prefetch(self, address: int, nbytes: int) -> None:
        mem = self.mem
        if mem is not None:
            mem.prefetch_run(address, nbytes)

    def busy(self, cycles: float) -> None:
        mem = self.mem
        if mem is not None:
            mem.busy(cycles)

    # -- composite costs ------------------------------------------------------

    def probe(self, address: int, nbytes: int = 4) -> None:
        """One binary-search probe: load + compare + branch."""
        mem = self.mem
        if mem is not None:
            mem.probe_run(address, nbytes)

    def scan(self, address: int, nbytes: int, per_line_busy: float = 2.0) -> None:
        """Sequentially read a byte range, with light per-line busy work."""
        mem = self.mem
        if mem is None or nbytes <= 0:
            return
        lines = mem.read_run(address, nbytes)
        mem.busy(per_line_busy * lines)

    def move(self, dst_address: int, src_address: int, nbytes: int) -> None:
        """Copy ``nbytes`` from src to dst (entry shifting / node copying)."""
        mem = self.mem
        if mem is None or nbytes <= 0:
            return
        mem.read_run(src_address, nbytes)
        lines = mem.write_run(dst_address, nbytes)
        mem.busy(mem.cpu.copy_per_line * lines)

    def visit_node(self) -> None:
        """Per-node bookkeeping cost (header decode, bounds setup)."""
        mem = self.mem
        if mem is not None:
            mem.busy(mem.cpu.node_visit)

    def call_overhead(self) -> None:
        """Per-operation dispatch cost."""
        mem = self.mem
        if mem is not None:
            mem.busy(mem.cpu.function_call)


class RecordingTracer(Tracer):
    """A tracer that also records every op for later replay.

    Used by ``benchmarks/bench_selfperf.py`` to capture the exact access
    stream a search workload produces, so the engines can be raced on the
    *same* trace — and by tests, to assert that two replay paths see the
    same ops.  Records are plain tuples, ``(op_name, *args)``, replayable
    via :func:`replay_ops`.
    """

    __slots__ = ("ops",)

    def __init__(self, mem: Optional[MemorySystem] = None) -> None:
        super().__init__(mem)
        self.ops: list[tuple] = []

    def read(self, address: int, nbytes: int) -> None:
        self.ops.append(("read", address, nbytes))
        super().read(address, nbytes)

    def write(self, address: int, nbytes: int) -> None:
        self.ops.append(("write", address, nbytes))
        super().write(address, nbytes)

    def prefetch(self, address: int, nbytes: int) -> None:
        self.ops.append(("prefetch", address, nbytes))
        super().prefetch(address, nbytes)

    def busy(self, cycles: float) -> None:
        self.ops.append(("busy", cycles))
        super().busy(cycles)

    def probe(self, address: int, nbytes: int = 4) -> None:
        self.ops.append(("probe", address, nbytes))
        super().probe(address, nbytes)

    def scan(self, address: int, nbytes: int, per_line_busy: float = 2.0) -> None:
        self.ops.append(("scan", address, nbytes, per_line_busy))
        super().scan(address, nbytes, per_line_busy)

    def move(self, dst_address: int, src_address: int, nbytes: int) -> None:
        self.ops.append(("move", dst_address, src_address, nbytes))
        super().move(dst_address, src_address, nbytes)

    def visit_node(self) -> None:
        self.ops.append(("visit_node",))
        super().visit_node()

    def call_overhead(self) -> None:
        self.ops.append(("call_overhead",))
        super().call_overhead()


def replay_ops(ops, tracer) -> None:
    """Drive a tracer (or duck-typed equivalent) with recorded ops.

    Accepts the tuples produced by :class:`RecordingTracer` and the lists
    loaded from the committed golden-trace fixture.  Two extra op kinds
    address the memory system directly (they have no tracer method):
    ``other_stall`` and ``clear`` (cache flush).
    """
    mem = tracer.mem
    for op in ops:
        kind = op[0]
        # Dispatch ordered by observed frequency in search traces.
        if kind == "probe":
            tracer.probe(op[1], op[2])
        elif kind == "read":
            tracer.read(op[1], op[2])
        elif kind == "prefetch":
            tracer.prefetch(op[1], op[2])
        elif kind == "write":
            tracer.write(op[1], op[2])
        elif kind == "scan":
            tracer.scan(op[1], op[2], op[3])
        elif kind == "move":
            tracer.move(op[1], op[2], op[3])
        elif kind == "busy":
            tracer.busy(op[1])
        elif kind == "visit_node":
            tracer.visit_node()
        elif kind == "call_overhead":
            tracer.call_overhead()
        elif kind == "other_stall":
            mem.other_stall(op[1])
        elif kind == "clear":
            mem.clear_caches()
        else:
            raise ValueError(f"unknown trace op {kind!r}")


#: Shared inactive tracer for untraced use.
NULL_TRACER = Tracer(None)
