"""Discrete-event disk-array model.

Each disk is one *spindle*: a single long-lived DES process that serves a
FIFO of *commands* one at a time, with a service time from
:class:`repro.storage.config.DiskParameters` that depends on how far the
head must move from the previous command's block.  A read or write is a
queued command plus one completion :class:`~repro.des.Event`, not a process
of its own: the spindle starts on the disk's first command, parks on an
idle event when its queue empties, and is woken by the next arrival.
Pages are striped round-robin across disks (``page_id % num_disks``),
which is what lets jump-pointer-array prefetching overlap seeks on
different spindles — the mechanism behind the paper's Figure 18 speedups.

Two resilience hooks extend the fair-weather model:

* an optional :class:`~repro.faults.FaultInjector` perturbs individual
  reads — limped latency, transient timeouts (the command stalls, occupies
  the spindle, then fails with :class:`DiskTimeoutError`), corrupted
  deliveries (flagged on the :class:`ReadReceipt`, caught by the page
  checksum at the buffer pool), and permanent disk failures
  (:class:`DiskFailedError`);
* **mirrored striping** places every page on two spindles (chained
  declustering: the mirror of disk *d* is disk *d+1*), which is what makes
  retries and hedged reads useful against a slow or dead primary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..des import Environment, Event, Process
from ..faults.errors import DiskFailedError, DiskTimeoutError
from ..faults.injector import FaultInjector, ReadOutcome
from ..obs import Observability, bind_counters
from .config import StorageConfig

__all__ = ["Disk", "DiskArray", "ReadReceipt", "WriteReceipt"]


@dataclass(frozen=True)
class ReadReceipt:
    """What a completed disk read hands back to the reader.

    ``corrupt`` means the device delivered data whose bits no longer match
    the stored checksum — the reader must not install the page.
    """

    page_id: int
    disk_id: int
    service_us: float
    corrupt: bool = False


@dataclass(frozen=True)
class WriteReceipt:
    """What a completed disk write hands back to the writer."""

    page_id: int
    disk_id: int
    service_us: float


class Disk:
    """A single spindle: FIFO command service, head-position tracking.

    :meth:`submit` queues a command and returns its completion event; one
    spindle process (started on the first command) runs the commands in
    arrival order through :meth:`service` or :meth:`service_write`.  When a
    command finishes, the spindle triggers its event and starts the next
    queued command in the same step, so the next command's service begins
    at the instant the previous one ends.

    Counters live in the array's metrics registry (prefixed with this
    disk's track name, e.g. ``disk3.reads``) behind the attribute facade;
    completed reads feed a per-disk service-latency histogram, and every
    arrival samples the per-disk queue depth.
    """

    reads: int
    writes: int
    busy_time_us: float
    faults: int

    def __init__(self, env: Environment, array: "DiskArray", disk_id: int) -> None:
        self.env = env
        self.array = array
        self.disk_id = disk_id
        self.head_block = -1
        self.track = f"{array.name}{disk_id}"
        #: Commands ``(done, write, block, nbytes, page_id)`` in arrival
        #: order; the head is in service until its event is triggered.
        self._commands: Deque[tuple[Event, bool, int, int, int]] = deque()
        #: The spindle process, once the first command has started it.
        self.spindle: Optional[Process] = None
        #: The event the spindle is parked on while the queue is empty.
        self._idle: Optional[Event] = None
        obs = array.obs
        self._tracer = obs.tracer
        bind_counters(self, obs.metrics, self.track + ".", ("reads", "writes", "busy_time_us", "faults"))
        self._latency = obs.metrics.histogram(self.track + ".read_latency_us")
        self._queue_depth = obs.metrics.gauge(self.track + ".queue_depth")

    def submit(self, write: bool, block: int, nbytes: int, page_id: int = -1) -> Event:
        """Queue one command; the returned event fires when it completes.

        A read's event carries a :class:`ReadReceipt` or fails with the
        read's typed fault; a write's carries a :class:`WriteReceipt`.
        Arrival samples the queue depth (waiting + in service + 1).
        """
        commands = self._commands
        depth = len(commands) + 1
        self._queue_depth.set(depth)
        if self._tracer.enabled:
            self._tracer.counter(self.track + ".queue_depth", depth, track=self.track)
        done = Event(self.env)
        commands.append((done, write, block, nbytes, page_id))
        if self.spindle is None:
            self.spindle = self.env.process(self._spin())
        elif self._idle is not None:
            idle, self._idle = self._idle, None
            idle.succeed()
        return done

    def _spin(self):
        """The spindle process: serve queued commands one at a time, forever."""
        commands = self._commands
        while True:
            if not commands:
                self._idle = idle = Event(self.env)
                yield idle
            done, write, block, nbytes, page_id = commands[0]
            try:
                if write:
                    receipt = yield from self.service_write(block, nbytes, page_id)
                else:
                    receipt = yield from self.service(block, nbytes, page_id)
            except (DiskFailedError, DiskTimeoutError) as exc:
                done.fail(exc)
            else:
                done.succeed(receipt)
            commands.popleft()

    def _span(self, name: str, start: float, page_id: int, outcome: str, us: float) -> None:
        if self._tracer.enabled:
            self._tracer.complete(
                name, self.track, start, cat="disk", page=page_id, outcome=outcome, us=us
            )

    def service_write(self, block: int, nbytes: int, page_id: int = -1):
        """Command body: seek + transfer one write; returns a :class:`WriteReceipt`.

        Writes use the same positioning/transfer model as reads.  The
        read-fault injector never perturbs them: torn and lost writes are
        modelled above the spindle, at the WAL / write-back layer, where
        the crash points of a :class:`~repro.faults.FaultPlan` live.
        """
        start = self.env.now
        duration = self.array.config.disk.service_time_us(self.head_block, block, nbytes)
        self.head_block = block
        self.writes += 1
        self.busy_time_us += duration
        yield self.env.timeout(duration)
        self._span("write", start, page_id, "ok", duration)
        return WriteReceipt(page_id, self.disk_id, duration)

    def service(self, block: int, nbytes: int, page_id: int = -1):
        """Command body: seek + transfer one read; returns a :class:`ReadReceipt`.

        Raises a typed fault if the injector (when present) decides this
        read fails.  Every path that occupies the spindle — including a
        dead disk rejecting the command and a stalled command being
        declared lost — charges ``busy_time_us``, so utilization reflects
        real occupancy under any fault plan.
        """
        start = self.env.now
        injector = self.array.injector
        duration = self.array.config.disk.service_time_us(self.head_block, block, nbytes)
        if injector is None:
            self.head_block = block
            self.reads += 1
            self.busy_time_us += duration
            yield self.env.timeout(duration)
            self._latency.record(duration)
            self._span("read", start, page_id, "ok", duration)
            return ReadReceipt(page_id, self.disk_id, duration)

        decision = injector.decide(self.disk_id, self.env.now)
        if decision.outcome is ReadOutcome.DISK_FAILED:
            # A dead disk rejects the command quickly; the head is gone.
            # The rejection still occupies the spindle: charge it, or
            # utilization undercounts dead-disk occupancy.
            response = injector.plan.failed_response_us
            self.faults += 1
            self.busy_time_us += response
            yield self.env.timeout(response)
            self._span("read", start, page_id, "disk-failed", response)
            raise DiskFailedError(
                self.disk_id, page_id, injector.profile(self.disk_id).fail_at_us or 0.0
            )
        duration *= decision.latency_multiplier
        self.head_block = block
        self.reads += 1
        if decision.outcome is ReadOutcome.TIMEOUT:
            # The command stalls and occupies the spindle until the
            # device declares it lost — lost commands are not free.
            stall = duration * injector.plan.timeout_stall_multiplier
            self.faults += 1
            self.busy_time_us += stall
            yield self.env.timeout(stall)
            self._span("read", start, page_id, "timeout", stall)
            raise DiskTimeoutError(self.disk_id, page_id, stall)
        self.busy_time_us += duration
        yield self.env.timeout(duration)
        self._latency.record(duration)
        if decision.outcome is ReadOutcome.CORRUPT:
            self.faults += 1
            self._span("read", start, page_id, "corrupt", duration)
        else:
            self._span("read", start, page_id, "ok", duration)
        return ReadReceipt(
            page_id,
            self.disk_id,
            duration,
            corrupt=decision.outcome is ReadOutcome.CORRUPT,
        )


class DiskArray:
    """A bank of disks with round-robin page striping.

    With ``mirrored=True`` every page also lives on the next spindle
    (chained declustering), at the same block position; readers choose a
    replica via ``read_page(page_id, replica=...)``.
    """

    total_reads: int
    total_writes: int

    def __init__(
        self,
        env: Environment,
        config: StorageConfig,
        injector: Optional[FaultInjector] = None,
        mirrored: bool = False,
        obs: Optional[Observability] = None,
        name: str = "disk",
    ) -> None:
        if mirrored and config.num_disks < 2:
            raise ValueError("mirrored striping needs at least two disks")
        self.env = env
        self.config = config
        self.injector = injector
        self.mirrored = mirrored
        #: Track-name prefix: spindle ``i`` reports as ``f"{name}{i}"``.
        self.name = name
        self.obs = obs if obs is not None else Observability()
        bind_counters(self, self.obs.metrics, f"{name}-array.", ("total_reads", "total_writes"))
        self.disks = [Disk(env, self, i) for i in range(config.num_disks)]

    @property
    def replicas_per_page(self) -> int:
        return 2 if self.mirrored else 1

    def replica_disks(self, page_id: int) -> list[int]:
        """Disk ids holding a copy of ``page_id`` (primary first)."""
        primary = self.config.disk_of(page_id)
        if not self.mirrored:
            return [primary]
        return [primary, (primary + 1) % self.config.num_disks]

    def read_page(self, page_id: int, replica: int = 0) -> Event:
        """Start an asynchronous page read; the event fires on completion.

        ``replica`` selects which copy to read (modulo the replica count),
        so retry loops can simply pass their attempt number.
        """
        if page_id < 0:
            raise ValueError(f"invalid page id {page_id}")
        self.total_reads += 1
        disks = self.replica_disks(page_id)
        disk = self.disks[disks[replica % len(disks)]]
        block = self.config.block_of(page_id)
        return disk.submit(False, block, self.config.page_size, page_id)

    def write_page(self, page_id: int) -> Event:
        """Start an asynchronous page write; the event fires on completion.

        Writes always go to the primary replica — the durability model is
        single-copy (mirror resilvering is out of scope for the simulator).
        """
        if page_id < 0:
            raise ValueError(f"invalid page id {page_id}")
        self.total_writes += 1
        disk = self.disks[self.config.disk_of(page_id)]
        block = self.config.block_of(page_id)
        return disk.submit(True, block, self.config.page_size, page_id)

    def write_at(self, disk_id: int, block: int, nbytes: int) -> Event:
        """Start a raw write of ``nbytes`` at an explicit block position.

        Used by the write-ahead log, whose appends advance sequentially
        through its dedicated spindle rather than striding by page id.
        """
        if not 0 <= disk_id < len(self.disks):
            raise ValueError(f"invalid disk id {disk_id}")
        self.total_writes += 1
        return self.disks[disk_id].submit(True, block, nbytes)

    def utilization(self) -> list[float]:
        """Fraction of elapsed time each disk spent servicing requests."""
        if self.env.now <= 0:
            return [0.0] * len(self.disks)
        return [disk.busy_time_us / self.env.now for disk in self.disks]
