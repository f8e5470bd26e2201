"""Deterministic fault injection for the disk-array simulator.

The injector owns one seeded :class:`random.Random` stream per disk, drawn
from in the order that disk services requests.  Because the DES event loop
is itself deterministic (ties break on insertion order), the entire fault
history of a run is a pure function of ``(FaultPlan, workload)`` — no
wall-clock randomness anywhere, which is what makes chaos experiments
replayable bit for bit.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .plan import DiskFaultProfile, FaultPlan

__all__ = ["ReadOutcome", "FaultDecision", "FaultInjector", "WriteOutcome", "CrashInjector"]


class ReadOutcome(enum.Enum):
    """What the injector decided a single read should experience."""

    OK = "ok"
    CORRUPT = "corrupt"  # read completes; delivered data fails its checksum
    TIMEOUT = "timeout"  # command stalls, then the device declares it lost
    DISK_FAILED = "disk-failed"  # spindle is permanently dead


@dataclass(frozen=True)
class FaultDecision:
    """Outcome plus the latency multiplier in effect for one read."""

    outcome: ReadOutcome
    latency_multiplier: float = 1.0


class FaultInjector:
    """Draws per-read fault decisions from a :class:`FaultPlan`.

    One independent stream per disk keeps the decision sequence for a disk
    a function of *that disk's* service order only, so adding load on one
    spindle never perturbs another spindle's fault history.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._streams: dict[int, random.Random] = {}
        self.injected_corruptions = 0
        self.injected_timeouts = 0
        self.injected_disk_failures = 0
        self.limped_reads = 0

    def _stream(self, disk_id: int) -> random.Random:
        stream = self._streams.get(disk_id)
        if stream is None:
            stream = random.Random((self.plan.seed << 20) ^ (disk_id + 1))
            self._streams[disk_id] = stream
        return stream

    def profile(self, disk_id: int) -> DiskFaultProfile:
        return self.plan.profile(disk_id)

    def decide(self, disk_id: int, now_us: float) -> FaultDecision:
        """Fault decision for the read starting service now on ``disk_id``."""
        profile = self.plan.profile(disk_id)
        if profile.failed(now_us):
            self.injected_disk_failures += 1
            return FaultDecision(ReadOutcome.DISK_FAILED)
        multiplier = profile.limp_multiplier(now_us)
        if multiplier > 1.0:
            self.limped_reads += 1
        if profile.timeout_rate or profile.corrupt_rate:
            # Always burn both draws so the stream stays aligned regardless
            # of which fault (if any) fires.
            stream = self._stream(disk_id)
            timeout_draw = stream.random()
            corrupt_draw = stream.random()
            if timeout_draw < profile.timeout_rate:
                self.injected_timeouts += 1
                return FaultDecision(ReadOutcome.TIMEOUT, multiplier)
            if corrupt_draw < profile.corrupt_rate:
                self.injected_corruptions += 1
                return FaultDecision(ReadOutcome.CORRUPT, multiplier)
        return FaultDecision(ReadOutcome.OK, multiplier)


class WriteOutcome(enum.Enum):
    """What the crash injector decided a single durable write should do."""

    OK = "ok"
    CRASH_AFTER = "crash-after"  # the write lands, then the machine dies
    TORN = "torn"  # half the bytes land, then the machine dies


class CrashInjector:
    """Counts WAL appends and page writes, firing the plan's crash points.

    Unlike the per-read :class:`FaultInjector` this draws nothing random:
    crash points are pure 1-based counters over the run's lifetime, so a
    crash at "the 7th WAL append" lands on exactly the same logical write
    every run — the property the crash-recovery tests rely on.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.wal_appends = 0
        self.page_writes = 0
        self.page_splits = 0

    def on_wal_append(self) -> WriteOutcome:
        """Decision for the WAL append about to be performed."""
        self.wal_appends += 1
        if self.plan.torn_wal_append == self.wal_appends:
            return WriteOutcome.TORN
        if self.plan.crash_after_wal_appends == self.wal_appends:
            return WriteOutcome.CRASH_AFTER
        return WriteOutcome.OK

    def on_page_write(self) -> WriteOutcome:
        """Decision for the data-page write about to be performed."""
        self.page_writes += 1
        if self.plan.torn_page_write == self.page_writes:
            return WriteOutcome.TORN
        if self.plan.crash_after_page_writes == self.page_writes:
            return WriteOutcome.CRASH_AFTER
        return WriteOutcome.OK

    def on_page_split(self) -> WriteOutcome:
        """Decision for the index page split about to begin.

        ``CRASH_AFTER`` here means "die right now, before the split's page
        images reach the log" — the split is mid-transaction, so recovery
        must roll it back wholesale.
        """
        self.page_splits += 1
        if self.plan.crash_on_page_splits == self.page_splits:
            return WriteOutcome.CRASH_AFTER
        return WriteOutcome.OK
