"""The write-ahead log device.

The log is an append-only byte stream on its own dedicated spindle.  Every
append is charged simulated disk time through the DES: because appends
advance block-sequentially, most of them pay only a track-to-track
repositioning plus transfer — the cheap sequential writes that make WAL
cheaper than in-place page writes, which is the whole point of logging.

Crash injection hooks in here: a :class:`~repro.faults.CrashInjector`
consulted on every append can declare the append *torn* (only the first
half of the record's bytes reach the platter before power dies) or declare
a crash immediately *after* the append is durable.  Both raise
:class:`~repro.faults.SimulatedCrash` once the surviving bytes are in
place, so ``WriteAheadLog.data`` is exactly the post-crash media image.
"""

from __future__ import annotations

from typing import Optional

from ..des import Environment
from ..faults.errors import SimulatedCrash
from ..faults.injector import CrashInjector, WriteOutcome
from ..obs import Observability, bind_counters
from ..storage.config import DiskParameters, StorageConfig
from ..storage.disk import DiskArray
from .records import LogRecord, NO_PAGE, RecordType, encode_record, scan_records

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """Append-only record log on a dedicated simulated spindle.

    Counters live in the observability registry behind the attribute
    facade; each append is recorded as a span on the ``wal`` track,
    timestamped on the log's own I/O clock.
    """

    appends: int
    torn_appends: int
    bytes_written: int
    write_us: float

    def __init__(
        self,
        env: Environment,
        page_size: int = 16 * 1024,
        disk: Optional[DiskParameters] = None,
        crash: Optional[CrashInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.page_size = page_size
        self.crash = crash
        self.obs = obs if obs is not None else Observability()
        self._tracer = self.obs.tracer
        bind_counters(
            self, self.obs.metrics, "wal.",
            ("appends", "torn_appends", "bytes_written", "write_us"),
        )
        config = StorageConfig(
            page_size=page_size,
            num_disks=1,
            buffer_pool_pages=1,
            disk=disk if disk is not None else DiskParameters(),
        )
        self._device = DiskArray(env, config, obs=self.obs, name="wal-disk")
        self._data = bytearray()
        self._next_lsn = 1

    # -- durable state -------------------------------------------------------

    @property
    def data(self) -> bytes:
        """The on-media byte image of the log (includes any torn tail)."""
        return bytes(self._data)

    def records(self) -> list[LogRecord]:
        """The valid record prefix currently on media."""
        return scan_records(self._data)[0]

    # -- appending -----------------------------------------------------------

    def append(
        self,
        record_type: RecordType,
        txn_id: int,
        page_id: int = NO_PAGE,
        payload: bytes = b"",
        crashable: bool = True,
    ) -> LogRecord:
        """Stamp the next LSN on a record and write it to the log device.

        Raises :class:`SimulatedCrash` if the crash injector fires on this
        append — after the surviving bytes (all of them for a crash-after,
        half of them for a torn append) are on media and their disk time is
        charged.  ``crashable=False`` bypasses the injector (and its
        counters) — used for the attach-time checkpoint so that "crash
        after the Nth append" counts only update-path appends.
        """
        record = LogRecord(self._next_lsn, record_type, txn_id, page_id, payload)
        encoded = encode_record(record)
        outcome = WriteOutcome.OK
        count = 0
        if crashable and self.crash is not None:
            outcome = self.crash.on_wal_append()
            count = self.crash.wal_appends
        start = self.env.now
        if outcome is WriteOutcome.TORN:
            torn = encoded[: max(1, len(encoded) // 2)]
            self._write_bytes(torn)
            self.torn_appends += 1
            if self._tracer.enabled:
                self._tracer.complete(
                    "append", "wal", start, cat="wal",
                    lsn=record.lsn, type=record_type.name, bytes=len(torn), outcome="torn",
                )
            raise SimulatedCrash("wal-append-torn", count)
        self._write_bytes(encoded)
        self._next_lsn += 1
        self.appends += 1
        if self._tracer.enabled:
            self._tracer.complete(
                "append", "wal", start, cat="wal",
                lsn=record.lsn, type=record_type.name, bytes=len(encoded), outcome="ok",
            )
        if outcome is WriteOutcome.CRASH_AFTER:
            raise SimulatedCrash("wal-append", count)
        return record

    def _write_bytes(self, chunk: bytes) -> None:
        block = len(self._data) // self.page_size
        before = self.env.now
        event = self._device.write_at(0, block, len(chunk))
        self.env.run(until=event)
        self.write_us += self.env.now - before
        self._data.extend(chunk)
        self.bytes_written += len(chunk)
