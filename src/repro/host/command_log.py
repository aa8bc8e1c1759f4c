"""Command logging (§4.8).

BionicDB's recovery design follows VoltDB's command-logging approach:
the host CPU persists every *input* transaction block before returning
it to the client; after a failure it reloads the last checkpoint and
re-executes the committed blocks in commit-timestamp order.  Each
executed block already carries its commit state and commit timestamp,
preserving the input arguments — which is exactly what a command-log
record needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import CorruptionError
from ..mem.txnblock import TransactionBlock, TxnStatus
from .durable import FrameAppender, read_frames, write_frames

__all__ = ["LogRecord", "CommandLog"]

#: magic for the framed on-disk command-log format
LOG_MAGIC = b"BDBL"

_VALID_STATUSES = frozenset(s.value for s in TxnStatus)


@dataclass(frozen=True)
class LogRecord:
    """One durable command-log entry."""

    txn_id: int
    proc_id: int
    inputs: tuple
    home_worker: int
    layout_inputs: int
    layout_outputs: int
    layout_scratch: int
    layout_undo: int
    layout_scan: int
    status: str = "pending"
    commit_ts: int = 0

    @classmethod
    def from_block(cls, block: TransactionBlock) -> "LogRecord":
        layout = block.layout
        inputs = tuple(block.input_cell(i) for i in range(layout.n_inputs))
        return cls(
            txn_id=block.txn_id, proc_id=block.proc_id, inputs=inputs,
            home_worker=getattr(block, "home_worker", 0),
            layout_inputs=layout.n_inputs, layout_outputs=layout.n_outputs,
            layout_scratch=layout.n_scratch, layout_undo=layout.n_undo,
            layout_scan=layout.n_scan,
            status=block.header.status.value,
            commit_ts=block.header.commit_ts,
        )


class CommandLog:
    """An append-only log of transaction blocks.

    Records are appended *before* execution (so the input survives a
    crash) and finalised afterwards with the commit state.  ``save`` /
    ``load`` move the log to and from durable storage.

    Pass ``path`` to make the log *crash-consistent*: every
    ``append_pending`` and ``finalize`` immediately appends one framed,
    CRC-guarded record to the file (finalisation appends a second
    record for the same txn; load keeps the last), so a crash tears at
    most the record being written and ``load(strict=False)`` salvages
    everything before it.  Without a path, durability is explicit via
    ``save`` (the historical whole-file rewrite).
    """

    def __init__(self, path=None, faults=None, fsync: bool = False) -> None:
        self._records: List[LogRecord] = []
        self._index: dict = {}
        #: True when a non-strict load salvaged a damaged tail
        self.truncated: bool = False
        self._appender: Optional[FrameAppender] = None
        if path is not None:
            self._appender = FrameAppender(path, LOG_MAGIC, faults=faults,
                                           fsync=fsync)

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Close the incremental persistence file, if any."""
        if self._appender is not None:
            self._appender.close()

    def append_pending(self, block: TransactionBlock) -> None:
        if block.txn_id in self._index:
            raise ValueError(f"txn {block.txn_id} already logged")
        record = LogRecord.from_block(block)
        self._index[block.txn_id] = len(self._records)
        self._records.append(record)
        if self._appender is not None:
            self._appender.append(record)

    def finalize(self, block: TransactionBlock) -> None:
        """Record the commit state after execution."""
        try:
            pos = self._index[block.txn_id]
        except KeyError:
            raise ValueError(f"txn {block.txn_id} was never logged") from None
        record = replace(self._records[pos],
                         status=block.header.status.value,
                         commit_ts=block.header.commit_ts)
        self._records[pos] = record
        if self._appender is not None:
            self._appender.append(record)

    def append_record(self, record: LogRecord) -> None:
        """Apply one already-built record — the replication path, where
        frames arrive from the owner instead of from a local block.  A
        record for a txn already present replaces it (pending →
        finalised): the last frame wins, here and in :meth:`load`."""
        pos = self._index.get(record.txn_id)
        if pos is None:
            self._index[record.txn_id] = len(self._records)
            self._records.append(record)
        else:
            self._records[pos] = record
        if self._appender is not None:
            self._appender.append(record)

    @classmethod
    def from_records(cls, records: Sequence[LogRecord]) -> "CommandLog":
        """An in-memory log rebuilt from shipped frames (a follower's
        replica, or a migration log tail)."""
        log = cls()
        for record in records:
            log.append_record(record)
        return log

    def status_of(self, txn_id: int) -> Optional[str]:
        """The logged status of ``txn_id``, or ``None`` if unlogged."""
        pos = self._index.get(txn_id)
        return self._records[pos].status if pos is not None else None

    def records(self) -> Sequence[LogRecord]:
        return tuple(self._records)

    def committed_in_order(self) -> List[LogRecord]:
        """Committed records sorted by commit timestamp — the replay
        order §4.8 requires."""
        committed = [r for r in self._records
                     if r.status == TxnStatus.COMMITTED.value]
        return sorted(committed, key=lambda r: r.commit_ts)

    @property
    def max_commit_ts(self) -> int:
        return max((r.commit_ts for r in self._records
                    if r.status == TxnStatus.COMMITTED.value), default=0)

    # -- durability ------------------------------------------------------
    def save(self, path) -> None:
        """Persist atomically as a framed, per-record-checksummed file.

        A crash during save leaves the previous file intact; a crash
        that truncates the new file is detectable (and salvageable) at
        load time.
        """
        write_frames(path, LOG_MAGIC, list(self._records))

    @classmethod
    def load(cls, path, strict: bool = True) -> "CommandLog":
        """Load a saved log, verifying per-record checksums.

        ``strict=True`` raises :class:`CorruptionError` on any damage.
        ``strict=False`` salvages the intact prefix of a truncated or
        tail-corrupted log (the right recovery posture after losing
        power mid-append) and marks the instance ``truncated``.  A file
        without the log's magic is not a log and raises either way.

        An incrementally-written log may hold several frames for one
        txn (pending, then finalised); the last one wins.
        """
        records, intact = read_frames(path, LOG_MAGIC, strict=strict)
        log = cls()
        log.truncated = not intact
        for i, record in enumerate(records):
            cls._validate_record(record, i, path)
            log.append_record(record)
        return log

    @staticmethod
    def _validate_record(record, index: int, path) -> None:
        """Structural sanity of one decoded record — a frame can pass
        its CRC and still hold garbage if the file was tampered with."""
        ok = (isinstance(record, LogRecord)
              and isinstance(record.txn_id, int)
              and isinstance(record.proc_id, int)
              and record.status in _VALID_STATUSES
              and record.layout_inputs >= 0 and record.layout_outputs >= 0
              and record.layout_scratch >= 0 and record.layout_undo >= 0
              and record.layout_scan >= 0)
        if not ok:
            raise CorruptionError("command-log record failed validation",
                                  artifact=Path(path).name, record=index)
