"""Single-version timestamp-ordering concurrency control (§4.7).

BionicDB uses a variant of basic timestamp CC [Bernstein & Goodman 81]
with two deviations the paper spells out:

* any access to an uncommitted (dirty) tuple is blindly rejected and
  aborts the transaction immediately, with no care for serial order;
* there is no read-set buffering — if a second access to a previously
  visited tuple is denied by a concurrent update the transaction aborts
  to preserve repeatable read.

The visibility check runs *inside the index coprocessor* against the
matching tuple; these functions are invoked by pipeline terminal stages
at memory-service time so they see the same interleavings hardware
would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["ResultCode", "DbResult", "check_read", "check_write", "CcError"]


class CcError(RuntimeError):
    """Internal misuse of the CC layer (not a transaction abort)."""


class ResultCode(enum.IntEnum):
    """Return codes written into CP registers by the coprocessor."""

    OK = 0
    NOT_FOUND = -1
    CC_REJECT = -2       # visibility check denied -> transaction must abort
    DUPLICATE = -3       # insert found an existing visible key
    SCAN_OVERFLOW = -4   # scan result set exceeded the block's scan buffer


@dataclass(frozen=True)
class DbResult:
    """What a DB instruction writes back to its CP register."""

    code: ResultCode
    tuple_addr: int = 0
    value: Any = None     # scan count, payload word, etc.

    @property
    def ok(self) -> bool:
        return self.code is ResultCode.OK


def check_read(record, ts: int) -> ResultCode:
    """Grant a read of ``record`` to a transaction with timestamp ``ts``.

    Read permission is granted on a tuple having a lower write time.
    If the transaction is the latest reader, the tuple's read time is
    updated immediately.  Dirty tuples are blindly rejected.
    """
    if record.dirty:
        return ResultCode.CC_REJECT
    if record.tombstone:
        return ResultCode.NOT_FOUND
    if record.write_ts > ts:
        return ResultCode.CC_REJECT
    if ts > record.read_ts:
        record.read_ts = ts
    return ResultCode.OK


def check_write(record, ts: int, tombstone: bool = False) -> ResultCode:
    """Grant a write: requires lower read *and* write times; marks dirty.

    An UPDATE only marks the dirty bit and returns the address — the
    softcore performs the in-place update later.  REMOVE additionally
    sets the tombstone bit.
    """
    if record.dirty:
        return ResultCode.CC_REJECT
    if record.tombstone:
        return ResultCode.NOT_FOUND
    if record.read_ts > ts:
        return ResultCode.CC_REJECT
    if record.write_ts > ts:
        return ResultCode.CC_REJECT
    record.dirty = True
    if tombstone:
        record.tombstone = True
    return ResultCode.OK


def commit_record(record, commit_ts: int) -> None:
    """Commit protocol per tuple: clear dirty, stamp the write time."""
    if not record.dirty:
        raise CcError(f"committing a clean record at {record.addr}")
    record.dirty = False
    record.write_ts = commit_ts


def abort_write(record, was_insert: bool = False) -> None:
    """Abort protocol per tuple: clear dirty; inserts become tombstones."""
    record.dirty = False
    if was_insert:
        record.tombstone = True
    elif record.tombstone:
        # an aborted REMOVE: resurrect the tuple
        record.tombstone = False
