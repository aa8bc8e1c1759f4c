"""Live partition migration: drain → transfer → re-own.

Moving a partition's ownership while traffic flows is the hard half of
elastic repartitioning.  The state machine:

``DRAINING``
    The router stops admitting new transactions for the partition —
    they queue instead (bounded client-visible unavailability starts
    ticking).  In the serial control-plane model the owner has no
    in-flight work, so the drain barrier costs one interconnect
    latency.

``TRANSFER``
    The destination already holds the partition's bootstrap snapshot
    (shipped at cluster formation); what moves now is the committed
    log *tail* past the destination's applied watermark, costed as a
    bulk transfer over the (possibly cut) inter-node links.

``RE_OWN``
    The destination replays the tail through the stock
    :class:`~repro.host.recovery.RecoveryManager`, the ownership map
    flips under a fresh epoch from the membership authority, and the
    queued transactions are released to the new owner.

``ABORTED``
    Either endpoint died mid-flight, or the links were cut.  Ownership
    never moved (the epoch only bumps at RE_OWN), so the abort path is
    trivially safe: queued work is released back to whichever node the
    ownership map still names — the failover machinery handles a dead
    source exactly as if no migration had been attempted.

The whole DRAINING→RE_OWN window is checked against
:data:`repro.cluster.ha.MIGRATION_BUDGET_NS`; blowing the budget is
recorded as a :class:`~repro.errors.MigrationError` on the record
(drills fail on it), not silently absorbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import MigrationError

__all__ = ["MigrationState", "MigrationRecord",
           "EST_RECORD_BYTES", "EST_SNAPSHOT_HEADER_BYTES"]

#: costing estimate for one shipped command-log record
EST_RECORD_BYTES = 96
#: costing estimate for the transfer preamble (manifest + watermark)
EST_SNAPSHOT_HEADER_BYTES = 64


class MigrationState(str, enum.Enum):
    DRAINING = "draining"
    TRANSFER = "transfer"
    RE_OWN = "re_own"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class MigrationRecord:
    """The audit trail of one drain→transfer→re-own attempt."""

    partition: int
    src: int
    dst: int
    started_ns: float
    state: MigrationState = MigrationState.DRAINING
    drained_ns: Optional[float] = None
    #: transfer completes (and the queue releases) at this instant
    release_ns: Optional[float] = None
    tail_records: int = 0
    transfer_bytes: int = 0
    epoch_before: int = 0
    epoch_after: Optional[int] = None
    replayed: int = 0
    queued_released: int = 0
    #: DRAINING→RE_OWN wall time, filled at completion
    unavailability_ns: Optional[float] = None
    failure: Optional[str] = None

    def check_budget(self, budget_ns: float) -> None:
        """Raise (and record) if the unavailability window blew the
        configured budget."""
        if (self.unavailability_ns is not None
                and self.unavailability_ns > budget_ns):
            self.failure = (f"unavailability {self.unavailability_ns:.0f}ns "
                            f"exceeded budget {budget_ns:.0f}ns")
            raise MigrationError(
                "migration blew its unavailability budget",
                partition=self.partition, src=self.src, dst=self.dst,
                unavailability_ns=self.unavailability_ns,
                budget_ns=budget_ns)

    def abort(self, reason: str) -> None:
        self.state = MigrationState.ABORTED
        self.failure = reason

    def summary(self) -> str:
        tail = (f" unavail={self.unavailability_ns:.0f}ns"
                if self.unavailability_ns is not None else "")
        fail = f" FAIL: {self.failure}" if self.failure else ""
        return (f"migrate p{self.partition} n{self.src}->n{self.dst} "
                f"[{self.state.value}] tail={self.tail_records} "
                f"bytes={self.transfer_bytes}{tail}{fail}")
