"""Per-transaction execution context.

Contexts live in a BRAM context table; saving/restoring one during a
transaction switch takes 10 cycles (§4.5).  A context records the
transaction block base address, the renamed register ranges, the
condition flags, the write set collected from DB results and the UNDO
log mirror used by the abort handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..isa.instructions import Opcode
from ..mem.txnblock import TransactionBlock, UndoEntry
from ..sim.engine import Event
from .catalogue import ProcedureEntry

__all__ = ["TxnContext", "WriteSetEntry"]


@dataclass(frozen=True)
class WriteSetEntry:
    op: Opcode
    table_id: int
    tuple_addr: int


@dataclass
class TxnContext:
    block: TransactionBlock
    entry: ProcedureEntry
    begin_ts: int
    gp_base: int
    cp_base: int
    # condition flags (CMP -> conditional branches)
    zero: bool = False
    neg: bool = False
    failed: bool = False
    fail_reason: Optional[str] = None
    # dynamic scheduling (§4.5 future work): CP register whose pending
    # result blocked this transaction's logic, or None, and the compile
    # unit (the blocked RET's) at which the logic section is re-entered
    blocked_on: Optional[int] = None
    resume_unit: int = 0
    # working-set buffer: transaction-block inputs staged into BRAM at
    # ingestion (Figure 2 shows this buffer inside the softcore)
    working_set: List[Any] = field(default_factory=list)
    # single-entry tuple line buffer: consecutive LOAD/WRFIELD accesses
    # to the same record line cost one DRAM read, not one per field
    line_buf_addr: int = 0
    line_buf: Any = None
    # DB bookkeeping
    write_set: List[WriteSetEntry] = field(default_factory=list)
    undo: List[UndoEntry] = field(default_factory=list)
    outstanding: int = 0
    _drain_event: Optional[Event] = None

    @property
    def txn_id(self) -> int:
        return self.block.txn_id

    def fail(self, reason: str) -> None:
        """Mark the transaction for its abort handler; the first reason
        is the one reported."""
        self.failed = True
        if self.fail_reason is None:
            self.fail_reason = reason

    def note_result(self) -> None:
        self.outstanding -= 1
        if self.outstanding == 0 and self._drain_event is not None:
            ev, self._drain_event = self._drain_event, None
            ev.succeed(None)

    def wait_drained(self, engine) -> Event:
        """Commit handlers wait for all outstanding DB instructions."""
        ev = Event(engine)
        if self.outstanding == 0:
            ev.succeed(None)
        else:
            if self._drain_event is not None:
                raise RuntimeError("two waiters on one context drain")
            self._drain_event = ev
        return ev
