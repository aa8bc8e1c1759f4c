"""Transaction blocks (§4.3, Figure 3).

A transaction block is the unit a client submits: it carries the
transaction id, input data, and buffers for results, intermediate data
(scratch), UNDO logs and scan sets.  It lives in FPGA-side DRAM; the
softcore addresses its cells with base-offset addressing.

Cell map (offsets relative to the procedure-visible data base)::

    [header]                       <- base  (not procedure-addressable)
    inputs   @0 .. @n_inputs-1
    outputs  @out .. +n_outputs-1
    scratch  @scratch ..
    undo     @undo ..              (structured UNDO entries)
    scan     @scan ..              (scan result set)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..sim.memory import DramModel

__all__ = ["TxnStatus", "BlockLayout", "BlockHeader", "TransactionBlock", "UndoEntry"]


class TxnStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"
    #: shed by the front-end (NIC overflow, rate limit, backlog bound)
    #: before ever reaching a worker
    REJECTED = "rejected"
    #: deadline expired while queued in the front-end; never executed
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        return self not in (TxnStatus.PENDING, TxnStatus.RUNNING)


@dataclass(frozen=True)
class BlockLayout:
    """Sizes of the buffers inside a transaction block, in cells."""

    n_inputs: int = 8
    n_outputs: int = 8
    n_scratch: int = 4
    n_undo: int = 16
    n_scan: int = 64

    @property
    def out(self) -> int:
        return self.n_inputs

    @property
    def scratch(self) -> int:
        return self.n_inputs + self.n_outputs

    @property
    def undo(self) -> int:
        return self.scratch + self.n_scratch

    @property
    def scan(self) -> int:
        return self.undo + self.n_undo

    @property
    def data_cells(self) -> int:
        return self.scan + self.n_scan

    @property
    def total_cells(self) -> int:
        return 1 + self.data_cells  # +1 header cell


@dataclass
class BlockHeader:
    """Header cell contents: identity, status, commit bookkeeping."""

    txn_id: int
    proc_id: int
    status: TxnStatus = TxnStatus.PENDING
    begin_ts: int = 0
    commit_ts: int = 0
    undo_count: int = 0
    abort_reason: Optional[str] = None


@dataclass(frozen=True)
class UndoEntry:
    """One UNDO record: enough to restore a field written in place."""

    tuple_addr: int
    field: int
    old_value: Any


class TransactionBlock:
    """Host-side handle to a transaction block resident in DRAM."""

    def __init__(self, dram: DramModel, txn_id: int, proc_id: int,
                 layout: Optional[BlockLayout] = None):
        self.dram = dram
        self.layout = layout or BlockLayout()
        self.base = dram.heap.alloc(self.layout.total_cells)
        self.header = BlockHeader(txn_id=txn_id, proc_id=proc_id)
        dram.direct_write(self.base, self.header)
        self.home_worker = 0
        # Lifecycle timestamps (ns of simulated time), stamped by the
        # front-end / system as the block moves through the serving path.
        self.created_at_ns: Optional[float] = None    # client built it
        self.submitted_at_ns: Optional[float] = None  # entered a worker
        self.done_at_ns: Optional[float] = None       # reached a terminal state
        self.deadline_ns: Optional[float] = None      # absolute SLO deadline

    # The softcore's base address register points at the first input cell.
    @property
    def data_base(self) -> int:
        return self.base + 1

    @property
    def txn_id(self) -> int:
        return self.header.txn_id

    @property
    def proc_id(self) -> int:
        return self.header.proc_id

    # -- host-side (timing-free) access ------------------------------------
    def set_inputs(self, values: List[Any]) -> None:
        if len(values) > self.layout.n_inputs:
            raise ValueError(
                f"{len(values)} inputs exceed block capacity {self.layout.n_inputs}")
        for i, v in enumerate(values):
            self.dram.direct_write(self.data_base + i, v)

    def input_cell(self, i: int) -> Any:
        return self.dram.direct_read(self.data_base + i)

    def outputs(self) -> List[Any]:
        return [self.dram.direct_read(self.data_base + self.layout.out + i)
                for i in range(self.layout.n_outputs)]

    # -- address helpers used by the softcore --------------------------------
    def undo_slot(self, i: int) -> int:
        if i >= self.layout.n_undo:
            raise IndexError("UNDO log buffer overflow")
        return self.data_base + self.layout.undo + i

    def reset_for_replay(self) -> None:
        """Clear execution state, preserving inputs (command-log replay)."""
        self.header.status = TxnStatus.PENDING
        self.header.begin_ts = 0
        self.header.commit_ts = 0
        self.header.undo_count = 0
        self.header.abort_reason = None
