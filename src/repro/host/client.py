"""A durable client driver: submit through the command log.

Wraps :class:`BionicDB` submission with the §4.8 protocol: every input
transaction block is appended to the command log before execution and
finalised (with its commit state and timestamp) afterwards, so a crash
between the two leaves a replayable record.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.system import BionicDB
from ..mem.txnblock import BlockLayout, TransactionBlock
from .command_log import CommandLog

__all__ = ["DurableClient"]


class DurableClient:
    def __init__(self, db: BionicDB, log: Optional[CommandLog] = None,
                 path=None, faults=None):
        """Pass ``path`` (and optionally a fault plan) to log
        crash-consistently: every record is flushed to disk the moment
        it is appended or finalised, so an ack implies durability."""
        self.db = db
        if log is not None and path is not None:
            raise ValueError("pass a CommandLog or a path, not both")
        self.log = log if log is not None else CommandLog(path=path,
                                                          faults=faults)

    def execute(self, proc_id: int, inputs: Sequence,
                layout: Optional[BlockLayout] = None,
                worker: int = 0) -> TransactionBlock:
        """Run one transaction durably; returns the finished block."""
        block = self.db.new_block(proc_id, list(inputs), layout=layout,
                                  worker=worker)
        self.log.append_pending(block)
        try:
            self.db.submit(block, worker)
            self.db.run()
        finally:
            # even if the run blew up, record what we know: a block that
            # never reached COMMITTED stays replay-ignored, while its
            # input survives for post-mortem (§4.8 crash semantics)
            self.log.finalize(block)
        return block

    @property
    def committed(self) -> int:
        return sum(1 for r in self.log.records() if r.status == "committed")
