"""DORA-style partition workers (§3.1, §4.2, §4.6).

A partition worker owns one database partition exclusively: its
softcore, its index coprocessor (a hash, a skiplist and a B+ tree
pipeline, each holding the in-flight budget of §5.5) and a request and
a response channel on the fabric.  The worker is wiring only: it hands
the softcore its router and dispatcher at construction and records
which pipeline serves each table.  A worker never touches a remote
partition's data structures directly — a DB instruction bound for a
remote partition travels over the on-chip channels, is executed there
as a *background* request by that partition's coprocessor, and its
result returns on the response channel.  The background unit and the
response unit are the two handlers the worker attaches to the fabric:
each runs when a packet arrives, one packet at a time per channel.
"""

from __future__ import annotations

from typing import Any, Optional

from ..comm.channels import Fabric, RequestPacket, ResponsePacket
from ..index.bptree.pipeline import BPTreePipeline
from ..index.common import DbRequest
from ..index.hash.pipeline import HashIndexPipeline
from ..index.skiplist.pipeline import SkiplistPipeline
from ..mem.schema import IndexKind, SchemaError, TableSchema
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.memory import DramModel
from ..sim.stats import StatsRegistry
from ..softcore.catalogue import Catalogue
from ..softcore.core import Softcore, SoftcoreConfig
from ..txn.cc import DbResult
from ..txn.timestamps import HardwareClock

__all__ = ["PartitionWorker"]


class PartitionWorker:
    """One partition: softcore + index coprocessor + two channels."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        dram: DramModel,
        worker_id: int,
        n_workers: int,
        catalogue: Catalogue,
        hw_clock: HardwareClock,
        crossbar: Fabric,
        softcore_config: Optional[SoftcoreConfig] = None,
        stats: Optional[StatsRegistry] = None,
        on_txn_done=None,
        tracer=None,
    ):
        self.engine = engine
        self.worker_id = worker_id
        self.n_workers = n_workers
        self.catalogue = catalogue
        self.crossbar = crossbar
        self.stats = stats or StatsRegistry()

        self.softcore = Softcore(engine, clock, dram, worker_id, catalogue,
                                 hw_clock, self._route, self.dispatch,
                                 config=softcore_config, stats=self.stats,
                                 on_txn_done=on_txn_done, tracer=tracer)
        self.hash_pipe = HashIndexPipeline(
            engine, clock, dram, f"w{worker_id}.hash", n_buckets=0,
            stats=self.stats, tracer=tracer)
        self.skiplist_pipe = SkiplistPipeline(
            engine, clock, dram, f"w{worker_id}.skiplist",
            create_default_table=False, stats=self.stats, tracer=tracer)
        self.bptree_pipe = BPTreePipeline(
            engine, clock, dram, f"w{worker_id}.bptree",
            create_default_table=False, stats=self.stats, tracer=tracer)
        #: table_id -> the pipeline that serves it
        self._pipes: dict = {}

        self._bg_served = self.stats.counter(f"worker{worker_id}.background_requests")
        crossbar.attach(worker_id, self._serve_request, self._serve_response)

    # -- schema ------------------------------------------------------------
    def add_table(self, schema: TableSchema) -> None:
        if schema.index_kind == IndexKind.HASH:
            pipe = self.hash_pipe
            pipe.add_table(schema.table_id, schema.hash_buckets)
        else:
            pipe = (self.bptree_pipe if schema.index_kind == IndexKind.BPTREE
                    else self.skiplist_pipe)
            pipe.add_table(schema.table_id)
        self._pipes[schema.table_id] = pipe

    def pipeline_for(self, table_id: int):
        try:
            return self._pipes[table_id]
        except KeyError:
            raise SchemaError(f"unknown table id {table_id}") from None

    # -- routing & dispatch ---------------------------------------------------
    def _route(self, table_id: int, key: Any) -> Optional[int]:
        schema = self.catalogue.schemas.table(table_id)
        return schema.route(key, self.n_workers)

    def dispatch(self, req: DbRequest, dst: Optional[int]) -> None:
        """Called by the softcore's Dispatch step (§4.3, Figure 4)."""
        if dst is None or dst == self.worker_id:
            req.on_complete = self._foreground_complete
            self.pipeline_for(req.table_id).submit(req)
        else:
            self.crossbar.send_request(RequestPacket(
                src_worker=self.worker_id, dst_worker=dst, request=req))

    def _foreground_complete(self, req: DbRequest, result: DbResult) -> None:
        self.softcore.deliver(req.cp_index, result)

    # -- background units (remote requests / responses) -----------------------
    def _serve_request(self, packet: RequestPacket) -> None:
        """The background unit: runs an inbound instruction on the local
        coprocessor as a background request."""
        req = packet.request
        req.background = True
        req.on_complete = self._respond
        self._bg_served.add()
        self.pipeline_for(req.table_id).submit(req)

    def _respond(self, req: DbRequest, result: DbResult) -> None:
        self.crossbar.send_response(ResponsePacket(
            src_worker=self.worker_id, dst_worker=req.src_worker,
            cp_index=req.cp_index, result=result))

    def _serve_response(self, packet: ResponsePacket) -> None:
        """The response unit: writes a result back to its CP register."""
        self.softcore.deliver(packet.cp_index, packet.result)

    # -- convenience -----------------------------------------------------------
    def set_max_in_flight(self, n: int) -> None:
        self.hash_pipe.set_max_in_flight(n)
        self.skiplist_pipe.set_max_in_flight(n)
        self.bptree_pipe.set_max_in_flight(n)
