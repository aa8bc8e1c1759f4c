"""DORA-style partition workers (§3.1, §4.2, §4.6).

A partition worker owns one database partition exclusively: its
softcore, its index coprocessor (a hash pipeline and a skiplist
pipeline sharing the in-flight budget semantics of §5.5) and one
communication link.  A worker never touches a remote partition's data
structures directly — a DB instruction bound for a remote partition
travels over the on-chip channels, is executed there as a *background*
request by that partition's coprocessor, and its result returns on the
response channel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..comm.channels import Crossbar, RequestPacket, ResponsePacket
from ..index.bptree.pipeline import BPTreePipeline, BPTreeTimings
from ..index.common import SCAN_EMIT_CYCLES, DbRequest
from ..index.hash.pipeline import HashIndexPipeline
from ..index.skiplist.pipeline import SkiplistPipeline, SkiplistTimings
from ..mem.schema import Catalog, IndexKind, TableSchema
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
    """One partition: softcore + index coprocessor + comm link."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        dram: DramModel,
        worker_id: int,
        n_workers: int,
        catalogue: Catalogue,
        hw_clock: HardwareClock,
        crossbar: Optional[Crossbar],
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
                                 hw_clock, config=softcore_config,
                                 stats=self.stats, on_txn_done=on_txn_done,
                                 tracer=tracer)
        self.hash_pipe = HashIndexPipeline(
            engine, clock, dram, f"w{worker_id}.hash", n_buckets=0,
            stats=self.stats, tracer=tracer)
        self.skiplist_pipe = SkiplistPipeline(
            engine, clock, dram, f"w{worker_id}.skiplist",
            timings=SkiplistTimings(scan_emit=SCAN_EMIT_CYCLES),
            create_default_table=False, stats=self.stats, tracer=tracer)
        # the B+ tree pipeline is built lazily on first use: a worker
        # with no BPTREE tables spawns no extra processes or memory
        # ports, keeping non-B+-tree runs cycle-identical
        self._bptree_pipe: Optional[BPTreePipeline] = None
        self._bptree_ctor = (engine, clock, dram, tracer)
        #: the in-flight budget the B+ tree pipeline is built with
        self._bptree_in_flight = self.hash_pipe.tokens.capacity

        self.softcore.route = self._route
        self.softcore.dispatch = self.dispatch

        self._bg_served = self.stats.counter(f"worker{worker_id}.background_requests")

        if crossbar is not None:
            engine.process(self._background_unit(),
                           name=f"w{worker_id}.background")
            engine.process(self._response_unit(),
                           name=f"w{worker_id}.responses")

    @property
    def bptree_pipe(self) -> BPTreePipeline:
        if self._bptree_pipe is None:
            engine, clock, dram, tracer = self._bptree_ctor
            self._bptree_pipe = BPTreePipeline(
                engine, clock, dram, f"w{self.worker_id}.bptree",
                max_in_flight=self._bptree_in_flight,
                timings=BPTreeTimings(scan_emit=SCAN_EMIT_CYCLES),
                create_default_table=False, stats=self.stats, tracer=tracer)
        return self._bptree_pipe

    # -- schema ------------------------------------------------------------
    def add_table(self, schema: TableSchema) -> None:
        if schema.index_kind == IndexKind.HASH:
            self.hash_pipe.add_table(schema.table_id, schema.hash_buckets)
        elif schema.index_kind == IndexKind.BPTREE:
            self.bptree_pipe.add_table(schema.table_id)
        else:
            self.skiplist_pipe.add_table(schema.table_id)

    def pipeline_for(self, table_id: int):
        schema = self.catalogue.schemas.table(table_id)
        if schema.index_kind == IndexKind.HASH:
            return self.hash_pipe
        if schema.index_kind == IndexKind.BPTREE:
            return self.bptree_pipe
        return self.skiplist_pipe

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
            if self.crossbar is None:
                raise RuntimeError("remote dispatch without a crossbar")
            self.crossbar.send_request(RequestPacket(
                src_worker=self.worker_id, dst_worker=dst, request=req))

    def _foreground_complete(self, req: DbRequest, result: DbResult) -> None:
        self.softcore.deliver(req.cp_index, result)

    # -- background units (remote requests / responses) -----------------------
    def _background_unit(self):
        """Watches the request channel; dispatches inbound instructions
        to the local coprocessor as background requests."""
        link = self.crossbar.link(self.worker_id)
        while True:
            packet: RequestPacket = yield link.requests.get()
            req = packet.request
            req.background = True
            req.on_complete = self._background_complete(packet.src_worker)
            self._bg_served.add()
            self.pipeline_for(req.table_id).submit(req)

    def _background_complete(self, initiator: int) -> Callable:
        def cb(req: DbRequest, result: DbResult) -> None:
            self.crossbar.send_response(ResponsePacket(
                src_worker=self.worker_id, dst_worker=initiator,
                cp_index=req.cp_index, txn_id=req.txn_id, result=result,
                req_id=req.req_id))
        return cb

    def _response_unit(self):
        """Watches the response channel; writes results back to CP
        registers asynchronously."""
        link = self.crossbar.link(self.worker_id)
        while True:
            packet: ResponsePacket = yield link.responses.get()
            self.softcore.deliver(packet.cp_index, packet.result)

    # -- convenience -----------------------------------------------------------
    def set_max_in_flight(self, n: int) -> None:
        self.hash_pipe.set_max_in_flight(n)
        self.skiplist_pipe.set_max_in_flight(n)
        self._bptree_in_flight = n
        if self._bptree_pipe is not None:
            self._bptree_pipe.set_max_in_flight(n)
