"""BionicCluster: multiple BionicDB chips in a shared-nothing cluster.

The §4.6/§7 scale-out direction: each node is a full BionicDB chip
(its own DRAM, workers, on-chip channels); partitions are spread over
``n_nodes * workers_per_node`` global partition ids.  Same-node
cross-partition traffic takes the on-chip channels; cross-node traffic
takes microsecond-class inter-node links (AWS-F1-style).

Cross-node transactions may *read* remote partitions (SEARCH); remote
writes would need a distributed commit protocol the paper does not
design, so they raise :class:`ClusterError` (see DESIGN.md §6).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.config import BionicConfig
from ..core.system import RunReport
from ..errors import CrossNodeTransactionError, FrontendError, SubmissionError
from ..dora.worker import PartitionWorker
from ..mem.schema import Catalog, TableSchema
from ..mem.txnblock import BlockLayout, TransactionBlock, TxnStatus
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.memory import DramModel, Heap
from ..sim.stats import StatsRegistry
from ..softcore.catalogue import Catalogue
from ..txn.timestamps import HardwareClock
from .interconnect import ClusterError, HierarchicalInterconnect

__all__ = ["BionicCluster"]


class BionicCluster:
    """N BionicDB chips over inter-node message-passing links."""

    def __init__(self, n_nodes: int = 2,
                 config: Optional[BionicConfig] = None,
                 inter_latency_ns: float = 1500.0,
                 faults=None):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.config = config or BionicConfig()
        cfg = self.config
        self.n_nodes = n_nodes
        self.workers_per_node = cfg.n_workers
        self.total_workers = n_nodes * cfg.n_workers

        self.engine = Engine()
        self.clock = ClockDomain(self.engine, cfg.fpga_mhz, name="fpga")
        self.stats = StatsRegistry()
        self.hw_clock = HardwareClock()
        self.schemas = Catalog()
        self.catalogue = Catalogue(self.schemas,
                                   n_registers=cfg.softcore.n_registers)

        node_of = [w // cfg.n_workers for w in range(self.total_workers)]
        self.interconnect = HierarchicalInterconnect(
            self.engine, self.clock, node_of,
            intra_hop_cycles=cfg.comm_hop_cycles,
            inter_latency_ns=inter_latency_ns, stats=self.stats,
            faults=faults)

        # one DRAM per chip — shared nothing
        self.drams: List[DramModel] = [
            DramModel(self.engine, self.clock,
                      Heap(stats=self.stats),
                      latency_cycles=cfg.dram_latency_cycles,
                      channels=cfg.dram_channels, stats=self.stats)
            for _ in range(n_nodes)
        ]
        self._done_count = 0
        self.workers: List[PartitionWorker] = []
        for w in range(self.total_workers):
            node = node_of[w]
            self.workers.append(PartitionWorker(
                self.engine, self.clock, self.drams[node], w,
                self.total_workers, self.catalogue, self.hw_clock,
                self.interconnect,
                softcore_config=cfg.softcore,
                hash_kwargs=cfg.hash_kwargs(),
                skiplist_kwargs=cfg.skiplist_kwargs(),
                bptree_kwargs=cfg.bptree_kwargs(),
                stats=self.stats,
                on_txn_done=self._on_txn_done,
            ))
        self._txn_counter = 0
        self._done_callbacks: List = []
        self.frontend = None

    def node_of(self, worker: int) -> int:
        return worker // self.workers_per_node

    def footprint_index(self):
        """Lazily built static footprint summaries over the registered
        procedures (:class:`repro.analysis.footprint.FootprintIndex`) —
        what the front-end router consults to classify a submit as
        single-node *before* it can bounce off
        :class:`CrossNodeTransactionError`.  Summaries are cached per
        proc_id; re-registering procedures invalidates the cache."""
        if getattr(self, "_footprints", None) is None:
            from ..analysis.footprint import FootprintIndex
            self._footprints = FootprintIndex(
                self.catalogue, self.schemas, self.total_workers,
                node_of=self.node_of)
        return self._footprints

    def ownership_map(self):
        """partition -> (owner node, epoch); static here (no failover —
        that's :class:`repro.cluster.ha.HACluster`), but the same shape
        the front-end router consults before re-homing a cross-node
        submit."""
        return {w: (self.node_of(w), 0) for w in range(self.total_workers)}

    # -- schema / procedures / loading -------------------------------------
    def define_table(self, schema: TableSchema) -> TableSchema:
        self.schemas.add(schema)
        for worker in self.workers:
            worker.add_table(schema)
        return schema

    def register_procedure(self, proc_id: int, program,
                           verify: bool = True) -> None:
        self.catalogue.register(proc_id, program, verify=verify)
        self._footprints = None

    def load(self, table_id: int, key: Any, fields: Sequence[Any],
             partition: Optional[int] = None) -> None:
        schema = self.schemas.table(table_id)
        if schema.replicated:
            targets = range(self.total_workers)
        elif partition is not None:
            targets = [partition]
        else:
            targets = [schema.route(key, self.total_workers)]
        for w in targets:
            self.workers[w].pipeline_for(table_id).bulk_load(
                key, fields, table_id=table_id)

    # -- transactions ----------------------------------------------------------
    def new_block(self, proc_id: int, inputs: Sequence[Any],
                  layout: Optional[BlockLayout] = None,
                  worker: int = 0) -> TransactionBlock:
        """The block lives in its home worker's node DRAM."""
        self._txn_counter += 1
        dram = self.drams[self.node_of(worker)]
        layout = layout or self.config.block_layout
        if len(inputs) > layout.n_inputs:
            layout = BlockLayout(n_inputs=len(inputs),
                                 n_outputs=layout.n_outputs,
                                 n_scratch=layout.n_scratch,
                                 n_undo=layout.n_undo, n_scan=layout.n_scan)
        block = TransactionBlock(dram, txn_id=self._txn_counter,
                                 proc_id=proc_id, layout=layout)
        block.set_inputs(list(inputs))
        block.home_worker = worker
        return block

    def submit(self, block: TransactionBlock,
               worker: Optional[int] = None) -> None:
        w = worker if worker is not None else block.home_worker
        if not 0 <= w < self.total_workers:
            raise SubmissionError("submit worker out of range",
                                  worker=w, total_workers=self.total_workers)
        if self.node_of(w) != self.node_of(block.home_worker):
            # shared nothing: the block lives in its home node's DRAM; a
            # worker on another node would read a different heap
            # entirely.  Typed so a router can re-plan (re-home, split,
            # or queue for the owning node) instead of string-matching.
            raise CrossNodeTransactionError(
                "block is homed on another node's DRAM; create it with "
                "new_block(..., worker=<target>) so the data is local",
                worker=w, home_worker=block.home_worker,
                worker_node=self.node_of(w),
                home_nodes={self.node_of(block.home_worker)},
                partitions={w, block.home_worker})
        self.catalogue.lookup(block.proc_id)  # raises if unregistered
        block.submitted_at_ns = self.engine.now
        self.workers[w].softcore.submit(block)

    def _on_txn_done(self, block) -> None:
        self._done_count += 1
        block.done_at_ns = self.engine.now
        for fn in self._done_callbacks:
            fn(block)

    # -- front-end attach point (repro.frontend) -----------------------------
    def add_done_callback(self, fn) -> None:
        self._done_callbacks.append(fn)

    def remove_done_callback(self, fn) -> None:
        if fn in self._done_callbacks:
            self._done_callbacks.remove(fn)

    def attach_frontend(self, frontend) -> None:
        """Wire a :class:`repro.frontend.FrontEnd` over the whole
        cluster: requests are dispatched to global worker ids."""
        if self.frontend is not None:
            raise FrontendError("a front-end is already attached",
                                attached=type(self.frontend).__name__)
        self.frontend = frontend
        self.add_done_callback(frontend._note_done)

    def detach_frontend(self, frontend) -> None:
        if self.frontend is not frontend:
            raise FrontendError("front-end is not the attached one")
        self.frontend = None
        self.remove_done_callback(frontend._note_done)

    def run(self, until: Optional[float] = None) -> float:
        now = self.engine.run(until=until)
        for worker in self.workers:
            proc = worker.softcore._proc
            if proc.triggered:
                _ = proc.value
        return now

    def run_all(self, blocks: Sequence[TransactionBlock],
                workers: Optional[Sequence[int]] = None) -> RunReport:
        start_ns = self.engine.now
        committed0 = self._committed_total()
        aborted0 = self._aborted_total()
        for i, block in enumerate(blocks):
            self.submit(block, workers[i] if workers is not None else None)
        self.run()
        return RunReport(
            submitted=len(blocks),
            committed=self._committed_total() - committed0,
            aborted=self._aborted_total() - aborted0,
            elapsed_ns=self.engine.now - start_ns,
        )

    def _committed_total(self) -> int:
        return sum(self.stats.counter(f"worker{w}.committed").value
                   for w in range(self.total_workers))

    def _aborted_total(self) -> int:
        return sum(self.stats.counter(f"worker{w}.aborted").value
                   for w in range(self.total_workers))

    # -- verification -------------------------------------------------------------
    def lookup(self, table_id: int, key: Any,
               partition: Optional[int] = None):
        schema = self.schemas.table(table_id)
        w = partition if partition is not None else (
            0 if schema.replicated else schema.route(key, self.total_workers))
        return self.workers[w].pipeline_for(table_id).lookup_direct(
            key, table_id=table_id)
