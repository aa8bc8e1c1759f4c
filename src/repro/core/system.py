"""BionicDB: the top-level system API.

A :class:`BionicDB` assembles the whole simulated machine of Figure 2:
``n_workers`` partition workers (softcore + index coprocessor + comm
link) over shared FPGA-side DRAM, a crossbar of on-chip channels, a
hardware timestamp clock, an FPGA resource ledger (Table 4) and a
power model (§5.8).

``BionicDB(config, n_nodes=k)`` is the §4.6/§7 scale-out of the same
machine: ``k`` such chips in a shared-nothing cluster, each with its
own DRAM and on-chip fabric, partitions spread over ``k * n_workers``
global worker ids.  Same-node traffic takes the chip's fabric;
cross-node traffic takes microsecond-class inter-node links and may
only *read* (SEARCH) — a remote write would need a distributed commit
protocol the paper does not design, so it raises
:class:`~repro.cluster.interconnect.ClusterError` (DESIGN.md §6).

Typical use::

    from repro.core import BionicDB, BionicConfig
    from repro.mem import TableSchema

    db = BionicDB(BionicConfig(n_workers=4))
    table = db.define_table(TableSchema(0, "kv"))
    db.register_procedure(0, program)      # a repro.isa Program
    db.load(0, key=1, fields=["hello"])    # bulk load
    block = db.new_block(proc_id=0, inputs=[1], worker=0)
    db.submit(block)
    db.run()
    print(block.header.status, block.outputs())
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import lt, ne
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..comm.channels import Crossbar
from ..dora.worker import PartitionWorker
from ..errors import (
    ConfigError, CrossNodeTransactionError, FrontendError,
    StuckTransactionError, SubmissionError,
)
from ..isa.instructions import Program
from ..mem.schema import Catalog, SchemaError, TableSchema
from ..mem.txnblock import BlockLayout, TransactionBlock, TxnStatus
from ..sim.clock import FPGA_MHZ, ClockDomain
from ..sim.engine import Engine, collector_quiesced
from ..sim.memory import DramModel, Heap
from ..sim.power import CpuPowerModel, FpgaPowerModel, PowerReport
from ..sim.resources import ResourceLedger, per_worker_costs
from ..sim.stats import StatsRegistry
from ..softcore.catalogue import Catalogue
from ..txn.timestamps import HardwareClock
from .config import BionicConfig

__all__ = ["BionicDB", "RunReport"]

#: the layout of a block whose caller names none
_DEFAULT_LAYOUT = BlockLayout()

#: keys routed per partition run, after its first, to check a
#: ``range_partitioned`` declaration (:meth:`BionicDB._range_runs`)
_RANGE_SAMPLES = 7


def _table_runs(rows: Iterable[tuple]) -> Iterator[tuple]:
    """``(table_id, keys, fields)`` columns from ``(table_id, key,
    fields)`` triples: one per run of consecutive rows of one table."""
    cur_table = None
    keys: List[Any] = []
    fields: List[Any] = []
    for table_id, key, row_fields in rows:
        if table_id != cur_table:
            if keys:
                yield cur_table, keys, fields
            cur_table, keys, fields = table_id, [], []
        keys.append(key)
        fields.append(row_fields)
    if keys:
        yield cur_table, keys, fields


def _ascending(keys) -> bool:
    """Strictly ascending, decided without a Python-level loop."""
    if type(keys) is range:
        return keys.step > 0
    try:
        return all(map(lt, keys, islice(keys, 1, None)))
    except TypeError:       # keys that do not order are not a sorted run
        return False


@dataclass
class RunReport:
    """Summary of a :meth:`BionicDB.run_all` execution."""

    submitted: int
    committed: int
    aborted: int
    elapsed_ns: float
    #: per-transaction submit-to-commit latencies (ns), when tracked
    latencies_ns: list = None

    @property
    def throughput_tps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.committed / (self.elapsed_ns * 1e-9)

    def latency_percentile_ns(self, p: float) -> float:
        """p in (0, 100]; nearest-rank percentile of txn latency."""
        from ..sim.stats import nearest_rank
        if not self.latencies_ns:
            return 0.0
        return nearest_rank(sorted(self.latencies_ns), p)


class BionicDB:
    """The simulated BionicDB machine: ``n_nodes`` chips of
    ``config.n_workers`` partition workers each (one chip by default)."""

    def __init__(self, config: Optional[BionicConfig] = None,
                 n_nodes: int = 1, inter_latency_ns: float = 1500.0,
                 faults=None):
        """``inter_latency_ns`` is the one-way inter-node link latency;
        ``faults`` an optional :class:`repro.faults.FaultPlan` armed on
        those links.  Neither matters to a one-node machine."""
        if n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1", n_nodes=n_nodes)
        self.config = config or BionicConfig()
        cfg = self.config
        self.n_nodes = n_nodes
        self.total_workers = n_nodes * cfg.n_workers
        self.engine = Engine()
        self.clock = ClockDomain(self.engine, FPGA_MHZ, name="fpga")
        self.stats = StatsRegistry()
        #: what load_many did (zero simulated cost): rows installed,
        #: bulk_load_many batches handed out, partition_fn calls made
        self._load_rows = self.stats.counter("core.load.rows")
        self._load_batches = self.stats.counter("core.load.batches")
        self._load_route_calls = self.stats.counter("core.load.route_calls")
        #: one heap and DRAM per chip — shared nothing
        self.drams: List[DramModel] = [
            DramModel(self.engine, self.clock, Heap(stats=self.stats),
                      stats=self.stats)
            for _ in range(n_nodes)]
        #: the one-node spelling: node 0's DRAM and heap
        self.dram = self.drams[0]
        self.heap = self.dram.heap
        self.hw_clock = HardwareClock()
        self.schemas = Catalog()
        self.catalogue = Catalogue(self.schemas)
        from ..sim.trace import NULL_TRACER
        self.tracer = cfg.tracer if cfg.tracer is not None else NULL_TRACER
        self.tracer.bind_clock(self.clock)
        if n_nodes == 1:
            self.crossbar = self._chip_fabric()
        else:
            from ..cluster.interconnect import HierarchicalInterconnect
            self.crossbar = HierarchicalInterconnect(
                self.engine, self.clock,
                [self.node_of(w) for w in range(self.total_workers)],
                fabrics=[self._chip_fabric() for _ in range(n_nodes)],
                inter_latency_ns=inter_latency_ns, stats=self.stats,
                faults=faults)
        self._done_count = 0
        self.workers: List[PartitionWorker] = [
            PartitionWorker(
                self.engine, self.clock, self.drams[self.node_of(w)], w,
                self.total_workers, self.catalogue, self.hw_clock,
                self.crossbar,
                softcore_config=cfg.softcore,
                stats=self.stats,
                on_txn_done=self._on_txn_done,
                tracer=self.tracer,
            )
            for w in range(self.total_workers)
        ]
        self._txn_counter = 0
        #: txn_id -> block, from submit() until the done callback; used
        #: to detect transactions silently stranded by a drained engine
        self._inflight: Dict[int, TransactionBlock] = {}
        #: proc ids whose table references were validated against the
        #: current schema catalog (reset when a table is defined)
        self._table_checked: set = set()
        #: completion hooks (the front-end's attach point, diagnostics)
        self._done_callbacks: List = []
        #: the attached repro.frontend.FrontEnd, if any
        self.frontend = None

    def _chip_fabric(self):
        """One chip's on-chip fabric, as ``comm_topology`` names it."""
        cfg = self.config
        if cfg.comm_topology == "ring":
            from ..comm.ring import RingInterconnect
            return RingInterconnect(self.engine, self.clock, cfg.n_workers,
                                    stats=self.stats)
        return Crossbar(self.engine, self.clock, cfg.n_workers,
                        stats=self.stats)

    # -- topology ------------------------------------------------------------
    def node_of(self, worker: int) -> int:
        return worker // self.config.n_workers

    def ownership_map(self) -> Dict[int, tuple]:
        """partition -> (owner node, epoch); static here (no failover —
        that is :class:`repro.cluster.ha.HACluster`), but the same shape
        the front-end router consults before re-homing a cross-node
        submit."""
        return {w: (self.node_of(w), 0) for w in range(self.total_workers)}

    # -- schema & procedures ------------------------------------------------
    def define_table(self, schema: TableSchema) -> TableSchema:
        self.schemas.add(schema)
        self._table_checked.clear()
        for worker in self.workers:
            worker.add_table(schema)
        return schema

    def register_procedure(self, proc_id: int, program: Program,
                           verify: bool = True) -> None:
        """Upload a pre-compiled stored procedure to every worker's
        catalogue (no FPGA reconfiguration required, §4.3).

        The program is statically verified first (deadlocking RETs,
        unreachable COMMIT, register pressure, …); pass ``verify=False``
        to install a known-defective program, e.g. to demonstrate the
        runtime failure modes the verifier exists to prevent.
        """
        self.catalogue.register(proc_id, program, verify=verify)
        self._table_checked.discard(proc_id)

    # -- loading -------------------------------------------------------------
    def load(self, table_id: int, key: Any, fields: Sequence[Any],
             partition: Optional[int] = None) -> None:
        """Bulk-load one committed row (timing-free host operation).

        Replicated tables are materialised in every partition; otherwise
        the row lands in the partition the schema routes it to (or an
        explicit ``partition``).
        """
        schema = self.schemas.table(table_id)
        self._check_partition(partition)
        if schema.replicated:
            targets: Iterable[int] = range(self.total_workers)
        elif partition is not None:
            targets = [partition]
        else:
            targets = [schema.route(key, self.total_workers)]
        for w in targets:
            # bulk_load takes its own copy of ``fields`` (one per replica)
            self.workers[w].pipeline_for(table_id).bulk_load(
                key, fields, table_id=table_id)

    def _check_partition(self, partition: Optional[int]) -> None:
        if partition is not None and not 0 <= partition < self.total_workers:
            raise SubmissionError("load partition out of range",
                                  partition=partition,
                                  n_workers=self.total_workers)

    def load_many(self, rows: Iterable[tuple] = (), *,
                  columns: Iterable[tuple] = (),
                  partition: Optional[int] = None) -> int:
        """Bulk-load rows (timing-free); returns the number loaded.

        The one bulk entry, behind every workload loader.  ``columns``
        yields ``(table_id, keys, fields)``: ``keys`` any sized,
        sliceable sequence (``range``, ``list``, ``array``) and
        ``fields`` a sequence as long, one field sequence per row.
        ``rows`` yields ``(table_id, key, fields)`` triples; each run
        of one table's rows is gathered into such a column first.

        A column is cut into runs of rows bound for one partition and
        each run is handed, as columns, to the pipeline's
        ``bulk_load_many``.  A table that declares ``range_partitioned``
        and offers strictly ascending keys is cut by bisecting its
        ``partition_fn`` (:meth:`_range_runs`); any other routes every
        key and is cut where the home changes; ``partition`` names the
        home outright, as in :meth:`load`.  The cyclic collector is
        held off until the last row is in
        (:func:`~repro.sim.engine.collector_quiesced`).  Rows are
        installed in the order offered and a replicated row is
        installed in every partition before the next one, so heap
        addresses — and with them DRAM channel assignment and all
        downstream simulated timing — are identical to calling
        :meth:`load` once per row; image tests pin that cell for cell.
        A row's ``fields`` are copied when its run is installed, not
        when it is offered: one sequence may stand for every row
        (``[fields] * n``), but a generator must not rewrite a
        ``fields`` object between rows.
        """
        self._check_partition(partition)
        with collector_quiesced(collect_on_exit=True):
            # (a sum over a generator: no column outlives its turn, so a
            # lazily built one is gone before the closing collection)
            return sum(self._load_column(table_id, keys, fields, partition)
                       for table_id, keys, fields
                       in chain(_table_runs(rows), columns))

    def _load_column(self, table_id: int, keys, fields,
                     partition: Optional[int]) -> int:
        """Install one table's key and field columns, run by run."""
        schema = self.schemas.table(table_id)
        n_rows = len(keys)
        if len(fields) != n_rows:
            raise SubmissionError("load_many columns differ in length",
                                  table_id=table_id, keys=n_rows,
                                  fields=len(fields))
        if not n_rows:
            return 0
        if schema.replicated:
            # a row's replicas take consecutive addresses, one per
            # worker: only row-at-a-time loading lays that out for
            # every index kind
            pipes = [worker.pipeline_for(table_id) for worker in self.workers]
            for key, row_fields in zip(keys, fields):
                for pipe in pipes:
                    pipe.bulk_load(key, row_fields, table_id=table_id)
            runs = []
        elif partition is not None:
            runs = [(0, n_rows, partition)]
        elif schema.range_partitioned and _ascending(keys):
            runs = self._range_runs(schema, keys)
        else:
            homes = list(map(schema.partition_fn, keys,
                             repeat(self.total_workers)))
            self._load_route_calls.value += n_rows
            changes = compress(count(1),
                               map(ne, homes, islice(homes, 1, None)))
            edges = [0, *changes, n_rows]
            runs = [(lo, hi, homes[lo]) for lo, hi in zip(edges, edges[1:])]
        for lo, hi, home in runs:
            self.workers[home].pipeline_for(table_id).bulk_load_many(
                keys[lo:hi], fields[lo:hi], table_id=table_id)
        self._load_rows.value += n_rows
        self._load_batches.value += len(runs)
        return n_rows

    def _range_runs(self, schema: TableSchema, keys) -> List[tuple]:
        """Cut strictly ascending ``keys`` of a ``range_partitioned``
        table into ``(lo, hi, home)`` partition runs by bisecting
        ``partition_fn``: O(partitions x log rows) routing calls where
        routing every key makes one per row.

        The declaration is then sampled, not proved: each run is routed
        at both ends and at evenly spaced keys between them, and a key
        that routes elsewhere raises :class:`SchemaError` before
        anything of the column is installed.  A ``partition_fn`` that
        misroutes a stretch shorter than the sampling step can still
        slip through; only routing every key, which is what an
        undeclared table gets, is exact.
        """
        n_workers = self.total_workers
        partition_fn = schema.partition_fn
        calls = 0

        def home_of(key):
            nonlocal calls
            calls += 1
            return partition_fn(key, n_workers)

        n_rows = len(keys)
        last_home = home_of(keys[-1])
        runs = []
        lo = 0
        while lo < n_rows:
            home = home_of(keys[lo])
            hi = n_rows if home == last_home else bisect_right(
                keys, home, lo + 1, n_rows, key=home_of)
            for step in range(1, _RANGE_SAMPLES + 1):
                key = keys[lo + (hi - 1 - lo) * step // _RANGE_SAMPLES]
                sampled = home_of(key)
                if sampled != home:
                    raise SchemaError(
                        f"table {schema.name!r} declares range_partitioned "
                        f"but key {key!r} routes to partition {sampled} "
                        f"inside a run of partition {home}")
            runs.append((lo, hi, home))
            lo = hi
        self._load_route_calls.value += calls
        return runs

    # -- transactions ----------------------------------------------------------
    def new_block(self, proc_id: int, inputs: Sequence[Any],
                  layout: Optional[BlockLayout] = None,
                  worker: Optional[int] = None) -> TransactionBlock:
        """Allocate a transaction block in its home worker's node DRAM
        and fill its inputs."""
        home = worker if worker is not None else 0
        if not 0 <= home < self.total_workers:
            raise SubmissionError("home worker out of range",
                                  worker=worker,
                                  n_workers=self.total_workers)
        self._txn_counter += 1
        layout = layout or _DEFAULT_LAYOUT
        if len(inputs) > layout.n_inputs:
            layout = BlockLayout(n_inputs=len(inputs),
                                 n_outputs=layout.n_outputs,
                                 n_scratch=layout.n_scratch,
                                 n_undo=layout.n_undo,
                                 n_scan=layout.n_scan)
        block = TransactionBlock(self.drams[self.node_of(home)],
                                 txn_id=self._txn_counter,
                                 proc_id=proc_id, layout=layout)
        block.set_inputs(list(inputs))
        block.home_worker = home
        return block

    def submit(self, block: TransactionBlock,
               worker: Optional[int] = None) -> None:
        home = block.home_worker
        w = worker if worker is not None else home
        if not 0 <= w < self.total_workers:
            raise SubmissionError("submit worker out of range",
                                  worker=w, n_workers=self.total_workers)
        if self.n_nodes > 1 and self.node_of(w) != self.node_of(home):
            # shared nothing: the block lives in its home node's DRAM; a
            # worker on another node would read a different heap
            # entirely.  Typed so a router can re-plan (re-home, split,
            # or queue for the owning node) instead of string-matching.
            raise CrossNodeTransactionError(
                "block is homed on another node's DRAM; create it with "
                "new_block(..., worker=<target>) so the data is local",
                worker=w, home_worker=home, worker_node=self.node_of(w),
                home_nodes={self.node_of(home)}, partitions={w, home})
        entry = self.catalogue.lookup(block.proc_id)  # raises if unknown
        self._check_tables(block.proc_id, entry)
        block.submitted_at_ns = self.engine.now
        self._inflight[block.txn_id] = block
        self.workers[w].softcore.submit(block)

    def _check_tables(self, proc_id: int, entry) -> None:
        """Admission check: every table the procedure touches must be
        defined, or its DB instructions would kill the softcore
        mid-simulation with a bare SchemaError."""
        if proc_id in self._table_checked:
            return
        missing = sorted(
            t for t in entry.tables_used
            if t not in {s.table_id for s in self.schemas})
        if missing:
            raise SubmissionError(
                "procedure references undefined tables",
                proc_id=proc_id, missing_tables=missing)
        self._table_checked.add(proc_id)

    def _on_txn_done(self, block: TransactionBlock) -> None:
        self._done_count += 1
        block.done_at_ns = self.engine.now
        self._inflight.pop(block.txn_id, None)
        for fn in self._done_callbacks:
            fn(block)

    # -- front-end attach point (repro.frontend) -----------------------------
    def add_done_callback(self, fn) -> None:
        """Call ``fn(block)`` whenever a transaction reaches a terminal
        state — the hook the network front-end (and any monitor) uses."""
        self._done_callbacks.append(fn)

    def remove_done_callback(self, fn) -> None:
        if fn in self._done_callbacks:
            self._done_callbacks.remove(fn)

    def attach_frontend(self, frontend) -> None:
        """Wire a :class:`repro.frontend.FrontEnd` as the serving path.

        Only one front-end may be attached at a time; it observes every
        completion through the done-callback hook."""
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

    # -- running -----------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Advance the simulation until idle (or ``until`` ns).

        ``max_events`` bounds the number of fired events — a watchdog
        against runaway procedures (e.g. an unconditional branch loop)
        that would otherwise spin the host forever.
        """
        now = self.engine.run(until=until, max_events=max_events)
        self._check_health(drained=self.engine.idle)
        return now

    def _check_health(self, drained: bool = False) -> None:
        """Once the event heap has drained, flag transactions that were
        submitted but never finished: a silently-stranded transaction
        must never masquerade as a quiet run.  (A softcore that dies
        needs no check: its exception has already left ``run()``.)"""
        if drained and self._inflight:
            stuck = {txn_id: block.header.status.value
                     for txn_id, block in sorted(self._inflight.items())}
            raise StuckTransactionError(
                f"{len(stuck)} transaction(s) still live after the event "
                f"heap drained — a procedure is waiting on a result that "
                f"can never arrive", stuck=stuck)

    def pending_blocks(self) -> List[TransactionBlock]:
        """Blocks submitted but not yet finished (diagnostics)."""
        return list(self._inflight.values())

    # -- fault injection (repro.faults) --------------------------------------
    def crash_after_events(self, n: int) -> None:
        """Arm a whole-machine crash ``n`` fired events from now: the
        next :meth:`run` raises :class:`SimulatedCrash` mid-batch, with
        in-flight transactions stranded exactly as a power cut would
        strand them.  Durable artifacts written before the crash are the
        only thing recovery gets."""
        if n < 1:
            raise SubmissionError("crash_after_events needs n >= 1", n=n)
        self.engine.crash_at_fired = self.engine.events_fired + n

    def run_all(self, blocks: Sequence[TransactionBlock],
                workers: Optional[Sequence[int]] = None) -> RunReport:
        """Submit ``blocks`` (optionally with explicit home workers), run
        to completion and summarise."""
        if workers is not None and len(workers) != len(blocks):
            raise SubmissionError("workers list does not match blocks",
                                  n_blocks=len(blocks), n_workers=len(workers))
        start_committed = self._committed_total()
        start_aborted = self._aborted_total()
        start_ns = self.engine.now
        for i, block in enumerate(blocks):
            self.submit(block, workers[i] if workers is not None else None)
        self.run()
        latencies = [block.done_at_ns - block.submitted_at_ns
                     for block in blocks
                     if getattr(block, "done_at_ns", None) is not None
                     and block.header.status is TxnStatus.COMMITTED]
        return RunReport(
            submitted=len(blocks),
            committed=self._committed_total() - start_committed,
            aborted=self._aborted_total() - start_aborted,
            elapsed_ns=self.engine.now - start_ns,
            latencies_ns=latencies,
        )

    def run_to_commit(self, blocks: Sequence[TransactionBlock],
                      workers: Optional[Sequence[int]] = None,
                      max_rounds: int = 200) -> RunReport:
        """Submit ``blocks`` and retry aborted transactions until every
        one commits (the usual client policy under timestamp-ordering
        CC, whose blind dirty rejection aborts a transaction that meets
        another worker's uncommitted write)."""
        if workers is not None and len(workers) != len(blocks):
            raise SubmissionError("workers list does not match blocks",
                                  n_blocks=len(blocks), n_workers=len(workers))
        if max_rounds < 1:
            raise SubmissionError("max_rounds must be >= 1",
                                  max_rounds=max_rounds)
        homes = (list(workers) if workers is not None
                 else [getattr(b, "home_worker", 0) for b in blocks])
        start_ns = self.engine.now
        total_aborts = 0
        last_reasons: List[str] = []
        pending = list(zip(blocks, homes))
        for _round in range(max_rounds):
            for block, home in pending:
                self.submit(block, home)
            self.run()
            failed = [(b, h) for b, h in pending
                      if b.header.status is not TxnStatus.COMMITTED]
            total_aborts += len(failed)
            if not failed:
                break
            last_reasons = sorted({b.header.abort_reason or "?"
                                   for b, _h in failed})
            for block, _home in failed:
                block.reset_for_replay()
            pending = failed
        else:
            raise StuckTransactionError(
                f"{len(pending)} transactions failed to commit after "
                f"{max_rounds} retry rounds",
                txn_ids=[b.txn_id for b, _h in pending][:16],
                abort_reasons=last_reasons[:8])
        # from the first submission: submit() restamps submitted_at_ns on
        # every retry round, which would credit a retried transaction
        # with its last attempt only
        latencies = [b.done_at_ns - start_ns for b in blocks]
        return RunReport(submitted=len(blocks), committed=len(blocks),
                         aborted=total_aborts,
                         elapsed_ns=self.engine.now - start_ns,
                         latencies_ns=latencies)

    def _committed_total(self) -> int:
        return sum(self.stats.counter(f"worker{w}.committed").value
                   for w in range(self.total_workers))

    def _aborted_total(self) -> int:
        return sum(self.stats.counter(f"worker{w}.aborted").value
                   for w in range(self.total_workers))

    # -- knobs used by benchmark sweeps -----------------------------------------
    def set_total_in_flight(self, n: int) -> None:
        """Spread a system-wide in-flight budget over the coprocessors
        (the Figure 10/11 x-axis)."""
        if n < 1:
            raise ValueError("in-flight budget must be >= 1")
        base, extra = divmod(n, self.total_workers)
        for i, worker in enumerate(self.workers):
            worker.set_max_in_flight(max(1, base + (1 if i < extra else 0)))

    # -- resource & power accounting (Table 4, §5.8) -------------------------------
    def resource_ledger(self) -> ResourceLedger:
        """One chip's ledger; every node of the machine is that chip."""
        from ..sim.resources import DEVICES
        costs = per_worker_costs()
        cfg = self.config
        device, platform = DEVICES[cfg.device]
        ledger = ResourceLedger(device=device, platform=platform)
        # crossbar wiring grows quadratically in workers (per-worker cost
        # grows linearly); the ring's per-worker station is constant —
        # the §4.6 scaling argument, normalised so 4 workers match Table 4
        if cfg.comm_topology == "crossbar":
            comm_vec = costs["communication"] * max(1, -(-cfg.n_workers // 4))
        else:
            comm_vec = costs["communication"]
        for w in range(cfg.n_workers):
            inst = f"w{w}"
            worker = self.workers[w]
            hash_vec = (costs["hash.base"] + costs["hash.traverse"]
                        * worker.hash_pipe.n_traverse_stages)
            ledger.add("Hash", hash_vec, inst)
            skiplist = worker.skiplist_pipe
            sl_vec = (costs["skiplist.base"]
                      + costs["skiplist.stage"] * skiplist.n_stages
                      + costs["skiplist.scanner"] * skiplist.n_scanners)
            ledger.add("Skiplist", sl_vec, inst)
            if worker._bptree_pipe is not None:
                # only synthesized when a BPTREE table exists (the
                # pipeline is instantiated lazily, like the hardware)
                bp_vec = (costs["bptree.base"] + costs["bptree.stage"]
                          * worker._bptree_pipe.n_stages)
                ledger.add("BPTree", bp_vec, inst)
            ledger.add("Softcore", costs["softcore"], inst)
            ledger.add("Catalogue", costs["catalogue"], inst)
            ledger.add("Communication", comm_vec, inst)
            ledger.add("Memory arbiters", costs["memory_arbiter"], inst)
        return ledger

    def power_report(self, activity: Optional[float] = None) -> PowerReport:
        return FpgaPowerModel().estimate(self.resource_ledger(), activity=activity)

    def baseline_power_w(self, cores: int) -> float:
        return CpuPowerModel().estimate_w(cores)

    # -- verification helpers -------------------------------------------------------
    def lookup(self, table_id: int, key: Any,
               partition: Optional[int] = None):
        """Timing-free read of a committed-or-not row (host debugging)."""
        schema = self.schemas.table(table_id)
        if partition is not None and not 0 <= partition < self.total_workers:
            raise SubmissionError("lookup partition out of range",
                                  partition=partition,
                                  n_workers=self.total_workers)
        w = partition if partition is not None else (
            0 if schema.replicated else schema.route(key, self.total_workers))
        return self.workers[w].pipeline_for(table_id).lookup_direct(
            key, table_id=table_id)
