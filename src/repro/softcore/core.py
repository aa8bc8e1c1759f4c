"""The softcore: stored-procedure execution with transaction interleaving.

This is the custom microprocessor of §4.3 (no instruction pipelining,
no out-of-order execution, no general-purpose cache — the paper cites
evidence that none of these pay off for OLTP).  CPU instructions run in
five one-cycle steps; DB instructions take Prepare + Dispatch and are
forwarded *asynchronously* to the local index coprocessor or, via the
on-chip channels, to a remote one.

Transaction interleaving (§4.5, Figure 8) batches transactions by
renaming each into an exclusive GP/CP register range.  Phase one runs
each transaction's logic to the end without waiting for outstanding DB
instructions, saving the context (10-cycle switch) and moving on.
Phase two revisits the batch in serial order: each commit handler waits
for its outstanding DB instructions, then commits — or, on any DB
error or voluntary abort, the abort handler rolls back from the UNDO
log.

At transaction admission, the block's input region is streamed into the
softcore's *working-set buffer* (the BRAM buffer visible in Figure 2);
this is what lets the Dispatch step route DB instructions by key
without a DRAM round trip.

The softcore is a plain core: one generator, :meth:`Softcore._run`,
started at construction and stepped by :meth:`Engine.follow
<repro.sim.engine.Engine.follow>`.  It yields a delay for every cycle
charge and an event for every wait (a DRAM read, a CP register, the
drain of a transaction's DB instructions, an empty input queue).  An
exception in it — a procedure loading from an empty cell, say — leaves
``Engine.run()`` at the instant it is raised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..isa.instructions import Opcode, Section
from ..mem.txnblock import TransactionBlock, TxnStatus, UndoEntry
from ..sim.clock import ClockDomain
from ..sim.engine import Engine, Event
from ..sim.memory import DramModel
from ..sim.stats import StatsRegistry
from ..txn.cc import DbResult, ResultCode, abort_write, commit_record
from ..txn.timestamps import HardwareClock
from ..index.common import DbRequest
from .catalogue import Catalogue
from .compiled import CompiledTier, ExecutionError
from .context import TxnContext, WriteSetEntry
from .timing import (
    CATALOGUE_CYCLES, COMMIT_CYCLES_PER_ENTRY, CONTEXT_SWITCH_CYCLES,
    N_REGISTERS,
)

__all__ = ["SoftcoreConfig", "Softcore", "ExecutionError"]

_WRITE_OPS = (Opcode.INSERT, Opcode.UPDATE, Opcode.REMOVE)


@dataclass
class SoftcoreConfig:
    """Scheduling policy of one softcore: the three choices the
    experiments vary (Figure 12 and ``tpcc_demo`` turn interleaving off,
    ``ext-dynamic`` turns dynamic scheduling on, ``ablation-linebuf``
    the line buffer off).  The cycle charges and the register file are
    the constants of :mod:`repro.softcore.timing`.

    Nothing here selects how instructions are executed: every procedure
    runs as generated code (:mod:`repro.softcore.compiled`), which
    ``line_buffer`` and ``dynamic_scheduling`` specialise.
    """

    interleaving: bool = True
    #: §4.5 'future work': switch transactions whenever a RET blocks,
    #: instead of only at end-of-logic (helps data-dependent workloads)
    dynamic_scheduling: bool = False
    #: single-entry tuple line buffer: one 64-byte header line holds all
    #: the fields a procedure touches, so consecutive LOAD/WRFIELD to
    #: the same record cost one DRAM read (ablation knob)
    line_buffer: bool = True


def _keys(block: TransactionBlock, sources) -> set:
    """The ``(table, key)`` pairs ``sources`` name in ``block``, read
    from its cells in place.  A cell that holds no plain key (a list, a
    tuple, nothing) names none: that access stays unseen."""
    pairs = set()
    for table, cell, key, paired in sources:
        if cell is not None:
            key = block.input_cell(cell)
            if paired and type(key) is tuple and len(key) == 2:
                key = key[0]
        if isinstance(key, (int, str)):
            pairs.add((table, key))
    return pairs


class _CpSlot:
    """One CP register: the DB instruction last dispatched to it (its
    op, table and owning transaction) and the result written back for
    it, with the valid bit and the ``RET`` waiting on that bit."""

    __slots__ = ("op", "table_id", "owner", "result", "valid", "waiter")

    def __init__(self) -> None:
        self.op: Optional[Opcode] = None
        self.table_id = 0
        self.owner: Optional[TxnContext] = None
        self.result: Optional[DbResult] = None
        self.valid = False
        self.waiter: Optional[Event] = None


class _Batch(list):
    """One §4.5 batch: its contexts in admission order, the register
    ranges handed out so far and the ``(table, key)`` pairs its members
    read and write, as far as their input cells say."""

    def __init__(self):
        super().__init__()
        self.gp_base = self.cp_base = 0
        self.reads: set = set()
        self.writes: set = set()
        #: members whose reads are in ``reads``; the rest joined while
        #: nothing wrote and are looked at when something first does
        self.resolved = 0

    def collides(self, block: TransactionBlock, entry) -> bool:
        """Whether ``block`` and a member touch one key with a write
        among the two; if not, its keys are added to the batch's."""
        if not entry.key_writes and not self.writes:
            return False    # read-only among readers: no key is looked at
        for ctx in self[self.resolved:]:
            self.reads |= _keys(ctx.block, ctx.entry.key_reads)
        self.resolved = len(self)
        writes = _keys(block, entry.key_writes)
        reads = _keys(block, entry.key_reads)
        if (not writes.isdisjoint(self.reads)
                or not self.writes.isdisjoint(writes | reads)):
            return True
        self.writes |= writes
        self.reads |= reads
        self.resolved += 1
        return False


class Softcore:
    """One partition worker's stored-procedure engine."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        dram: DramModel,
        worker_id: int,
        catalogue: Catalogue,
        hw_clock: HardwareClock,
        route: Callable[[int, Any], Optional[int]],
        dispatch: Callable[[DbRequest, Optional[int]], None],
        config: Optional[SoftcoreConfig] = None,
        stats: Optional[StatsRegistry] = None,
        on_txn_done: Optional[Callable[[TransactionBlock], None]] = None,
        tracer=None,
    ):
        from ..sim.trace import NULL_TRACER
        self.engine = engine
        self.clock = clock
        self.dram = dram
        self.worker_id = worker_id
        self.catalogue = catalogue
        self.hw_clock = hw_clock
        #: route(table_id, key) -> destination partition (None = local)
        self.route = route
        #: dispatch(req, dst_partition): the worker's Dispatch step
        self.dispatch = dispatch
        self.config = config or SoftcoreConfig()
        self.stats = stats or StatsRegistry()
        self.on_txn_done = on_txn_done
        self.tracer = tracer if tracer is not None else NULL_TRACER

        #: submitted blocks, oldest first, and the event the main loop
        #: sleeps on while there are none
        self._inbox: deque = deque()
        self._parked: List[Event] = []
        # The register files: 256 GP and 256 CP registers on BRAM
        # rather than flip-flops (§4.3).  Each batched transaction owns
        # an exclusive range of both, and its instructions are renamed by
        # adding the range's base (§4.5), so the generated code indexes
        # these lists at ``ctx.gp_base + n`` / ``ctx.cp_base + n``.  A CP
        # register receives its DB instruction's result asynchronously
        # (:meth:`deliver`); a ``RET`` waits on its valid bit, then
        # copies the result into a GP register.
        self.gp: List[Any] = [0] * N_REGISTERS
        self.cp: List[_CpSlot] = [_CpSlot() for _ in range(N_REGISTERS)]
        self.port = dram.new_port(f"w{worker_id}.core", max_outstanding=8,
                                  issue_interval_cycles=1.0)

        self._pending_block: Optional[TransactionBlock] = None

        pre = f"worker{worker_id}"
        self._committed = self.stats.counter(f"{pre}.committed")
        self._aborted = self.stats.counter(f"{pre}.aborted")
        self._batches = self.stats.counter(f"{pre}.batches")
        self._closed_conflict = self.stats.counter(
            f"{pre}.batches_closed.conflict")
        self._closed_capacity = self.stats.counter(
            f"{pre}.batches_closed.capacity")
        self._insts = self.stats.counter(f"{pre}.instructions")
        self._db_insts = self.stats.counter(f"{pre}.db_instructions")
        self._remote_insts = self.stats.counter(f"{pre}.remote_db_instructions")

        self._code = CompiledTier(self)

        engine.start(self._run())

    # -- client interface --------------------------------------------------
    def submit(self, block: TransactionBlock) -> None:
        block.header.status = TxnStatus.PENDING
        self._put(self._inbox, self._parked, block)

    @staticmethod
    def _put(queue: deque, parked: List[Event], item: Any) -> None:
        """Queue ``item``, waking the softcore if it sleeps on ``queue``."""
        queue.append(item)
        if parked:
            parked.pop().succeed()

    def _take(self, queue: deque, parked: List[Event]):
        """Take the oldest item of ``queue``, one ready-deque hop from
        now: the put that wakes the parked softcore when the queue is
        empty, else one item at the current instant."""
        if queue:
            yield 0
        else:
            parked.append(Event(self.engine))
            yield parked[0]
        return queue.popleft()

    # -- result delivery (local coprocessor or remote response path) --------
    def deliver(self, cp_global: int, result: DbResult) -> None:
        """Write ``result`` back to CP register ``cp_global``, waking the
        ``RET`` waiting on it."""
        slot = self.cp[cp_global]
        ctx = slot.owner
        if ctx is None:
            raise ExecutionError(f"result for unowned CP register {cp_global}")
        if slot.valid:
            raise ExecutionError(
                f"second result for CP register {cp_global} of txn "
                f"{ctx.txn_id}")
        op = slot.op
        slot.result = result
        slot.valid = True
        if slot.waiter is not None:
            waiter, slot.waiter = slot.waiter, None
            waiter.succeed((op, result))
        if result.ok and op in _WRITE_OPS:
            ctx.write_set.append(
                WriteSetEntry(op, slot.table_id, result.tuple_addr))
        tolerated = (result.code is ResultCode.NOT_FOUND and
                     (cp_global - ctx.cp_base) in ctx.entry.tolerant_cps)
        if not result.ok and not tolerated:
            ctx.fail(f"{op.value}: {result.code.name}")
        ctx.note_result()

    def _wait_cp(self, cp_global: int) -> Event:
        """RET: an event firing with ``(op, result)`` once CP register
        ``cp_global`` is valid."""
        slot = self.cp[cp_global]
        ev = Event(self.engine)
        if slot.valid:
            ev.succeed((slot.op, slot.result))
        elif slot.waiter is not None:
            raise ExecutionError(f"two RETs waiting on CP register {cp_global}")
        else:
            slot.waiter = ev
        return ev

    # -- main loop -----------------------------------------------------------
    def _run(self):
        cfg = self.config
        while True:
            if self._pending_block is not None:
                block, self._pending_block = self._pending_block, None
            else:
                block = yield from self._take(self._inbox, self._parked)
            if cfg.interleaving and cfg.dynamic_scheduling:
                batch = yield from self._phase1_dynamic(block)
            else:
                batch = yield from self._phase1_static(block)
            # ---- phase 2: commit/abort handlers in serial order -------------
            for ctx in batch:
                yield self.clock.delay(CONTEXT_SWITCH_CYCLES)
                if ctx.outstanding:
                    yield ctx.wait_drained(self.engine)
                if not ctx.failed:
                    yield from self._exec(ctx, Section.COMMIT)
                if ctx.failed:
                    yield from self._exec(ctx, Section.ABORT)
                self._release(ctx)
            self._batches.add()

    def _admit(self, block: TransactionBlock,
               batch: _Batch) -> Optional[TxnContext]:
        """Try to add ``block`` to the current batch (§4.5 transaction
        grouping): it needs an exclusive register range, and its keys
        must not meet the batch's with a write on either side — such a
        pair commits in serial order anyway, and run in one batch the
        later one is only rejected (§4.7) and retried.  Otherwise the
        batch is closed and the block kept for the next one.  Only keys
        sitting in input cells (or constant) are compared; a computed
        key, or one held by another worker's batch, is still caught by
        the coprocessor's visibility check."""
        entry = self.catalogue.lookup(block.proc_id)
        closed = None
        if batch and (batch.gp_base + entry.gp_needed > N_REGISTERS or
                      batch.cp_base + entry.cp_needed > N_REGISTERS):
            closed = self._closed_capacity
        elif batch.collides(block, entry):      # never an empty batch
            closed = self._closed_conflict
        if closed is not None:
            closed.add()
            self._pending_block = block
            return None
        ctx = TxnContext(block=block, entry=entry,
                         begin_ts=self.hw_clock.next_ts(),
                         gp_base=batch.gp_base, cp_base=batch.cp_base)
        batch.gp_base += entry.gp_needed
        batch.cp_base += entry.cp_needed
        # the CP range was left unowned and invalid by its last release
        self.gp[ctx.gp_base:batch.gp_base] = [0] * entry.gp_needed
        block.header.begin_ts = ctx.begin_ts
        block.header.status = TxnStatus.RUNNING
        batch.append(ctx)
        return ctx

    def _phase1_static(self, block: TransactionBlock):
        """Phase one as the paper implements it: run each transaction's
        logic to the end, switch, and never revisit until phase two."""
        cfg = self.config
        batch = _Batch()
        while True:
            yield self.clock.delay(CATALOGUE_CYCLES)
            ctx = self._admit(block, batch)
            if ctx is None:
                break
            yield from self._ingest(ctx)
            yield from self._exec(ctx, Section.LOGIC)
            yield self.clock.delay(CONTEXT_SWITCH_CYCLES)
            if not cfg.interleaving or not self._inbox:
                break
            block = self._inbox.popleft()
        return batch

    def _phase1_dynamic(self, block: TransactionBlock):
        """Dynamic scheduling (the §4.5 'future work' variant): when a
        RET blocks on an outstanding DB instruction during transaction
        logic, the softcore switches to another runnable transaction
        instead of stalling, resuming the blocked one when its CP
        register is written back."""
        batch = _Batch()
        ready = deque()
        # contexts whose blocking RET's result arrived, oldest first,
        # and the event the softcore sleeps on while there are none
        woken: deque = deque()
        parked: List[Event] = []
        blocked = 0

        yield self.clock.delay(CATALOGUE_CYCLES)
        first = self._admit(block, batch)
        yield from self._ingest(first)
        ready.append(first)

        while ready or blocked:
            if not ready:
                # nothing runnable: admit new work if possible, else
                # sleep until a blocked transaction is woken
                if self._pending_block is None and self._inbox:
                    yield self.clock.delay(CATALOGUE_CYCLES)
                    ctx = self._admit(self._inbox.popleft(), batch)
                    if ctx is not None:
                        yield from self._ingest(ctx)
                        ready.append(ctx)
                        continue
                ready.append((yield from self._take(woken, parked)))
                blocked -= 1
                continue
            ctx = ready.popleft()
            yield self.clock.delay(CONTEXT_SWITCH_CYCLES)
            # a transaction woken from a blocked RET re-enters at that
            # RET's unit, a new one at unit 0
            yield from self._exec(ctx, Section.LOGIC, ctx.resume_unit)
            if ctx.blocked_on is not None:
                cp_idx, ctx.blocked_on = ctx.blocked_on, None
                blocked += 1
                ev = self._wait_cp(cp_idx)
                ev.callbacks.append(
                    lambda _e, c=ctx: self._put(woken, parked, c))
            elif self._pending_block is None and self._inbox:
                yield self.clock.delay(CATALOGUE_CYCLES)
                ctx2 = self._admit(self._inbox.popleft(), batch)
                if ctx2 is not None:
                    yield from self._ingest(ctx2)
                    ready.append(ctx2)
        return batch

    def _ingest(self, ctx: TxnContext):
        """Stream the input region into the working-set buffer (BRAM)."""
        layout = ctx.block.layout
        base = ctx.block.data_base
        first = yield self.port.read(base)
        if layout.n_inputs > 1:
            yield self.clock.delay(layout.n_inputs - 1)  # pipelined burst
        ws = [first]
        for i in range(1, layout.n_inputs):
            ws.append(self.dram.direct_read(base + i))
        ctx.working_set = ws

    def _release(self, ctx: TxnContext) -> None:
        """Hand the context's CP range back: no owner, no valid result,
        so a late result raises and the next owner's ``RET`` waits."""
        for slot in self.cp[ctx.cp_base:ctx.cp_base + ctx.entry.cp_needed]:
            slot.owner = None
            slot.valid = False
            slot.result = None
        if self.on_txn_done is not None:
            self.on_txn_done(ctx.block)

    # -- instruction execution ------------------------------------------------
    def _exec(self, ctx: TxnContext, section: Section, unit: int = 0):
        """Run ``section`` of the context's procedure from compile unit
        ``unit``: the dispatch loop over the generated unit table
        (:mod:`repro.softcore.compiled`)."""
        units = self._code.units(ctx.entry, section)
        while unit >= 0:
            unit = yield from units[unit](self, ctx)

    # .. shared by every generated unit ........................................
    def _trace_inst(self, ctx: TxnContext, what: str) -> None:
        self.tracer.emit("softcore", f"w{self.worker_id}",
                         f"txn={ctx.txn_id} {what}")

    def _dispatch_db(self, ctx: TxnContext, op: Opcode, table_id: int,
                     cp_global: int, dst: Optional[int], key_addr, key_value,
                     payload, route_key, **fields) -> None:
        """The Dispatch step of a DB instruction: mark the CP register
        pending for ``ctx`` and hand the request, asynchronously, to the
        local coprocessor or the on-chip channels.  ``fields`` are the
        opcode-specific :class:`DbRequest` fields (payload cell, scan
        bounds)."""
        slot = self.cp[cp_global]
        slot.op = op
        slot.table_id = table_id
        slot.owner = ctx
        slot.valid = False
        ctx.outstanding += 1
        self._db_insts.value += 1
        if dst is not None and dst != self.worker_id:
            self._remote_insts.value += 1
        self.dispatch(
            DbRequest(op=op, table_id=table_id, ts=ctx.begin_ts,
                      txn_id=ctx.txn_id, key_addr=key_addr,
                      key_value=key_value, insert_payload=payload,
                      src_worker=self.worker_id, cp_index=cp_global,
                      route_key=route_key, **fields),
            dst)

    def _backup_and_write(self, ctx: TxnContext, addr: int, record,
                          field: int, value) -> None:
        """WRFIELD: UNDO-log the old field value, then update the tuple
        in place (§4.7 UPDATE semantics)."""
        if record is None:
            raise ExecutionError(f"WRFIELD on empty cell {addr}")
        entry = UndoEntry(tuple_addr=addr, field=field,
                          old_value=record.fields[field])
        ctx.undo.append(entry)
        ctx.block.header.undo_count = len(ctx.undo)
        self.port.post_write(ctx.block.undo_slot(len(ctx.undo) - 1), entry)
        # apply in place: the tuple is dirty-locked by this transaction's
        # UPDATE, so no other reader can legally observe the window; the
        # posted write accounts for the masked-line store.
        record.fields[field] = value
        self.port.post_write(addr, record)

    # .. commit / abort protocols (§4.7) .....................................
    def _commit_protocol(self, ctx: TxnContext):
        last_ev = None
        for entry in ctx.write_set:
            yield self.clock.delay(COMMIT_CYCLES_PER_ENTRY)
            last_ev = self.port.apply(entry.tuple_addr,
                                      self._commit_fixup(ctx.begin_ts))
        if last_ev is not None:
            yield last_ev
        ctx.block.header.status = TxnStatus.COMMITTED
        ctx.block.header.commit_ts = ctx.begin_ts
        self.port.post_write(ctx.block.base, ctx.block.header)
        self._committed.add()
        if self.tracer.enabled:
            self.tracer.emit("txn", f"w{self.worker_id}",
                             f"txn={ctx.txn_id} COMMIT ts={ctx.begin_ts} "
                             f"writes={len(ctx.write_set)}")

    @staticmethod
    def _commit_fixup(commit_ts: int):
        def apply(record):
            commit_record(record, commit_ts)
        return apply

    def _abort_protocol(self, ctx: TxnContext):
        last_ev = None
        # restore overwritten fields from the UNDO log, newest first
        for entry in reversed(ctx.undo):
            yield self.clock.delay(COMMIT_CYCLES_PER_ENTRY)
            last_ev = self.port.apply(entry.tuple_addr,
                                      self._restore_fixup(entry))
        # clear dirty marks; aborted inserts become tombstones
        for wse in ctx.write_set:
            yield self.clock.delay(COMMIT_CYCLES_PER_ENTRY)
            last_ev = self.port.apply(
                wse.tuple_addr, self._abort_fixup(wse.op is Opcode.INSERT))
        if last_ev is not None:
            yield last_ev
        ctx.block.header.status = TxnStatus.ABORTED
        ctx.block.header.abort_reason = ctx.fail_reason
        self.port.post_write(ctx.block.base, ctx.block.header)
        self._aborted.add()
        # "UPDATE: CC_REJECT" counts as worker{w}.aborted.UPDATE.CC_REJECT
        cause = ".".join((ctx.fail_reason or "unknown").replace(":", "").split())
        self.stats.counter(f"{self._aborted.name}.{cause}").add()
        if self.tracer.enabled:
            self.tracer.emit("txn", f"w{self.worker_id}",
                             f"txn={ctx.txn_id} ABORT ({ctx.fail_reason})")

    @staticmethod
    def _restore_fixup(entry: UndoEntry):
        def apply(record):
            record.fields[entry.field] = entry.old_value
        return apply

    @staticmethod
    def _abort_fixup(was_insert: bool):
        def apply(record):
            abort_write(record, was_insert=was_insert)
        return apply
