"""Shared machinery for the index coprocessor pipelines: the in-flight
DB instruction (:class:`DbRequest`: operation, timestamp, a key in a
block cell or inline, and a completion callback routing the result to
the initiating worker's CP register), and :class:`PipelineBase`, the
stage framework all three index pipelines are built on."""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..isa.instructions import Opcode
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.memory import ColdRows, DramModel, MemoryPort
from ..sim.stats import StatsRegistry
from ..sim.sync import TokenPool
from ..sim.trace import NULL_TRACER
from ..txn.cc import DbResult, ResultCode, check_read, check_write

__all__ = ["DbRequest", "PipelineBase", "Scan", "sdbm_hash", "key_column",
           "IndexError_", "SCAN_EMIT_CYCLES"]

#: the scanners' per-tuple charge in the skiplist and B+ tree pipelines:
#: copying the 1 KB tuple into the transaction block's scan buffer, which
#: is why one scanner bottlenecks Figure 11c (§5.5)
SCAN_EMIT_CYCLES = 145.0


class IndexError_(RuntimeError):
    """Mis-dispatched DB instruction (e.g. SCAN on a hash index)."""


def _key_bytes(key: Any) -> bytes:
    """Serialise a key as the hardware sees it on the wire: integers as
    8-byte little-endian words (widened if needed), strings and bytes as
    is, composite keys part by part — keys are variable-length (§4.4)."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, bool):
        return b"\x01" if key else b"\x00"
    if isinstance(key, int):
        length = max(8, (key.bit_length() + 8) // 8)
        return key.to_bytes(length, "little", signed=True)
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, tuple):
        return b"\x1f".join(_key_bytes(part) for part in key)
    return repr(key).encode()


#: Sdbm is ``h_i = byte_i + 65599 * h_{i-1}``, so an 8-byte key hashes
#: to ``sum(byte_i * 65599^(7-i))``: with the powers precomputed, one
#: closed-form expression for every int key below 2^63
_P7, _P6, _P5, _P4, _P3, _P2, _P1 = (
    15547521674245157311, 6702187518565740161, 11182486425443262783,
    71034040046345985, 282287506116799, 4303228801, 65599)
_INT8_MAX = 1 << 63
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _sdbm_int8(key: int) -> int:
    """Closed-form Sdbm for 0 <= key < 2**63 (8-byte wire encoding)."""
    h = ((key & 0xFF) * _P7 + (key >> 8 & 0xFF) * _P6
         + (key >> 16 & 0xFF) * _P5 + (key >> 24 & 0xFF) * _P4
         + (key >> 32 & 0xFF) * _P3 + (key >> 40 & 0xFF) * _P2
         + (key >> 48 & 0xFF) * _P1 + (key >> 56 & 0xFF)) & _MASK64
    h ^= h >> 33
    h ^= h >> 17
    return h


def sdbm_hash(key: Any) -> int:
    """The Sdbm hash (the paper's choice for its hardware cost: shifts
    and adds only), xor-folded so a plain mask/mod bucket index avoids
    the low-bit clustering raw Sdbm shows on short binary keys."""
    if type(key) is int and 0 <= key < _INT8_MAX:
        # integer row keys: no wire form, no byte loop
        return _sdbm_int8(key)
    h = 0
    for byte in _key_bytes(key):
        h = (byte + (h << 6) + (h << 16) - h) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h ^= h >> 17
    return h


def key_column(keys) -> Any:
    """A batch's key column, copied: ``array('q')`` when every key is
    exactly an ``int`` in [0, 2**63) (``True`` is not ``1`` on the
    wire), else a list."""
    if type(keys) is range or set(map(type, keys)) == {int}:
        try:
            words = array("q", keys)
        except OverflowError:
            pass
        else:
            if min(words, default=0) >= 0:
                return words
    return list(keys)


@dataclass
class DbRequest:
    """An in-flight DB instruction inside (or bound for) a coprocessor."""

    op: Opcode
    table_id: int
    ts: int                                  # transaction begin timestamp
    txn_id: int
    key_addr: Optional[int] = None           # txn-block cell holding the key
    key_value: Any = None                    # inline key (skips KeyFetch read)
    insert_payload: Any = None               # field list for INSERT
    payload_addr: Optional[int] = None       # txn-block cell holding the fields
    scan_count: int = 0                      # SCAN: tuples requested
    scan_out_addr: int = 0                   # SCAN: first output cell
    scan_limit: int = 0                      # SCAN: output buffer capacity
    scan_hi: Any = None                      # RANGE_SCAN: high key (inclusive)
    src_worker: int = 0                      # initiating worker id
    cp_index: Optional[int] = None           # destination CP register
    route_key: Any = None                    # routing key (known at Dispatch)
    background: bool = False                 # arrived via on-chip channels
    on_complete: Optional[Callable[["DbRequest", DbResult], None]] = None

    # filled during pipeline traversal
    key: Any = None
    result: Optional[DbResult] = None

    @property
    def key_in_cell(self) -> bool:
        """The key is read from a transaction-block cell (KeyFetch)."""
        return self.key_value is None and self.key_addr is not None

    def finish(self, result: DbResult) -> None:
        if self.result is not None:
            raise IndexError_(
                f"{self.op.value} of txn {self.txn_id} for CP register "
                f"{self.cp_index} completed twice")
        self.result = result
        if self.on_complete is not None:
            self.on_complete(self, result)


@dataclass(slots=True)
class Scan:
    """A SCAN / RANGE_SCAN in flight: rows emitted, the code it ends
    with, its owner (scanner slot or wave) and where its walk stands."""

    req: DbRequest
    owner: Any
    n: int = 0
    code: ResultCode = ResultCode.OK
    addr: int = 0           # the row being read
    row: Any = None         # ... and what was read there
    leaf: Any = None        # B+ tree: the leaf and the slot in it
    i: int = 0


class PipelineBase:
    """The stage framework every index pipeline is built on.

    A stage is a busy flag, a backlog and a service delay: a
    finite-state machine woken when data arrives (§4.4).  ``_put`` hands
    it an item: idle, it schedules its *body* at ``now + delay`` and
    turns busy; busy, it queues the item.  The body calls ``_next`` when
    done, which starts the oldest queued item or idles the stage.
    Bodies are scheduled closure-free (``Engine._schedule_fn``) and
    memory completions delivered in their own firing
    (``MemoryPort.read_cb``): one work item per stage visit plus one per
    DRAM access.  Rare structural paths are generators run by
    ``Engine.follow``.

    Subclasses add stages with ``_stage`` in ``_build()``, take admitted
    requests in ``_enter`` (inside the submitter's firing when a token
    is free, so mis-dispatch errors are raised from a stage body, out of
    ``Engine.run()``), finish them with ``_done``, and load and list
    rows in ``_load`` / ``_records``.
    """

    #: the tracer category this pipeline's events are filed under
    trace_category: str
    #: the kind's default (read, write) port issue intervals, in cycles
    issue_intervals = (24.0, 8.0)

    def __init__(self, engine: Engine, clock: ClockDomain, dram: DramModel,
                 name: str, max_in_flight: int = 16,
                 stats: Optional[StatsRegistry] = None, tracer=None):
        self.engine = engine
        self.clock = clock
        self.dram = dram
        self.name = name
        self.stats = stats or StatsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tokens = TokenPool(max_in_flight, name=f"{name}.inflight")
        #: requests waiting for an in-flight token, oldest first
        self._waiting: deque = deque()
        # One read port per coprocessor pipeline: its issue interval is the
        # modelled HC-2 port arbitration cost and the throughput anchor for
        # Figure 10 (see DESIGN.md §5).
        read_iv, write_iv = self.issue_intervals
        self.read_port: MemoryPort = dram.new_port(
            f"{name}.rd", max_outstanding=64, issue_interval_cycles=read_iv)
        self.write_port: MemoryPort = dram.new_port(
            f"{name}.wr", max_outstanding=64, issue_interval_cycles=write_iv)
        self.completed = self.stats.counter(f"{name}.completed")
        self.errors = self.stats.counter(f"{name}.errors")
        #: one index per table of the partition: table_id -> its root
        self._tables: dict = {}
        self._sched = engine._schedule_fn
        # the stages, by slot: body, service delay (ns), busy, backlog
        self._body: List[Callable[[Any], None]] = []
        self._delay: List[float] = []
        self._busy: List[bool] = []
        self._backlog: List[deque] = []
        self._build()

    # -- public ----------------------------------------------------------
    def submit(self, req: DbRequest) -> None:
        """Admit a request, or queue it for a token; the softcore never
        blocks on dispatch."""
        if not self._waiting and self.tokens.try_acquire():
            self._grant(req)
        else:
            self._waiting.append(req)

    def set_max_in_flight(self, n: int) -> None:
        self.tokens.resize(n)
        self._grant_waiting()

    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install one committed row, timing-free; returns its address."""
        return self._load_rows((key,), (fields,), ts, table_id)[1]

    def bulk_load_many(self, keys, fields, ts: int = 0,
                       table_id: int = 0) -> int:
        """Install the rows of parallel key and field columns (sized,
        sliceable) in order, timing-free; returns the number installed.
        A non-iterable ``fields`` entry stops the batch there."""
        return self._load_rows(keys, fields, ts, table_id)[0]

    def items_direct(self, table_id: int = 0) -> List[Tuple[Any, List[Any]]]:
        """``(key, fields)`` of every live row (verification helper)."""
        return [(key, list(rec.fields))
                for key, rec in self._records(table_id) if not rec.tombstone]

    def checkpoint_rows(self, table_id: int = 0):
        """Yield ``(key, fields, write_ts)`` for every live committed row."""
        for key, rec in self._records(table_id):
            if not rec.tombstone and not rec.dirty:
                yield key, list(rec.fields), rec.write_ts

    # -- stages -----------------------------------------------------------
    def _stage(self, body: Callable[[Any], None], cycles: float) -> None:
        """Add a stage, at the next slot, serving each item with ``body``
        ``cycles`` after it is handed over."""
        self._body.append(body)
        self._delay.append(self.clock.ns(cycles))
        self._busy.append(False)
        self._backlog.append(deque())

    def _put(self, stage: int, item: Any) -> None:
        """Hand ``item`` to a stage: an idle stage starts serving it, a
        busy one queues it behind the item in service."""
        if self._busy[stage]:
            self._backlog[stage].append(item)
        else:
            self._busy[stage] = True
            self._sched(self.engine.now + self._delay[stage],
                        self._body[stage], item)

    def _next(self, stage: int) -> None:
        """The stage is done with its item: take the next or go idle."""
        backlog = self._backlog[stage]
        if backlog:
            self._sched(self.engine.now + self._delay[stage],
                        self._body[stage], backlog.popleft())
        else:
            self._busy[stage] = False

    def _after(self, delay_ns: float, fn: Callable[[Any], None],
               arg: Any) -> None:
        self._sched(self.engine.now + delay_ns, fn, arg)

    # -- key and payload resolution ---------------------------------------
    def _resolve(self, req: DbRequest, then: Callable[[Any], None],
                 arg: Any) -> bool:
        """Find ``req.key`` and an INSERT's fields, reading the key cell
        and the payload cell independently; a ``(key, fields)`` pair is
        split only when no payload was given.  True when nothing was
        read, else ``then(arg)`` runs inside the last read's completion."""
        fetch_key = req.key_in_cell
        if not fetch_key:
            req.key = req.key_value
        fetch_payload = (req.op is Opcode.INSERT
                         and req.payload_addr is not None
                         and req.insert_payload is None)
        if not (fetch_key or fetch_payload):
            self._split_pair(req)
            return True
        # the callbacks carry (req, then, arg): no cycle through req
        req._cells = fetch_key + fetch_payload
        job = (req, then, arg)
        if fetch_key:
            self.read_port.read_cb(req.key_addr, self._key_landed, job)
        if fetch_payload:
            self.read_port.read_cb(req.payload_addr, self._payload_landed,
                                   job)
        return False

    def _key_landed(self, landed: tuple) -> None:
        job, key = landed
        job[0].key = key
        self._cell_landed(job)

    def _payload_landed(self, landed: tuple) -> None:
        job, cell = landed
        job[0].insert_payload = list(cell or [])
        self._cell_landed(job)

    def _cell_landed(self, job: tuple) -> None:
        req, then, arg = job
        req._cells -= 1
        if not req._cells:
            self._split_pair(req)
            then(arg)

    @staticmethod
    def _split_pair(req: DbRequest) -> None:
        # an INSERT key cell with no payload holds (key, fields)
        if (req.op is Opcode.INSERT and req.insert_payload is None
                and isinstance(req.key, tuple) and len(req.key) == 2):
            req.key, req.insert_payload = req.key

    # -- terminal steps ----------------------------------------------------
    def _finish_point(self, req: DbRequest, addr: int, record: Any) -> None:
        """Complete a SEARCH / UPDATE / REMOVE on the record the index
        found for its key (``None``: no record): the visibility check,
        the masked line write it grants, and the result.  A cold row
        (``record`` is its batch) is never dirty nor a tombstone: a
        SEARCH is granted on its columns, an UPDATE or REMOVE builds its
        record."""
        if record.__class__ is ColdRows:
            if req.op is Opcode.SEARCH:
                self._grant_cold_read(req, addr, record)
                return
            record = self.dram.heap.load(addr)
        if record is None or (record.tombstone and not record.dirty):
            # no record, or a committed delete
            self._done(req, DbResult(ResultCode.NOT_FOUND))
            return
        if req.op is Opcode.SEARCH:
            code = check_read(record, req.ts)
        else:
            code = check_write(record, req.ts,
                               tombstone=req.op is Opcode.REMOVE)
        if code is ResultCode.OK:
            self.write_port.post_write(addr, record)
        value = record.fields[0] if (code is ResultCode.OK
                                     and record.fields) else None
        self._done(req, DbResult(code, tuple_addr=addr, value=value))

    def _grant_cold_read(self, req: DbRequest, addr: int,
                         rows: ColdRows) -> None:
        """:meth:`_finish_point` of a SEARCH on the cold row of ``rows``
        at ``addr``: ``check_read`` on its columns.  A grant raises the
        row's read time in the batch's ``read_ts`` column; its line
        write-back stores nothing, so the cell stays cold."""
        if rows.ts > req.ts:
            self._done(req, DbResult(ResultCode.CC_REJECT, tuple_addr=addr))
            return
        i = rows.row(addr)
        rows.raise_read(i, req.ts)
        self.write_port.post_write_back(addr)
        fields = rows.fields[i]
        self._done(req, DbResult(ResultCode.OK, tuple_addr=addr,
                                 value=fields[0] if fields else None))

    def _emit(self, scan: Scan) -> bool:
        """The row ``scan.row`` at ``scan.addr``: a visible one is copied
        into the scan buffer and has its read timestamp raised.  False
        when the buffer is full (the scan ends with SCAN_OVERFLOW).

        A row that was cold when its read landed is read again (untimed)
        first, so a record built since is seen as it is now; a row still
        cold is emitted from its batch's columns and stays cold."""
        req, row = scan.req, scan.row
        if row.__class__ is ColdRows:
            row = scan.row = self.dram.heap.load_raw(scan.addr)
        cold = row.__class__ is ColdRows
        # visible: committed, not deleted and written no later than the
        # scan, for towers and records alike
        if cold:
            if row.ts > req.ts:
                return True
            i = row.row(scan.addr)
            key, fields = row.keys[i], row.fields[i]
        elif (row is None or row.dirty or row.tombstone
                or row.write_ts > req.ts):
            return True
        else:
            key, fields = row.key, row.fields
        if req.scan_limit and scan.n >= req.scan_limit:
            scan.code = ResultCode.SCAN_OVERFLOW
            return False
        if req.scan_out_addr:
            self.write_port.post_write(req.scan_out_addr + scan.n,
                                       (key, list(fields)))
        if cold:
            if row.raise_read(i, req.ts):
                self.write_port.post_write_back(scan.addr)
        elif req.ts > row.read_ts:
            row.read_ts = req.ts
            self.write_port.post_write(scan.addr, row)
        scan.n += 1
        return True

    # -- tables and loading ---------------------------------------------
    def _table(self, table_id: int) -> Any:
        try:
            return self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None

    def _load_rows(self, keys, fields, ts: int,
                   table_id: int) -> Tuple[int, int]:
        n_rows = len(keys)
        if len(fields) != n_rows:
            raise ValueError(f"{self.name}: {n_rows} keys offered with "
                             f"{len(fields)} field rows")
        return self._load(keys, fields, ts, self._table(table_id))

    # -- admission --------------------------------------------------------
    def _grant(self, req: DbRequest) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.trace_category, self.name,
                             f"enter {req.op.value} txn={req.txn_id}"
                             + (" (background)" if req.background else ""))
        self._enter(req)

    def _grant_waiting(self) -> None:
        waiting = self._waiting
        while waiting and self.tokens.try_acquire():
            self._grant(waiting.popleft())

    def _done(self, req: DbRequest, result: DbResult) -> None:
        self.tokens.release()
        self.completed.add()
        if not result.ok:
            self.errors.add()
        if self.tracer.enabled:
            self.tracer.emit(self.trace_category, self.name,
                             f"done {req.op.value} txn={req.txn_id} "
                             f"key={req.key!r} -> {result.code.name}")
        if self._waiting:
            self._grant_waiting()
        req.finish(result)
