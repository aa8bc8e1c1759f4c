"""Shared machinery for the index coprocessor pipelines.

A :class:`DbRequest` is the in-flight form of a DB instruction: it
carries the operation, the transaction's timestamp, where the search
key lives (a transaction-block cell, fetched by the KeyFetch stage) or
an inline key value (when the stored procedure supplied it from a GP
register), and a completion callback that routes the result back to
the initiating worker's CP register — directly for foreground
(local) requests, or over the on-chip channels for background
(remote) ones.

The paper's Figure 10/11 sweeps cap "the maximum number of in-flight
DB requests over the index coprocessor"; :class:`PipelineBase`
implements that cap with a token pool acquired at pipeline entry and
released by terminal stages.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..isa.instructions import Opcode
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.memory import DramModel, MemoryPort
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo, TokenPool
from ..sim.trace import NULL_TRACER
from ..txn.cc import DbResult, ResultCode

__all__ = ["DbRequest", "PipelineBase", "sdbm_hash", "clear_hash_cache",
           "key_column", "IndexError_"]

_request_ids = itertools.count(1)


class IndexError_(RuntimeError):
    """Mis-dispatched DB instruction (e.g. SCAN on a hash index)."""


def _key_bytes(key: Any) -> bytes:
    """Serialise a key the way the hardware would see it on the wire.

    Integers become 8-byte little-endian words (widened if needed),
    strings/bytes pass through, and composite keys concatenate their
    parts — both indexes support variable-length keys (§4.4).
    """
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


#: memo for exactly-typed int/str keys only: those types never compare
#: equal across types (unlike bool==int or 1.0==1, which would conflate
#: cache slots for keys with different wire encodings)
_hash_cache: dict = {}
_HASH_CACHE_CAP = 1 << 16

#: Sdbm is ``h_i = byte_i + 65599 * h_{i-1}`` (the shifts-and-adds form
#: expands to exactly that multiply), so an 8-byte little-endian key
#: hashes to ``sum(byte_i * 65599^(7-i))`` — precomputing the powers
#: turns the byte-serial loop into one closed-form expression for every
#: int key below 2^63 (keys whose wire form is exactly 8 bytes).
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
    """The Sdbm hash (chosen by the paper for its minimal hardware cost:
    no lookup table, no modulo — shifts and adds only).  The 64-bit
    result is xor-folded so the bucket index can be taken with a plain
    mask/mod without the low-bit clustering raw Sdbm exhibits on short
    binary keys.
    """
    if type(key) is int and 0 <= key < _INT8_MAX:
        # the common case (integer row keys): no wire serialisation, no
        # byte loop, no memo churn
        return _sdbm_int8(key)
    cacheable = type(key) is int or type(key) is str
    if cacheable:
        h = _hash_cache.get(key)
        if h is not None:
            return h
    h = 0
    for byte in _key_bytes(key):
        h = (byte + (h << 6) + (h << 16) - h) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h ^= h >> 17
    if cacheable:
        if len(_hash_cache) >= _HASH_CACHE_CAP:
            # FIFO eviction (dicts iterate in insertion order): a full
            # cache must keep admitting, or a long key-diverse process
            # degrades to zero hits for every key it meets afterwards
            del _hash_cache[next(iter(_hash_cache))]
        _hash_cache[key] = h
    return h


def clear_hash_cache() -> None:
    """Drop the sdbm memo (tests; long key-diverse host processes)."""
    _hash_cache.clear()


def key_column(keys) -> Any:
    """The key column a bulk loader stores for a batch: ``array('q')``,
    one machine word per row, when every key is exactly an ``int`` in
    [0, 2**63) (``True`` is not ``1`` on the wire; a ``range`` holds
    nothing else), else a list — a copy either way."""
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
    on_write_effect: Optional[Callable[["DbRequest", DbResult], None]] = None
    req_id: int = field(default_factory=lambda: next(_request_ids))

    # filled during pipeline traversal
    key: Any = None
    result: Optional[DbResult] = None

    @property
    def is_write(self) -> bool:
        return self.op in (Opcode.INSERT, Opcode.UPDATE, Opcode.REMOVE)

    def finish(self, result: DbResult) -> None:
        if self.result is not None:
            raise IndexError_(f"request {self.req_id} completed twice")
        self.result = result
        if result.ok and self.is_write and self.on_write_effect is not None:
            self.on_write_effect(self, result)
        if self.on_complete is not None:
            self.on_complete(self, result)


class PipelineBase:
    """Common scaffolding: admission under the in-flight cap, ports.

    Subclasses set ``trace_category``, build their stage graph in
    ``_build()``, take an admitted request in ``_enter(req)`` and must
    call ``self._done(req, result)`` from terminal stages.

    Admission costs no work item: a request submitted while a token is
    free and nobody is queued enters its first stage inside the caller's
    firing; otherwise it queues, and each ``_done`` admits the oldest
    queued request with the token it just returned.  ``_enter`` therefore
    runs on the submitter's stack (a softcore generator, a background
    unit): a callback pipeline raises mis-dispatch errors from its first
    stage body instead, so they come out of ``Engine.run()``.
    """

    #: the tracer category this pipeline's events are filed under
    trace_category: str

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        dram: DramModel,
        name: str,
        max_in_flight: int = 16,
        read_issue_interval_cycles: float = 24.0,
        write_issue_interval_cycles: float = 8.0,
        stats: Optional[StatsRegistry] = None,
        tracer=None,
    ):
        self.engine = engine
        self.clock = clock
        self.dram = dram
        self.name = name
        self.stats = stats or StatsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tokens = TokenPool(engine, max_in_flight, name=f"{name}.inflight")
        #: requests waiting for an in-flight token, oldest first
        self._waiting: deque = deque()
        # One read port per coprocessor pipeline: its issue interval is the
        # modelled HC-2 port arbitration cost and the throughput anchor for
        # Figure 10 (see DESIGN.md §5).
        self.read_port: MemoryPort = dram.new_port(
            f"{name}.rd", max_outstanding=64,
            issue_interval_cycles=read_issue_interval_cycles)
        self.write_port: MemoryPort = dram.new_port(
            f"{name}.wr", max_outstanding=64,
            issue_interval_cycles=write_issue_interval_cycles)
        self.completed = self.stats.counter(f"{name}.completed")
        self.errors = self.stats.counter(f"{name}.errors")
        self._build()

    # -- subclass hooks -------------------------------------------------
    def _build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _enter(self, req: DbRequest) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

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

    # -- shared plumbing ----------------------------------------------------
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

    def _forward(self, queue: Fifo, item: Any) -> None:
        """Unbounded inter-stage handoff (fire and forget)."""
        queue.try_put(item)
