"""The key-provenance lattice (§4.4) and the static MLP estimate.

DORA-style partitioning makes the *key operand* of every DB
instruction a routing decision: the worker compares the key's home
partition against its own id and either executes locally or sends the
request over the on-chip message path (§4.4).  Which partition a key
can reach is decided by where the key *comes from*, so the footprint
pass (:func:`repro.analysis.footprint.analyze_footprint`)
abstract-interprets GP registers over a small provenance lattice::

    KeyOrigin(const, cells, opaque)

* ``const``  — the exact integer value, when the register is a
  compile-time constant (MOV #imm and arithmetic over constants);
* ``cells``  — the set of transaction-block input cells the value may
  depend on (LOAD @k taints with {k}; arithmetic unions);
* ``opaque`` — the value additionally depends on runtime-only data
  (tuple fields, DB results, register-indirect block cells).

This module holds the lattice and its transfer function; the pass and
the summary it produces live in :mod:`.footprint`.

:func:`static_mlp` is the maximum number of in-flight DB dispatches
along any path (dispatch +1, RET/RETN −1, max-join at merges) — the
intra-transaction index parallelism the paper's Figure 9 measures, and
a direct occupancy bound for the index coprocessor pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from ..isa.instructions import (
    BlockRef, Gp, Imm, Instruction, Opcode, Program, Section,
)
from .dataflow import FlowGraph, program_flow, solve_forward

__all__ = ["KeyOrigin", "static_mlp"]


@dataclass(frozen=True)
class KeyOrigin:
    """Abstract provenance of one register (or key operand) value."""

    const: Optional[int] = None
    cells: FrozenSet[int] = frozenset()
    opaque: bool = False

    @staticmethod
    def constant(v) -> "KeyOrigin":
        if isinstance(v, int) and not isinstance(v, bool):
            return KeyOrigin(const=v)
        return KeyOrigin()          # non-integer immediate: input-free

    @staticmethod
    def cell(offset: int) -> "KeyOrigin":
        return KeyOrigin(cells=frozenset({offset}))

    @staticmethod
    def runtime() -> "KeyOrigin":
        return KeyOrigin(opaque=True)

    def taint(self) -> "KeyOrigin":
        """The same anchors, but through a runtime indirection."""
        return KeyOrigin(const=None, cells=self.cells, opaque=True)

    def join(self, other: "KeyOrigin") -> "KeyOrigin":
        const = self.const if self.const == other.const else None
        opaque = self.opaque or other.opaque
        if (const == self.const and opaque == self.opaque
                and other.cells <= self.cells):
            return self         # (states share what a join leaves as is)
        return KeyOrigin(const=const, cells=self.cells | other.cells,
                         opaque=opaque)

    def combine(self, other: "KeyOrigin", op: Opcode) -> "KeyOrigin":
        """Provenance of a binary arithmetic result."""
        if self.const is not None and other.const is not None:
            a, b = self.const, other.const
            try:
                v = {Opcode.ADD: a + b, Opcode.SUB: a - b,
                     Opcode.MUL: a * b}.get(op)
                if v is None and op is Opcode.DIV and b != 0:
                    v = a // b
            except (OverflowError, ValueError):   # pragma: no cover
                v = None
            if v is not None:
                return KeyOrigin(const=v)
        return KeyOrigin(const=None, cells=self.cells | other.cells,
                         opaque=self.opaque or other.opaque)


#: Abstract state: register -> origin; missing = entry value (opaque).
#: GP registers are keyed by their number; CP registers by ("cp", n) —
#: a dispatch stores the (tainted) key origin there and RET propagates
#: it, so a key loaded from a fetched tuple's field keeps the anchor of
#: the cell that located the tuple (TPC-C co-partitioning: the
#: last-order pointer in a customer row lives in the customer's own
#: warehouse partition).
_ENTRY = KeyOrigin.runtime()


def _get(state: Dict, reg: int) -> KeyOrigin:
    return state.get(reg, _ENTRY)


def _get_cp(state: Dict, n: int) -> KeyOrigin:
    return state.get(("cp", n), _ENTRY)


def _operand_origin(state: Dict, operand) -> KeyOrigin:
    if isinstance(operand, Gp):
        return _get(state, operand.n)
    if isinstance(operand, Imm):
        return KeyOrigin.constant(operand.value)
    return KeyOrigin.runtime()


def _key_origin(state: Dict, key) -> KeyOrigin:
    """Abstract origin of a DB instruction's key operand."""
    if isinstance(key, BlockRef):
        if isinstance(key.offset, int):
            return KeyOrigin.cell(key.offset + key.extra)
        return _get(state, key.offset.n).taint()     # @rN: computed cell
    return _operand_origin(state, key)


def _transfer(inst: Instruction, state: Dict) -> Dict:
    op = inst.opcode
    if op is Opcode.MOV:
        return {**state, inst.dst.n: _operand_origin(state, inst.a)}
    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV):
        a = _operand_origin(state, inst.a)
        b = _operand_origin(state, inst.b)
        return {**state, inst.dst.n: a.combine(b, op)}
    if op is Opcode.LOAD:
        addr = inst.addr
        if isinstance(addr, BlockRef) and isinstance(addr.offset, int):
            origin = KeyOrigin.cell(addr.offset + addr.extra)
        elif isinstance(addr, BlockRef):          # @rN: computed cell
            origin = _get(state, addr.offset.n).taint()
        else:                                     # [rN+k]: tuple field
            origin = _get(state, addr.base.n).taint()
        return {**state, inst.dst.n: origin}
    if inst.is_db and inst.cp is not None:
        # The result tuple is co-located with the key that found it.
        return {**state, ("cp", inst.cp.n): _key_origin(state, inst.key).taint()}
    if op in (Opcode.RET, Opcode.RETN):
        return {**state, inst.dst.n: _get_cp(state, inst.cp.n)}
    return state


def static_mlp(program: Program, graph: Optional[FlowGraph] = None) -> int:
    """Max in-flight DB dispatches along any path (max-join dataflow)."""
    graph = graph or program_flow(program)
    total_db = sum(1 for s in Section for i in program.section(s) if i.is_db)
    if total_db == 0:
        return 0

    def transfer(inst: Instruction, state: int) -> int:
        if inst.is_db:
            return min(state + 1, total_db)
        if inst.opcode in (Opcode.RET, Opcode.RETN):
            return max(state - 1, 0)
        return state

    ins, outs = solve_forward(graph, entry_state=0, bottom=0,
                              transfer=transfer, join=max)
    return max(outs, default=0)
