"""Commit-protocol proofs (§4.7) as dataflow over the flow graph.

The paper's commit protocol is a *convention*: transaction logic
dispatches DB instructions and collects results with ``RET``; in-place
writes (``WRFIELD``) may only touch tuples the transaction holds a
write intent on (obtained by ``UPDATE``/``REMOVE``/``INSERT``, which
dirty-mark the tuple and UNDO-log the old value); ``COMMIT`` runs only
in the commit handler.  The peephole verifier could check the last
rule; the first two need dataflow:

* **pending-CP analysis** — forward analyses tracking which CP
  registers hold an un-collected dispatch.  The *must* variant
  (intersection join) proves every ``RET c`` is dominated by a
  dispatch writing ``c``: if ``c`` is not must-pending at the RET,
  some path reaches the RET with nothing in flight and the softcore
  parks on its valid bit forever.  The *may* variant (union join)
  flags a dispatch that overwrites a CP whose previous result was
  never collected.
* **write-provenance analysis** — reaching definitions trace every
  ``WRFIELD`` base register to the ``RET`` that produced the tuple
  address, and from there to the dispatch opcodes of that CP.  A base
  that can originate from a ``SEARCH``/``SCAN`` result is a write to
  a tuple without a write intent: it bypasses the dirty-mark and the
  UNDO log, so neither concurrency control nor rollback sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instructions import Instruction, Opcode, Program, Section
from .dataflow import FlowGraph, Node, program_flow, solve_forward
from .liveness import ENTRY_DEF, reaching_definitions

__all__ = ["PendingCpResult", "WriteProvenance", "CommitProtocolReport",
           "pending_cps", "write_provenance", "check_commit_protocol"]

#: Dispatch opcodes that take a write intent on the target tuple.
WRITE_INTENT_OPCODES = frozenset({Opcode.UPDATE, Opcode.REMOVE, Opcode.INSERT})


@dataclass
class PendingCpResult:
    """Per-node pending-CP sets (must and may variants)."""

    graph: FlowGraph
    must_in: List[FrozenSet[int]]
    may_in: List[FrozenSet[int]]
    #: CP registers dispatched anywhere in the program
    dispatched_anywhere: FrozenSet[int]


def _pending_transfer(inst: Instruction,
                      state: FrozenSet[int]) -> FrozenSet[int]:
    cp = inst.cp
    if cp is None:
        return state
    if inst.is_db:
        return state | {cp.n}
    if inst.opcode in (Opcode.RET, Opcode.RETN):
        return state - {cp.n}
    return state


def pending_cps(program: Program, graph: Optional[FlowGraph] = None
                ) -> PendingCpResult:
    """Run both pending-CP analyses over the stitched flow graph."""
    graph = graph or program_flow(program)
    dispatched = frozenset(
        inst.cp.n
        for section in Section
        for inst in program.section(section)
        if inst.is_db and inst.cp is not None)

    empty: FrozenSet[int] = frozenset()
    # must: intersection join; bottom (unvisited preds) = full universe
    must_in, _ = solve_forward(
        graph, entry_state=empty, bottom=dispatched,
        transfer=_pending_transfer, join=lambda a, b: a & b)
    # may: union join; bottom = empty
    may_in, _ = solve_forward(
        graph, entry_state=empty, bottom=empty,
        transfer=_pending_transfer, join=lambda a, b: a | b)
    return PendingCpResult(graph=graph, must_in=must_in, may_in=may_in,
                           dispatched_anywhere=dispatched)


@dataclass
class WriteProvenance:
    """Provenance of one ``WRFIELD``'s base register."""

    node: Node
    #: dispatch opcodes of the CPs whose RETs can define the base
    intent_opcodes: FrozenSet[Opcode]
    #: def-site nodes that are not RET/RETN (MOV/LOAD/arith/entry)
    untracked_defs: FrozenSet[int]

    @property
    def protected(self) -> bool:
        """All traced origins hold a write intent."""
        return (not self.untracked_defs
                and self.intent_opcodes <= WRITE_INTENT_OPCODES)


def write_provenance(program: Program, graph: Optional[FlowGraph] = None
                     ) -> List[WriteProvenance]:
    """Trace every WRFIELD base register back to its producing dispatch."""
    graph = graph or program_flow(program)
    bases = {inst.addr.base.n for inst in graph._insts
             if inst.opcode is Opcode.WRFIELD}
    if not bases:
        return []
    reach = reaching_definitions(program, graph, registers=bases)

    # CP register -> opcodes of the dispatches writing it
    cp_opcodes: Dict[int, Set[Opcode]] = {}
    for section in Section:
        for inst in program.section(section):
            if inst.is_db and inst.cp is not None:
                cp_opcodes.setdefault(inst.cp.n, set()).add(inst.opcode)

    out: List[WriteProvenance] = []
    for nid in range(len(graph)):
        inst = graph.inst(nid)
        if inst.opcode is not Opcode.WRFIELD:
            continue
        base = inst.addr.base.n
        opcodes: Set[Opcode] = set()
        untracked: Set[int] = set()
        for d in reach.defs_of(nid, base):
            if d == ENTRY_DEF:
                untracked.add(d)
                continue
            def_inst = graph.inst(d)
            if def_inst.opcode in (Opcode.RET, Opcode.RETN):
                opcodes |= cp_opcodes.get(def_inst.cp.n, set())
            else:
                untracked.add(d)
        out.append(WriteProvenance(node=graph.nodes[nid],
                                   intent_opcodes=frozenset(opcodes),
                                   untracked_defs=frozenset(untracked)))
    return out


@dataclass
class CommitProtocolReport:
    """The outcome of :func:`check_commit_protocol`.

    Each entry is ``(node, detail)`` ready to be rendered as a
    :class:`~repro.isa.verify.Finding` by the verifier client.
    """

    #: RET of a CP no dispatch anywhere writes (guaranteed deadlock)
    unwritten_rets: List[Node] = field(default_factory=list)
    #: RET whose CP is dispatched somewhere, but not pending on every
    #: path reaching the RET (possible deadlock / double collect)
    unready_rets: List[Tuple[Node, FrozenSet[int]]] = field(default_factory=list)
    #: dispatch overwriting a CP whose result may still be pending
    redispatches: List[Node] = field(default_factory=list)
    #: WRFIELD through a tuple address lacking a write intent
    unprotected_writes: List[WriteProvenance] = field(default_factory=list)
    #: WRFIELD whose base register provenance is not a RET at all
    untracked_writes: List[WriteProvenance] = field(default_factory=list)

    @property
    def proven(self) -> bool:
        """The program provably follows the §4.7 conventions."""
        return not (self.unwritten_rets or self.unready_rets
                    or self.redispatches or self.unprotected_writes
                    or self.untracked_writes)


def check_commit_protocol(program: Program,
                          graph: Optional[FlowGraph] = None
                          ) -> CommitProtocolReport:
    """Prove (or refute) the §4.7 commit-protocol conventions."""
    graph = graph or program_flow(program)
    pending = pending_cps(program, graph)
    report = CommitProtocolReport()

    for nid in range(len(graph)):
        inst = graph.inst(nid)
        node = graph.nodes[nid]
        if inst.opcode in (Opcode.RET, Opcode.RETN) and inst.cp is not None:
            cp = inst.cp.n
            if cp not in pending.dispatched_anywhere:
                report.unwritten_rets.append(node)
            elif (node.section is not Section.ABORT
                    and cp not in pending.must_in[nid]):
                # abort handlers are entered from trap points whose
                # pending sets differ wildly; the must-join there is too
                # coarse to prove anything, so only the
                # dispatched-anywhere check applies to them.
                report.unready_rets.append((node, pending.must_in[nid]))
        if inst.is_db and inst.cp is not None:
            if inst.cp.n in pending.may_in[nid]:
                report.redispatches.append(node)

    for prov in write_provenance(program, graph):
        if prov.protected:
            continue
        if prov.intent_opcodes - WRITE_INTENT_OPCODES:
            report.unprotected_writes.append(prov)
        if prov.untracked_defs:
            report.untracked_writes.append(prov)
    return report
