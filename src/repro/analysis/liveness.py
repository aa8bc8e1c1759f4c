"""Liveness and reaching definitions for ISA programs.

Both are thin clients of the worklist engine in :mod:`.dataflow`,
run on the stitched whole-program flow graph — registers survive the
logic → commit/abort transition (the renamed register window belongs
to the transaction, not the section), so a GP written in transaction
logic and read in the commit handler is correctly live across the
stitch edge.

Built on top:

* :func:`dead_gp_writes` — GP writes by *pure* register ops
  (``ADD``/``SUB``/``MUL``/``DIV``/``MOV``) whose destination is dead.
  ``LOAD`` is exempt (it models real DRAM traffic — the "touch a
  field" idiom in read-only procedures is intentional), as are
  ``RET``/``RETN`` (collecting a result synchronises with the
  coprocessor even when the value is discarded).
* :func:`uncollected_cps` — DB dispatches whose CP register is dead:
  no path ever collects the result, so the slot is occupied for the
  whole transaction for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..isa.instructions import Instruction, Opcode, Program
from .dataflow import (
    FlowGraph, Node, cp_defs, cp_uses, gp_defs, gp_uses, program_flow,
    solve_backward,
)

__all__ = [
    "ENTRY_DEF", "LivenessResult", "ReachingDefs",
    "live_gp", "live_cp", "reaching_definitions",
    "dead_gp_writes", "uncollected_cps",
]

#: Pseudo def-site id: the register still holds its entry value (the
#: renamed register window is zero-filled at admission).
ENTRY_DEF = -1

_PURE_GP_OPS = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
                          Opcode.MOV})


@dataclass
class LivenessResult:
    """Per-node live register sets (``in`` = before the instruction)."""

    graph: FlowGraph
    live_in: List[FrozenSet[int]]
    live_out: List[FrozenSet[int]]

    def at(self, node: Node) -> FrozenSet[int]:
        return self.live_in[self.graph.node_id(node)]


def _liveness(graph: FlowGraph, defs, uses) -> LivenessResult:
    empty: FrozenSet[int] = frozenset()
    # each instruction's (defs, uses), taken once, not once per visit
    effect = {id(inst): (defs(inst), uses(inst)) for inst in graph._insts}

    def transfer(inst: Instruction, out_state: FrozenSet[int]) -> FrozenSet[int]:
        kill, gen = effect[id(inst)]
        if kill:
            out_state = out_state - kill
        return out_state | gen if gen else out_state

    ins, outs = solve_backward(graph, exit_state=empty, bottom=empty,
                               transfer=transfer,
                               join=lambda a, b: a | b)
    return LivenessResult(graph=graph, live_in=ins, live_out=outs)


def live_gp(program: Program, graph: FlowGraph = None) -> LivenessResult:
    """GP-register liveness (backward may-analysis)."""
    return _liveness(graph or program_flow(program), gp_defs, gp_uses)


def live_cp(program: Program, graph: FlowGraph = None) -> LivenessResult:
    """CP-register liveness: a CP is live between dispatch and RET."""
    return _liveness(graph or program_flow(program), cp_defs, cp_uses)


@dataclass
class ReachingDefs:
    """Reaching definitions for GP registers.

    States are frozensets of ``(register, def_node_id)`` pairs;
    ``def_node_id`` is :data:`ENTRY_DEF` for the implicit entry value.
    Only the registers the analysis was asked to track have pairs.
    """

    graph: FlowGraph
    reach_in: List[FrozenSet[Tuple[int, int]]]
    reach_out: List[FrozenSet[Tuple[int, int]]]

    def defs_of(self, nid: int, reg: int) -> FrozenSet[int]:
        """Def-site node ids for ``reg`` reaching the entry of ``nid``."""
        return frozenset(d for r, d in self.reach_in[nid] if r == reg)


def reaching_definitions(program: Program, graph: FlowGraph = None,
                         registers: Optional[Iterable[int]] = None
                         ) -> ReachingDefs:
    """Reaching definitions of every GP register the program names or,
    given ``registers``, of those alone: the answers for a tracked
    register are the same either way, and the states are smaller."""
    graph = graph or program_flow(program)
    empty: FrozenSet[Tuple[int, int]] = frozenset()
    gps, _ = program._registers()
    if registers is not None:
        gps = gps & set(registers)
    entry = frozenset((r, ENTRY_DEF) for r in gps)

    # per-node transfer needs the node id for the gen set; close over a
    # mutable cursor is fragile, so precompute gen/kill per node.
    gens: List[FrozenSet[Tuple[int, int]]] = []
    kills: List[FrozenSet[int]] = []
    for nid in range(len(graph)):
        defs = gp_defs(graph.inst(nid)) & gps
        gens.append(frozenset((r, nid) for r in defs))
        kills.append(defs)

    n = len(graph)
    ins: List[FrozenSet[Tuple[int, int]]] = [empty] * n
    outs: List[FrozenSet[Tuple[int, int]]] = [empty] * n
    entries = set(graph.entries)
    work = list(range(n))
    in_work = [True] * n
    while work:
        nid = work.pop(0)
        in_work[nid] = False
        state = entry if nid in entries else empty
        for p in graph.preds[nid]:
            state = state | outs[p]
        ins[nid] = state
        kill = kills[nid]
        new_out = (frozenset(pair for pair in state if pair[0] not in kill)
                   | gens[nid]) if kill else state
        if new_out != outs[nid]:
            outs[nid] = new_out
            for s in graph.succs[nid]:
                if not in_work[s]:
                    in_work[s] = True
                    work.append(s)
    return ReachingDefs(graph=graph, reach_in=ins, reach_out=outs)


def dead_gp_writes(program: Program, graph: FlowGraph = None,
                   liveness: Optional[LivenessResult] = None) -> List[Node]:
    """Nodes whose pure GP write is never read before redefinition/exit;
    ``liveness`` is the program's GP liveness when the caller has it."""
    graph = graph or program_flow(program)
    if liveness is None:
        liveness = live_gp(program, graph)
    dead: List[Node] = []
    for nid in range(len(graph)):
        inst = graph.inst(nid)
        if inst.opcode not in _PURE_GP_OPS:
            continue
        defs = gp_defs(inst)
        if defs and not defs & liveness.live_out[nid]:
            dead.append(graph.nodes[nid])
    return dead


def uncollected_cps(program: Program, graph: FlowGraph = None,
                    liveness: Optional[LivenessResult] = None) -> List[Node]:
    """DB dispatches whose CP result is never collected on any path;
    ``liveness`` is the program's CP liveness when the caller has it."""
    graph = graph or program_flow(program)
    if liveness is None:
        liveness = live_cp(program, graph)
    leaked: List[Node] = []
    for nid in range(len(graph)):
        inst = graph.inst(nid)
        defs = cp_defs(inst)
        if defs and not defs & liveness.live_out[nid]:
            leaked.append(graph.nodes[nid])
    return leaked
