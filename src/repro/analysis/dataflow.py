"""Generic worklist dataflow engine over ISA programs.

The engine runs at instruction granularity on a :class:`FlowGraph`
derived from the per-section basic-block CFGs (:mod:`.cfg`).  A node
is one instruction at a program point ``(section, index)``; edges are
the CFG edges, expanded to instruction level, plus the *stitch* edges
that connect the sections the way the softcore actually runs them
(§4.3/§4.7):

* falling off the end of the logic section enters the commit handler
  (validation passed) **and** the abort handler (validation failed) —
  the two phase-2 outcomes;
* a ``RET``/``RETN`` or ``DIV`` in the logic section may *trap*
  straight to the abort handler (failed DB result, div-by-zero), so
  each such instruction gets an extra edge to the abort entry.

Analyses supply a lattice as plain values plus ``join``/``transfer``
callables; :func:`solve_forward` and :func:`solve_backward` iterate a
worklist to the fixpoint and return per-node in/out states.  The
concrete analyses live in :mod:`.liveness` (liveness, reaching
definitions), :mod:`.protocol` (commit-protocol
proofs) and :mod:`.provenance` (partition ownership).

Def/use model
-------------

``gp_defs``/``gp_uses`` and ``cp_defs``/``cp_uses`` give the register
footprint of one instruction.  A DB instruction *defines* its CP
register (the coprocessor will write the result there); ``RET``/
``RETN`` *uses* the CP register and defines its GP destination.
Registers referenced through addressing modes (``@rN``, ``[rN+k]``,
computed keys) are uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Tuple, TypeVar,
)

from ..isa.instructions import (
    BlockRef, FieldRef, Gp, Instruction, Opcode, Program, Section,
)
from .cfg import EXIT, Cfg, build_all_cfgs

__all__ = [
    "Node", "FlowGraph", "program_flow",
    "solve_forward", "solve_backward",
    "gp_defs", "gp_uses", "cp_defs", "cp_uses",
]

S = TypeVar("S")

#: Logic-section opcodes that may trap to the abort handler mid-section
#: (failed DB result collection; division by zero).
TRAP_OPCODES = frozenset({Opcode.RET, Opcode.RETN, Opcode.DIV, Opcode.ABORT})


@dataclass(frozen=True)
class Node:
    """One program point: instruction ``index`` of ``section``."""
    section: Section
    index: int

    def __repr__(self) -> str:
        return f"{self.section.value}[{self.index}]"


class FlowGraph:
    """The stitched instruction-level flow graph of a whole program."""

    def __init__(self, program: Program, cfgs: Dict[Section, Cfg]):
        self.program = program
        self.cfgs = cfgs
        # a node's id is its section's first id plus its index: plain
        # integers, so no Node is hashed while the graph is built
        self.nodes: List[Node] = []
        #: section -> id of its first instruction
        self._first: Dict[Section, int] = {}
        #: node id -> instruction (the solvers ask once per visit)
        self._insts: List[Instruction] = []
        for section in Section:
            insts = program.section(section)
            self._first[section] = len(self.nodes)
            self.nodes.extend(Node(section, i) for i in range(len(insts)))
            self._insts.extend(insts)
        n = len(self.nodes)
        self.succs: List[List[int]] = [[] for _ in range(n)]
        self.preds: List[List[int]] = [[] for _ in range(n)]
        self._build_edges()

    # -- construction ----------------------------------------------------
    def _entry_of(self, section: Section) -> Optional[int]:
        return self._first[section] if self.program.section(section) else None

    def _build_edges(self) -> None:
        commit_entry = self._entry_of(Section.COMMIT)
        abort_entry = self._entry_of(Section.ABORT)
        edge = self._edge
        for section, cfg in self.cfgs.items():
            first = self._first[section]
            # section exits: logic flows into the phase-2 handlers
            if section is Section.LOGIC:
                exit_targets = [t for t in (commit_entry, abort_entry)
                                if t is not None]
            else:
                exit_targets = []
            for blk in cfg.blocks:
                # intra-block straight line
                for nid in range(first + blk.start, first + blk.end - 1):
                    edge(nid, nid + 1)
                # block terminator -> successor blocks (their first inst)
                last = first + blk.end - 1
                for s in blk.succs:
                    if s == EXIT:
                        for t in exit_targets:
                            edge(last, t)
                    else:
                        edge(last, first + cfg.blocks[s].start)
            # trap edges: logic may bail to the abort handler mid-stream
            if section is Section.LOGIC and abort_entry is not None:
                for i, inst in enumerate(cfg.insts):
                    if inst.opcode in TRAP_OPCODES:
                        edge(first + i, abort_entry)

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)
            self.preds[dst].append(src)

    # -- accessors -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, node: Node) -> int:
        if not 0 <= node.index < len(self.program.section(node.section)):
            raise KeyError(node)
        return self._first[node.section] + node.index

    def inst(self, nid: int) -> Instruction:
        return self._insts[nid]

    @property
    def entries(self) -> List[int]:
        """Graph entry points: the first logic instruction (or, for a
        logic-less program, the handler entries)."""
        logic = self._entry_of(Section.LOGIC)
        if logic is not None:
            return [logic]
        return [e for e in (self._entry_of(Section.COMMIT),
                            self._entry_of(Section.ABORT)) if e is not None]


def program_flow(program: Program) -> FlowGraph:
    """Build the stitched flow graph (finalizes ``program`` if needed)."""
    return FlowGraph(program, build_all_cfgs(program))


# ---------------------------------------------------------------------------
# worklist solvers
# ---------------------------------------------------------------------------

def solve_forward(
    graph: FlowGraph,
    entry_state: S,
    bottom: S,
    transfer: Callable[[Instruction, S], S],
    join: Callable[[S, S], S],
) -> Tuple[List[S], List[S]]:
    """Forward fixpoint: returns (in_states, out_states) per node id.

    ``bottom`` is the lattice bottom used for not-yet-visited
    predecessors; ``entry_state`` seeds the graph entries.  ``join``
    must be monotone and idempotent, ``transfer`` monotone — the usual
    Kildall conditions under which the worklist terminates at the
    least fixpoint.
    """
    n = len(graph)
    ins: List[S] = [bottom] * n
    outs: List[S] = [bottom] * n
    entries = set(graph.entries)
    insts, preds, succs = graph._insts, graph.preds, graph.succs
    work = deque(range(n))
    in_work = [True] * n
    while work:
        nid = work.popleft()
        in_work[nid] = False
        state = entry_state if nid in entries else bottom
        for p in preds[nid]:
            state = join(state, outs[p])
        ins[nid] = state
        new_out = transfer(insts[nid], state)
        if new_out != outs[nid]:
            outs[nid] = new_out
            for s in succs[nid]:
                if not in_work[s]:
                    in_work[s] = True
                    work.append(s)
    return ins, outs


def solve_backward(
    graph: FlowGraph,
    exit_state: S,
    bottom: S,
    transfer: Callable[[Instruction, S], S],
    join: Callable[[S, S], S],
) -> Tuple[List[S], List[S]]:
    """Backward fixpoint: returns (in_states, out_states) per node id.

    ``in`` here is the state *before* the instruction (the analysis
    result flowing against execution order); ``exit_state`` seeds
    nodes with no successors.
    """
    n = len(graph)
    ins: List[S] = [bottom] * n
    outs: List[S] = [bottom] * n
    insts, preds, succs = graph._insts, graph.preds, graph.succs
    work = deque(range(n - 1, -1, -1))
    in_work = [True] * n
    while work:
        nid = work.popleft()
        in_work[nid] = False
        state = exit_state if not succs[nid] else bottom
        for s in succs[nid]:
            state = join(state, ins[s])
        outs[nid] = state
        new_in = transfer(insts[nid], state)
        if new_in != ins[nid]:
            ins[nid] = new_in
            for p in preds[nid]:
                if not in_work[p]:
                    in_work[p] = True
                    work.append(p)
    return ins, outs


# ---------------------------------------------------------------------------
# def/use model
# ---------------------------------------------------------------------------

_ARITH = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV})
#: opcodes that write their ``dst`` GP register
_GP_WRITERS = _ARITH | {Opcode.MOV, Opcode.LOAD, Opcode.RET, Opcode.RETN}
_NONE: FrozenSet[int] = frozenset()


def _addr_uses(addr) -> FrozenSet[int]:
    if isinstance(addr, BlockRef) and isinstance(addr.offset, Gp):
        return frozenset((addr.offset.n,))
    if isinstance(addr, FieldRef):
        return frozenset((addr.base.n,))
    return _NONE


def gp_defs(inst: Instruction) -> FrozenSet[int]:
    """GP registers this instruction writes."""
    if inst.dst is not None and inst.opcode in _GP_WRITERS:
        return frozenset((inst.dst.n,))
    return _NONE


def gp_uses(inst: Instruction) -> FrozenSet[int]:
    """GP registers this instruction reads (any addressing mode)."""
    used = []
    for operand in (inst.a, inst.b, inst.key):
        if isinstance(operand, Gp):
            used.append(operand.n)
        elif isinstance(operand, BlockRef) and isinstance(operand.offset, Gp):
            used.append(operand.offset.n)
    if inst.addr is not None:
        return _addr_uses(inst.addr).union(used)
    return frozenset(used) if used else _NONE


def cp_defs(inst: Instruction) -> FrozenSet[int]:
    """CP registers this instruction writes (DB dispatch)."""
    if inst.is_db and inst.cp is not None:
        return frozenset((inst.cp.n,))
    return _NONE


def cp_uses(inst: Instruction) -> FrozenSet[int]:
    """CP registers this instruction reads (result collection)."""
    if inst.cp is not None and inst.opcode in (Opcode.RET, Opcode.RETN):
        return frozenset((inst.cp.n,))
    return _NONE
