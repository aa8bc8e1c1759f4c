"""Worst-case cycle bound per stored procedure (WCET pass).

The softcore's timing is fully static (§4.3: no pipelining, no cache,
fixed stage costs), so a worst-case execution bound is just the longest
path through the stitched flow graph with every instruction charged its
timing-model cost:

* CPU instructions cost ``CPU_INST_CYCLES`` (5);
* a DB dispatch costs Prepare + Dispatch (asynchronous hand-off — the
  latency of the index probe itself is hidden behind MLP and paid at
  the collecting ``RET``);
* ``RET``/``RETN`` cost ``RET_CYCLES`` plus a worst-case result wait
  (:attr:`WcetModel.ret_wait_cycles`: three DRAM round trips — a hash
  probe's bucket walk);
* ``LOAD [r+k]`` / ``WRFIELD`` add a DRAM line fetch;
* ``COMMIT``/``ABORT`` charge ``COMMIT_CYCLES_PER_ENTRY`` per
  write-set/undo entry, bounded statically by the program's write
  dispatch and WRFIELD counts.

The charges are the softcore's own (:mod:`repro.softcore.timing`), the
DRAM latency the machine's (:data:`repro.sim.memory.DRAM_LATENCY_CYCLES`)
and cycles convert to time at :data:`repro.sim.clock.FPGA_MHZ`.

Loops make the longest-path problem ill-posed, so the pass contracts
every non-trivial SCC of the flow graph and charges it ``loop_bound``
iterations of its total body cost (the bound is reported, never
silent); on the acyclic condensation the longest path is exact.  The
result is reported next to the static MLP estimate: WCET bounds the
*latency* a transaction can occupy the softcore, MLP bounds the index
*bandwidth* it can absorb — together the two sides of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.instructions import FieldRef, Instruction, Opcode, Program, Section
from ..sim.clock import FPGA_MHZ
from ..sim.memory import DRAM_LATENCY_CYCLES
from ..softcore.timing import (
    CATALOGUE_CYCLES, COMMIT_CYCLES_PER_ENTRY, CONTEXT_SWITCH_CYCLES,
    CPU_INST_CYCLES, DB_DISPATCH_CYCLES, DB_PREPARE_CYCLES, RET_CYCLES,
    WRFIELD_CYCLES,
)
from .dataflow import FlowGraph, program_flow
from .provenance import static_mlp

__all__ = ["WcetModel", "WcetReport", "analyze_wcet"]

_BRANCHES = frozenset({Opcode.JMP, Opcode.BE, Opcode.BNE, Opcode.BLE,
                       Opcode.BLT, Opcode.BGT, Opcode.BGE})
_WRITE_OPS = frozenset({Opcode.INSERT, Opcode.UPDATE, Opcode.REMOVE})


class WcetModel:
    """Per-instruction worst-case cycle charges: the softcore's own,
    plus the DRAM waits an instruction can meet."""

    #: worst-case cycles a RET waits for its coprocessor result (three
    #: DRAM round trips: bucket header, chain hop, tuple line)
    ret_wait_cycles = 3 * DRAM_LATENCY_CYCLES
    ns_per_cycle = 1000.0 / FPGA_MHZ

    @classmethod
    def inst_cycles(cls, inst: Instruction, n_writes: int,
                    n_wrfields: int) -> float:
        """Worst-case charge for one instruction."""
        op = inst.opcode
        if inst.is_db:
            return DB_PREPARE_CYCLES + DB_DISPATCH_CYCLES
        if op in (Opcode.RET, Opcode.RETN):
            return RET_CYCLES + cls.ret_wait_cycles
        if op is Opcode.COMMIT:
            # one apply per write-set entry + the final apply's DRAM wait
            return (COMMIT_CYCLES_PER_ENTRY * n_writes
                    + (DRAM_LATENCY_CYCLES if n_writes else 0.0))
        if op is Opcode.ABORT:
            entries = n_writes + n_wrfields
            return (COMMIT_CYCLES_PER_ENTRY * entries
                    + (DRAM_LATENCY_CYCLES if entries else 0.0))
        if op is Opcode.WRFIELD:
            # cpu issue + backup-and-write + tuple line fetch
            return CPU_INST_CYCLES + WRFIELD_CYCLES + DRAM_LATENCY_CYCLES
        if op is Opcode.LOAD and isinstance(inst.addr, FieldRef):
            return CPU_INST_CYCLES + DRAM_LATENCY_CYCLES
        return CPU_INST_CYCLES


@dataclass
class WcetReport:
    """The worst-case cycle bound of one procedure."""

    program_name: str
    cycles: float
    overhead_cycles: float
    has_loops: bool
    loop_bound: int
    static_mlp: int
    n_insts: int
    n_writes: int

    @property
    def total_cycles(self) -> float:
        return self.cycles + self.overhead_cycles

    @property
    def ns(self) -> float:
        return self.total_cycles * WcetModel.ns_per_cycle

    def format(self) -> str:
        loops = (f", loops bounded at {self.loop_bound} iterations"
                 if self.has_loops else ", loop-free")
        return (f"WCET for {self.program_name}: "
                f"{self.total_cycles:.0f} cycles "
                f"({self.ns / 1000.0:.2f} us at {FPGA_MHZ:.0f} MHz) — "
                f"{self.cycles:.0f} path + "
                f"{self.overhead_cycles:.0f} overhead, "
                f"{self.n_insts} instructions, {self.n_writes} writes, "
                f"static MLP {self.static_mlp}{loops}")

    def to_json(self) -> dict:
        return {
            "program": self.program_name,
            "wcet_cycles": round(self.total_cycles, 3),
            "wcet_ns": round(self.ns, 3),
            "path_cycles": round(self.cycles, 3),
            "overhead_cycles": round(self.overhead_cycles, 3),
            "has_loops": self.has_loops,
            "loop_bound": self.loop_bound,
            "static_mlp": self.static_mlp,
            "n_insts": self.n_insts,
            "n_writes": self.n_writes,
        }


def _sccs(n: int, succs: List[List[int]]) -> List[List[int]]:
    """Tarjan's SCCs, iteratively (returned in reverse topological
    order: every edge goes from a later list entry to an earlier one)."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    out: List[List[int]] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succs[v])):
                w = succs[v][i]
                if not visited[w]:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


def analyze_wcet(program: Program,
                 loop_bound: int = 16,
                 graph: Optional[FlowGraph] = None,
                 footprint=None) -> WcetReport:
    """Longest-path cycle bound over the stitched flow graph.

    ``footprint`` is the procedure's
    :class:`~repro.analysis.footprint.FootprintSummary` when the caller
    already has it: the report's static MLP is read from it.
    """
    graph = graph or program_flow(program)
    n = len(graph)
    n_writes = sum(1 for s in Section for i in program.section(s)
                   if i.opcode in _WRITE_OPS)
    n_wrfields = sum(1 for s in Section for i in program.section(s)
                     if i.opcode is Opcode.WRFIELD)
    # admission + the two context switches (post-logic, pre-handler)
    overhead = CATALOGUE_CYCLES + 2 * CONTEXT_SWITCH_CYCLES
    if n == 0:
        return WcetReport(program_name=program.name, cycles=0.0,
                          overhead_cycles=overhead, has_loops=False,
                          loop_bound=loop_bound, static_mlp=0, n_insts=0,
                          n_writes=n_writes)

    cost = [WcetModel.inst_cycles(graph.inst(nid), n_writes, n_wrfields)
            for nid in range(n)]

    comps = _sccs(n, graph.succs)           # reverse topological order
    comp_of = [0] * n
    for cid, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = cid
    has_loops = False
    comp_cost = []
    for cid, comp in enumerate(comps):
        v = comp[0]
        trivial = len(comp) == 1 and v not in graph.succs[v]
        if trivial:
            comp_cost.append(cost[v])
        else:
            has_loops = True
            comp_cost.append(sum(cost[w] for w in comp) * loop_bound)

    # Longest path over the condensation, walked in topological order
    # (= reversed Tarjan output).
    best = [float("-inf")] * len(comps)
    entry_comps = {comp_of[e] for e in graph.entries}
    for cid in sorted(entry_comps):
        best[cid] = comp_cost[cid]
    for cid in range(len(comps) - 1, -1, -1):
        if best[cid] == float("-inf"):
            continue
        for v in comps[cid]:
            for w in graph.succs[v]:
                tc = comp_of[w]
                if tc != cid and best[cid] + comp_cost[tc] > best[tc]:
                    best[tc] = best[cid] + comp_cost[tc]
    cycles = max((b for b in best if b != float("-inf")), default=0.0)

    return WcetReport(
        program_name=program.name, cycles=cycles,
        overhead_cycles=overhead, has_loops=has_loops,
        loop_bound=loop_bound,
        static_mlp=(footprint.static_mlp if footprint is not None
                    else static_mlp(program, graph)),
        n_insts=n, n_writes=n_writes)
