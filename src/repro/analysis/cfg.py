"""Control-flow graphs over ISA program sections.

A :class:`Cfg` partitions one section (logic / commit / abort) into
basic blocks: maximal straight-line runs with a single entry (a
*leader*: instruction 0, any branch target, or any branch successor)
and a single exit (a branch, a terminator, or the fall-through into
the next leader).  Edges are the resolved branch targets plus
fall-throughs; a branch to ``len(section)`` — the legal "one past the
end" loop exit — and falling off the last instruction both flow to the
synthetic :data:`EXIT` node.

Block labels use the same ``L<index>`` naming as
:func:`repro.isa.disassembler.disassemble`, so a CFG's blocks and a
disassembly listing of the same section carry the same labels.

The CFG is the substrate for everything in :mod:`repro.analysis`:
the worklist dataflow engine (:mod:`repro.analysis.dataflow`) derives
its instruction-level flow graph from these blocks, and the dominator
computation here backs the commit-protocol proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import (
    BRANCH_OPCODES, Instruction, IsaError, Label, Opcode, Program, Section,
)

__all__ = ["EXIT", "BasicBlock", "Cfg", "build_cfg", "build_all_cfgs"]

#: Synthetic block id for "execution leaves the section".
EXIT = -1

#: Opcodes after which control cannot continue to the next instruction.
TERMINATOR_OPCODES = frozenset({Opcode.COMMIT, Opcode.ABORT})


@dataclass
class BasicBlock:
    """One basic block: instructions ``[start, end)`` of the section."""

    bid: int
    start: int
    end: int                      # exclusive
    succs: List[int] = field(default_factory=list)   # block ids (or EXIT)
    preds: List[int] = field(default_factory=list)

    @property
    def label(self) -> str:
        """The block's name — ``L<start>``, matching the disassembler."""
        return f"L{self.start}"

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


@dataclass
class Cfg:
    """The control-flow graph of one program section."""

    section: Section
    insts: List[Instruction]
    blocks: List[BasicBlock]
    #: instruction index -> owning block id
    block_at: List[int]
    #: (instruction index, resolved target) pairs outside [0, len(insts)]
    bad_targets: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def entry(self) -> Optional[int]:
        return 0 if self.blocks else None

    def block_of(self, index: int) -> BasicBlock:
        return self.blocks[self.block_at[index]]

    # -- orders and reachability -----------------------------------------
    def reachable(self) -> Set[int]:
        """Block ids reachable from the entry block."""
        seen: Set[int] = set()
        if not self.blocks:
            return seen
        stack = [0]
        while stack:
            bid = stack.pop()
            if bid == EXIT or bid in seen:
                continue
            seen.add(bid)
            stack.extend(self.blocks[bid].succs)
        return seen

    def reverse_postorder(self) -> List[int]:
        """Block ids in reverse postorder (the canonical forward-analysis
        iteration order: predecessors tend to come first)."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            # iterative DFS; post-position appended after children
            stack: List[Tuple[int, int]] = [(bid, 0)]
            while stack:
                b, i = stack.pop()
                if i == 0:
                    if b in seen:
                        continue
                    seen.add(b)
                succs = [s for s in self.blocks[b].succs if s != EXIT]
                if i < len(succs):
                    stack.append((b, i + 1))
                    if succs[i] not in seen:
                        stack.append((succs[i], 0))
                else:
                    order.append(b)

        if self.blocks:
            visit(0)
        return list(reversed(order))

    def dominators(self) -> Dict[int, Set[int]]:
        """``dom[b]`` = block ids dominating block ``b`` (including b).

        Iterative Cooper-style computation over reverse postorder;
        unreachable blocks dominate themselves only.
        """
        reach = self.reachable()
        all_ids = set(b.bid for b in self.blocks)
        dom: Dict[int, Set[int]] = {}
        for b in self.blocks:
            if b.bid == 0:
                dom[b.bid] = {0}
            elif b.bid in reach:
                dom[b.bid] = set(all_ids)
            else:
                dom[b.bid] = {b.bid}
        order = [b for b in self.reverse_postorder() if b != 0]
        changed = True
        while changed:
            changed = False
            for bid in order:
                preds = [p for p in self.blocks[bid].preds if p in reach]
                if not preds:
                    continue
                new = set.intersection(*(dom[p] for p in preds)) | {bid}
                if new != dom[bid]:
                    dom[bid] = new
                    changed = True
        return dom

    def reaches_opcode(self, opcode: Opcode) -> bool:
        """Whether any reachable block contains ``opcode``."""
        for bid in self.reachable():
            blk = self.blocks[bid]
            if any(self.insts[i].opcode is opcode
                   for i in range(blk.start, blk.end)):
                return True
        return False


def _resolved_target(inst: Instruction, index: int) -> int:
    if isinstance(inst.target, Label):
        raise IsaError(
            f"CFG construction needs resolved branch targets; instruction "
            f"{index} still targets label {inst.target.name!r} — finalize "
            f"the program first")
    return inst.target


def build_cfg(program: Program, section: Section) -> Cfg:
    """Construct the CFG of one section of a finalized program."""
    insts = program.section(section)
    n = len(insts)
    bad: List[Tuple[int, int]] = []

    # -- leaders ---------------------------------------------------------
    leaders: Set[int] = {0} if n else set()
    for i, inst in enumerate(insts):
        if inst.opcode in BRANCH_OPCODES:
            t = _resolved_target(inst, i)
            if 0 <= t < n:
                leaders.add(t)
            elif not 0 <= t <= n:
                bad.append((i, t))
            if i + 1 < n:
                leaders.add(i + 1)
        elif inst.opcode in TERMINATOR_OPCODES and i + 1 < n:
            leaders.add(i + 1)

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_at = [0] * n
    for bid, start in enumerate(starts):
        end = starts[bid + 1] if bid + 1 < len(starts) else n
        blocks.append(BasicBlock(bid=bid, start=start, end=end))
        for i in range(start, end):
            block_at[i] = bid

    # -- edges -----------------------------------------------------------
    def block_id_of(target: int) -> int:
        return EXIT if target >= n else block_at[target]

    for blk in blocks:
        last = insts[blk.end - 1]
        if last.opcode in TERMINATOR_OPCODES:
            continue                      # COMMIT/ABORT: flow ends here
        if last.opcode in BRANCH_OPCODES:
            t = _resolved_target(last, blk.end - 1)
            if 0 <= t <= n:
                blk.succs.append(block_id_of(t))
            if last.opcode is not Opcode.JMP:   # conditional: fall through
                blk.succs.append(block_id_of(blk.end))
        else:
            blk.succs.append(block_id_of(blk.end))

    for blk in blocks:
        for s in blk.succs:
            if s != EXIT:
                blocks[s].preds.append(blk.bid)

    return Cfg(section=section, insts=insts, blocks=blocks,
               block_at=block_at, bad_targets=bad)


def build_all_cfgs(program: Program) -> Dict[Section, Cfg]:
    """CFGs for all three sections (finalizes the program if needed)."""
    if not program.finalized:
        program.finalize()
    return {section: build_cfg(program, section) for section in Section}
