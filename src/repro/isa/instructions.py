"""The BionicDB instruction set (Table 2 of the paper).

Two instruction classes exist:

* **CPU instructions** executed directly by the softcore in five steps
  (IFetch, Decode, Execute, Memory, Writeback) — arithmetic, moves,
  compares, loads/stores, branches, ``RET`` and ``COMMIT``/``ABORT``.
* **DB instructions** (``INSERT``/``SEARCH``/``SCAN``/``UPDATE``/
  ``REMOVE``) which the softcore prepares and dispatches asynchronously
  to an index coprocessor; their results come back later through CP
  (coprocessor) registers and are collected with ``RET``.

Operands reference 256 general-purpose (GP) and 256 coprocessor (CP)
registers.  The addressing mode is base-offset against the transaction
block (``@off``), plus register-indirect field access into tuples
(``[rN+k]``) which the softcore uses for in-place updates after an
``UPDATE`` returns the tuple address.

One deviation from Table 2 is documented in DESIGN.md: ``WRFIELD`` is a
canned micro-sequence (backup-to-UNDO-log + in-place field write) that
the paper describes as LOAD/STORE sequences emitted around UPDATE; we
expose it as a single instruction with the cost of its expansion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import BionicError

__all__ = [
    "Opcode", "Gp", "Cp", "Imm", "BlockRef", "FieldRef", "Label",
    "Instruction", "Program", "Section", "IsaError",
    "DB_OPCODES", "CPU_OPCODES",
]


class IsaError(BionicError, ValueError):
    """Raised for malformed instructions or programs."""


class Opcode(enum.Enum):
    # members are singletons compared by identity: hash them by identity
    # too, in C, not by name (the analyses test set membership per node)
    __hash__ = object.__hash__

    # DB instructions (dispatched to the index coprocessor)
    INSERT = "INSERT"
    SEARCH = "SEARCH"
    SCAN = "SCAN"
    RANGE_SCAN = "RANGE_SCAN"
    UPDATE = "UPDATE"
    REMOVE = "REMOVE"
    # CPU: arithmetic / moves
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    MOV = "MOV"
    CMP = "CMP"
    # CPU: memory
    LOAD = "LOAD"
    STORE = "STORE"
    WRFIELD = "WRFIELD"  # backup-and-write tuple field (documented macro)
    # CPU: control flow
    JMP = "JMP"
    BE = "BE"
    BNE = "BNE"
    BLE = "BLE"
    BLT = "BLT"
    BGT = "BGT"
    BGE = "BGE"
    # CPU: coprocessor interaction / commit protocol
    RET = "RET"
    RETN = "RETN"   # null-tolerant RET: NOT_FOUND yields 0, no abort trap
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    NOP = "NOP"


DB_OPCODES = frozenset({Opcode.INSERT, Opcode.SEARCH, Opcode.SCAN,
                        Opcode.RANGE_SCAN, Opcode.UPDATE, Opcode.REMOVE})
CPU_OPCODES = frozenset(op for op in Opcode if op not in DB_OPCODES)

BRANCH_OPCODES = frozenset({Opcode.JMP, Opcode.BE, Opcode.BNE, Opcode.BLE,
                            Opcode.BLT, Opcode.BGT, Opcode.BGE})


@dataclass(frozen=True)
class Gp:
    """A general-purpose register reference (r0..r255)."""
    n: int

    def __post_init__(self):
        if not 0 <= self.n < 256:
            raise IsaError(f"GP register out of range: r{self.n}")

    def __repr__(self) -> str:
        return f"r{self.n}"


@dataclass(frozen=True)
class Cp:
    """A coprocessor register reference (c0..c255)."""
    n: int

    def __post_init__(self):
        if not 0 <= self.n < 256:
            raise IsaError(f"CP register out of range: c{self.n}")

    def __repr__(self) -> str:
        return f"c{self.n}"


@dataclass(frozen=True)
class Imm:
    """An immediate value inlined into the instruction."""
    value: Any

    def __repr__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class BlockRef:
    """Transaction-block-relative address: ``@off`` or ``@rN`` (+imm).

    The softcore resolves it as ``block_base + offset`` where the offset
    comes from an immediate, a GP register, or register+immediate.
    """
    offset: Union[int, Gp]
    extra: int = 0

    def __repr__(self) -> str:
        if self.extra:
            return f"@{self.offset!r}+{self.extra}"
        return f"@{self.offset!r}" if isinstance(self.offset, Gp) else f"@{self.offset}"


@dataclass(frozen=True)
class FieldRef:
    """Register-indirect tuple field access: ``[rN+k]``.

    ``base`` holds a tuple address (usually from a RET of a DB result);
    ``field`` selects the field index inside the record header line.
    """
    base: Gp
    field: int = 0

    def __repr__(self) -> str:
        return f"[{self.base!r}+{self.field}]"


@dataclass(frozen=True)
class Label:
    """A branch target, resolved at program finalisation."""
    name: str

    def __repr__(self) -> str:
        return f"<{self.name}>"


Operand = Union[Gp, Cp, Imm, BlockRef, FieldRef, Label]


@dataclass
class Instruction:
    """One decoded instruction.

    Field usage by opcode (unused fields stay None):

    ========  =======================================================
    opcode    fields
    ========  =======================================================
    ADD..DIV  dst=Gp, a=Gp|Imm, b=Gp|Imm
    MOV       dst=Gp, a=Gp|Imm
    CMP       a=Gp|Imm, b=Gp|Imm
    LOAD      dst=Gp, addr=BlockRef|FieldRef
    STORE     a=Gp|Imm, addr=BlockRef|FieldRef
    WRFIELD   addr=FieldRef, a=Gp|Imm (new value)
    JMP/B*    target=Label (resolved to int index)
    RET       dst=Gp, cp=Cp
    INSERT    cp=Cp, table=int, key=BlockRef|Gp,
              b=BlockRef (optional payload cell when the key is computed)
    SEARCH    cp=Cp, table=int, key=BlockRef|Gp
    UPDATE    cp=Cp, table=int, key=BlockRef|Gp
    REMOVE    cp=Cp, table=int, key=BlockRef|Gp
    SCAN      cp=Cp, table=int, key=BlockRef|Gp, a=Imm|Gp (count),
              addr=BlockRef (output buffer)
    RANGE_SCAN cp=Cp, table=int, key=BlockRef|Gp (low key),
              b=BlockRef|Gp|Imm (high key, inclusive), a=Imm|Gp (count),
              addr=BlockRef (output buffer)
    ========  =======================================================
    """

    opcode: Opcode
    dst: Optional[Gp] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    addr: Optional[Union[BlockRef, FieldRef]] = None
    cp: Optional[Cp] = None
    table: Optional[int] = None
    key: Optional[Union[BlockRef, Gp]] = None
    target: Optional[Union[Label, int]] = None
    #: a DB instruction (dispatched to a coprocessor): fixed with the
    #: opcode at construction, since every analysis asks it per node
    is_db: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.is_db = self.opcode in DB_OPCODES

    def validate(self) -> None:
        op = self.opcode
        if op in DB_OPCODES:
            if self.cp is None:
                raise IsaError(f"{op.value} requires a CP register")
            if self.table is None:
                raise IsaError(f"{op.value} requires a table id")
            if self.key is None:
                raise IsaError(f"{op.value} requires a key operand")
            if op in (Opcode.SCAN, Opcode.RANGE_SCAN) \
                    and (self.a is None or self.addr is None):
                raise IsaError(
                    f"{op.value} requires a count and an output buffer")
            if op is Opcode.RANGE_SCAN and self.b is None:
                raise IsaError("RANGE_SCAN requires a high-key operand")
        elif op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV):
            if self.dst is None or self.a is None or self.b is None:
                raise IsaError(f"{op.value} requires dst, a, b")
        elif op is Opcode.MOV:
            if self.dst is None or self.a is None:
                raise IsaError("MOV requires dst and a")
        elif op is Opcode.CMP:
            if self.a is None or self.b is None:
                raise IsaError("CMP requires two operands")
        elif op is Opcode.LOAD:
            if self.dst is None or self.addr is None:
                raise IsaError("LOAD requires dst and addr")
        elif op is Opcode.STORE:
            if self.a is None or self.addr is None:
                raise IsaError("STORE requires a source and addr")
        elif op is Opcode.WRFIELD:
            if self.a is None or not isinstance(self.addr, FieldRef):
                raise IsaError("WRFIELD requires a FieldRef and a value")
        elif op in BRANCH_OPCODES:
            if self.target is None:
                raise IsaError(f"{op.value} requires a target")
        elif op in (Opcode.RET, Opcode.RETN):
            if self.dst is None or self.cp is None:
                raise IsaError(f"{op.value} requires dst GP and source CP")

    def __repr__(self) -> str:
        parts: List[str] = [self.opcode.value]
        for name in ("dst", "a", "b", "addr", "cp", "table", "key", "target"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value!r}")
        return " ".join(parts)


class Section(enum.Enum):
    """The three parts of a stored procedure (§4.3, Figure 3)."""
    __hash__ = object.__hash__      # (as Opcode's)
    LOGIC = "logic"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass
class Program:
    """A pre-compiled stored procedure: logic + commit/abort handlers."""

    name: str
    logic: List[Instruction] = field(default_factory=list)
    commit: List[Instruction] = field(default_factory=list)
    abort: List[Instruction] = field(default_factory=list)
    labels: Dict[Tuple[Section, str], int] = field(default_factory=dict)
    finalized: bool = False

    def section(self, which: Section) -> List[Instruction]:
        # the analyses call this once per visited instruction
        if which is Section.LOGIC:
            return self.logic
        return self.commit if which is Section.COMMIT else self.abort

    def finalize(self) -> "Program":
        """Validate instructions and resolve labels to indices."""
        for which in Section:
            insts = self.section(which)
            for inst in insts:
                inst.validate()
            for inst in insts:
                if isinstance(inst.target, Label):
                    key = (which, inst.target.name)
                    if key not in self.labels:
                        raise IsaError(
                            f"undefined label {inst.target.name!r} in "
                            f"{self.name}.{which.value}")
                    inst.target = self.labels[key]
        if not self.commit:
            self.commit = [Instruction(Opcode.COMMIT)]
        if not self.abort:
            self.abort = [Instruction(Opcode.ABORT)]
        self.finalized = True
        return self

    # -- register footprint (used for transaction grouping, §4.5) -------
    def _registers(self) -> Tuple[set, set]:
        # gp_needed/cp_needed are consulted on every admission; the
        # instruction walk is memoised once the program is finalized
        # (immutable from then on)
        cached = getattr(self, "_reg_cache", None)
        if cached is not None and self.finalized:
            return cached
        gps, cps = set(), set()
        for inst in (*self.logic, *self.commit, *self.abort):
            for x in (inst.dst, inst.a, inst.b, inst.addr, inst.cp, inst.key):
                if x is None:
                    continue
                if isinstance(x, Gp):
                    gps.add(x.n)
                elif isinstance(x, Cp):
                    cps.add(x.n)
                elif isinstance(x, BlockRef) and isinstance(x.offset, Gp):
                    gps.add(x.offset.n)
                elif isinstance(x, FieldRef):
                    gps.add(x.base.n)
        if self.finalized:
            self._reg_cache = (gps, cps)
        return gps, cps

    @property
    def gp_needed(self) -> int:
        gps, _ = self._registers()
        return (max(gps) + 1) if gps else 0

    @property
    def cp_needed(self) -> int:
        _, cps = self._registers()
        return (max(cps) + 1) if cps else 0

    @property
    def db_instruction_count(self) -> int:
        return sum(1 for i in self.logic if i.is_db)
