"""Text assembler for the BionicDB ISA.

The assembly format mirrors Figure 3 of the paper: a procedure has a
transaction-logic section plus commit/abort handlers.

Syntax::

    .proc ycsb_read
    .logic
        SEARCH c0, t0, @0      ; probe table 0 with the key at offset 0
        RET r1, c0             ; collect the result into r1
        STORE r1, @8           ; write it to the output buffer
    loop:
        ADD r2, r2, #1
        CMP r2, #5
        BLT loop
    .commit
        COMMIT
    .abort
        ABORT

Operands: ``rN`` GP register, ``cN`` CP register, ``#k`` immediate,
``@k`` / ``@rN`` / ``@rN+k`` transaction-block offsets, ``[rN+k]`` tuple
field refs, ``tN`` table ids, bare identifiers branch labels.
Comments run from ``;`` to end of line.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from .instructions import (
    BlockRef, Cp, FieldRef, Gp, Imm, Instruction, IsaError, Label, Opcode,
    Program, Section,
)

__all__ = ["assemble", "assemble_one", "AssemblyError"]


class AssemblyError(IsaError):
    """Raised with a line number when assembly fails."""

    def __init__(self, message: str, line_no: int, line: str = ""):
        super().__init__(f"line {line_no}: {message}" + (f" | {line.strip()}" if line else ""))
        self.line_no = line_no


_GP_RE = re.compile(r"^r(\d+)$")
_CP_RE = re.compile(r"^c(\d+)$")
_IMM_RE = re.compile(r"^#(-?\d+)$")
_INT_RE = re.compile(r"^-?\d+$")
_TABLE_RE = re.compile(r"^t(\d+)$")
_AT_RE = re.compile(r"^@(?:r(\d+)(?:\+(\d+))?|(\d+))$")
_FIELD_RE = re.compile(r"^\[r(\d+)(?:\+(\d+))?\]$")
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_][\w]*):$")
_NAME_RE = re.compile(r"^[A-Za-z_][\w]*$")


def _parse_operand(tok: str, line_no: int):
    try:
        return _parse_operand_inner(tok, line_no)
    except AssemblyError:
        raise
    except IsaError as exc:
        # e.g. Gp/Cp range errors raised by the operand constructors:
        # re-anchor them to the offending source line
        raise AssemblyError(str(exc), line_no) from None


def _parse_operand_inner(tok: str, line_no: int):
    if m := _GP_RE.match(tok):
        return Gp(int(m.group(1)))
    if m := _CP_RE.match(tok):
        return Cp(int(m.group(1)))
    if m := _IMM_RE.match(tok):
        return Imm(int(m.group(1)))
    if _INT_RE.match(tok):
        return Imm(int(tok))
    if m := _TABLE_RE.match(tok):
        return ("table", int(m.group(1)))
    if m := _AT_RE.match(tok):
        if m.group(3) is not None:
            return BlockRef(int(m.group(3)))
        return BlockRef(Gp(int(m.group(1))), int(m.group(2) or 0))
    if m := _FIELD_RE.match(tok):
        return FieldRef(Gp(int(m.group(1))), int(m.group(2) or 0))
    if _NAME_RE.match(tok):
        return Label(tok)
    raise AssemblyError(f"cannot parse operand {tok!r}", line_no)


def _expect(kind, operand, what: str, line_no: int, tables=None):
    if kind == "table":
        if isinstance(operand, tuple) and operand[0] == "table":
            return operand[1]
        if isinstance(operand, Label):
            if tables and operand.name in tables:
                return tables[operand.name]
            raise AssemblyError(
                f"unknown table name {operand.name!r} for {what} "
                f"(pass tables={{name: id}})", line_no)
        raise AssemblyError(f"expected table (tN or name) for {what}, got {operand!r}", line_no)
    if not isinstance(operand, kind):
        names = kind if isinstance(kind, tuple) else (kind,)
        wanted = "/".join(k.__name__ for k in names)
        raise AssemblyError(f"expected {wanted} for {what}, got {operand!r}", line_no)
    return operand


def _build_instruction(op: Opcode, operands: list, line_no: int,
                       tables=None) -> Instruction:
    def need(n: int) -> None:
        if len(operands) != n:
            raise AssemblyError(
                f"{op.value} takes {n} operand(s), got {len(operands)}", line_no)

    if op in (Opcode.INSERT, Opcode.SEARCH, Opcode.UPDATE, Opcode.REMOVE):
        if op is Opcode.INSERT and len(operands) == 4:
            # INSERT with a computed key and a separate payload cell
            cp = _expect(Cp, operands[0], "destination CP", line_no)
            table = _expect("table", operands[1], "table", line_no, tables)
            key = _expect((BlockRef, Gp), operands[2], "key", line_no)
            payload = _expect(BlockRef, operands[3], "payload", line_no)
            return Instruction(op, cp=cp, table=table, key=key, b=payload)
        need(3)
        cp = _expect(Cp, operands[0], "destination CP", line_no)
        table = _expect("table", operands[1], "table", line_no, tables)
        key = _expect((BlockRef, Gp), operands[2], "key", line_no)
        return Instruction(op, cp=cp, table=table, key=key)
    if op is Opcode.SCAN:
        need(5)
        cp = _expect(Cp, operands[0], "destination CP", line_no)
        table = _expect("table", operands[1], "table", line_no, tables)
        key = _expect((BlockRef, Gp), operands[2], "start key", line_no)
        count = _expect((Imm, Gp), operands[3], "count", line_no)
        out = _expect(BlockRef, operands[4], "output buffer", line_no)
        return Instruction(op, cp=cp, table=table, key=key, a=count, addr=out)
    if op is Opcode.RANGE_SCAN:
        need(6)
        cp = _expect(Cp, operands[0], "destination CP", line_no)
        table = _expect("table", operands[1], "table", line_no, tables)
        lo = _expect((BlockRef, Gp), operands[2], "low key", line_no)
        hi = _expect((BlockRef, Gp, Imm), operands[3], "high key", line_no)
        count = _expect((Imm, Gp), operands[4], "count", line_no)
        out = _expect(BlockRef, operands[5], "output buffer", line_no)
        return Instruction(op, cp=cp, table=table, key=lo, b=hi, a=count,
                           addr=out)
    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV):
        need(3)
        return Instruction(op, dst=_expect(Gp, operands[0], "dst", line_no),
                           a=_expect((Gp, Imm), operands[1], "a", line_no),
                           b=_expect((Gp, Imm), operands[2], "b", line_no))
    if op is Opcode.MOV:
        need(2)
        return Instruction(op, dst=_expect(Gp, operands[0], "dst", line_no),
                           a=_expect((Gp, Imm), operands[1], "src", line_no))
    if op is Opcode.CMP:
        need(2)
        return Instruction(op, a=_expect((Gp, Imm), operands[0], "a", line_no),
                           b=_expect((Gp, Imm), operands[1], "b", line_no))
    if op is Opcode.LOAD:
        need(2)
        return Instruction(op, dst=_expect(Gp, operands[0], "dst", line_no),
                           addr=_expect((BlockRef, FieldRef), operands[1], "addr", line_no))
    if op is Opcode.STORE:
        need(2)
        return Instruction(op, a=_expect((Gp, Imm), operands[0], "src", line_no),
                           addr=_expect((BlockRef, FieldRef), operands[1], "addr", line_no))
    if op is Opcode.WRFIELD:
        need(2)
        return Instruction(op, addr=_expect(FieldRef, operands[0], "field", line_no),
                           a=_expect((Gp, Imm), operands[1], "value", line_no))
    if op in (Opcode.JMP, Opcode.BE, Opcode.BNE, Opcode.BLE, Opcode.BLT,
              Opcode.BGT, Opcode.BGE):
        need(1)
        return Instruction(op, target=_expect(Label, operands[0], "target", line_no))
    if op in (Opcode.RET, Opcode.RETN):
        need(2)
        return Instruction(op, dst=_expect(Gp, operands[0], "dst", line_no),
                           cp=_expect(Cp, operands[1], "cp", line_no))
    if op in (Opcode.COMMIT, Opcode.ABORT, Opcode.NOP):
        need(0)
        return Instruction(op)
    raise AssemblyError(f"unhandled opcode {op.value}", line_no)  # pragma: no cover


def assemble(text: str, tables: Optional[Dict[str, int]] = None
             ) -> Dict[str, Program]:
    """Assemble a file that may contain several ``.proc`` blocks.

    ``tables`` maps table *names* to ids so procedures can reference
    ``customer`` instead of ``t3``.
    """
    programs: Dict[str, Program] = {}
    current: Optional[Program] = None
    section = Section.LOGIC

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".proc"):
            parts = line.split()
            if len(parts) != 2:
                raise AssemblyError(".proc requires a name", line_no, raw)
            if not _NAME_RE.match(parts[1]):
                raise AssemblyError(
                    f"invalid procedure name {parts[1]!r}", line_no, raw)
            if parts[1] in programs or (current is not None
                                        and current.name == parts[1]):
                raise AssemblyError(
                    f"duplicate procedure name {parts[1]!r}", line_no, raw)
            if current is not None:
                programs[current.name] = current.finalize()
            current = Program(parts[1])
            section = Section.LOGIC
            continue
        if current is None:
            raise AssemblyError("instruction before .proc", line_no, raw)
        if line.startswith("."):
            try:
                section = Section(line[1:].strip())
            except ValueError:
                raise AssemblyError(f"unknown section {line!r}", line_no, raw) from None
            continue
        if m := _LABEL_DEF_RE.match(line):
            key = (section, m.group(1))
            if key in current.labels:
                raise AssemblyError(f"duplicate label {m.group(1)!r}", line_no, raw)
            current.labels[key] = len(current.section(section))
            continue
        mnemonic, _, rest = line.partition(" ")
        try:
            op = Opcode(mnemonic.upper())
        except ValueError:
            raise AssemblyError(f"unknown opcode {mnemonic!r}", line_no, raw) from None
        operands = [
            _parse_operand(tok.strip(), line_no)
            for tok in rest.split(",")
            if tok.strip()
        ]
        try:
            current.section(section).append(
                _build_instruction(op, operands, line_no, tables))
        except IsaError as exc:
            if isinstance(exc, AssemblyError):
                raise
            raise AssemblyError(str(exc), line_no, raw) from None

    if current is not None:
        programs[current.name] = current.finalize()
    if not programs:
        raise IsaError("no .proc blocks found")
    return programs


def assemble_one(text: str, tables: Optional[Dict[str, int]] = None
                 ) -> Program:
    """Assemble text containing exactly one procedure."""
    programs = assemble(text, tables)
    if len(programs) != 1:
        raise IsaError(f"expected one procedure, found {len(programs)}")
    return next(iter(programs.values()))
