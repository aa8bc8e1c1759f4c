"""The softcore's instruction executor: generated code, one path.

A registered procedure's instruction sequence is frozen at
registration, so nothing about decoding it depends on run-time data.
The first time a softcore executes a procedure, each of its three
sections is translated once into Python:

* operand resolution is specialised (register indices, immediates,
  block offsets and field numbers become literals),
* cycle charges become precomputed nanosecond float literals,
* work that is the same for every instruction of a kind — the Dispatch
  step's bookkeeping, the UNDO-logged field write, the commit and abort
  protocols — stays in :class:`~repro.softcore.core.Softcore` methods
  the generated code calls.

Compile units
-------------
A section is not one function but a table of small generator
functions, the *units*: one per basic block of the section's CFG
(:func:`repro.analysis.cfg.build_cfg`), long blocks cut every
:data:`MAX_UNIT` instructions.  A unit runs its instructions and
returns the index of the unit to continue at (:data:`EXIT` to leave
the section); ``Softcore._exec`` is the whole dispatch loop::

    while unit >= 0:
        unit = yield from units[unit](softcore, ctx)

Small units keep ``builtins.compile`` cheap in peak memory (one 350-
instruction TPC-C section compiled as a single function costs a 10 MB
transient the allocator never returns), make a branch a ``return``
instead of an O(blocks) ``if/elif`` chain, and give dynamic scheduling
its re-entry points for free.  No source text is retained.

The cycle charges are the constants of :mod:`repro.softcore.timing`,
baked in as nanosecond literals at the machine's clock.  Three things
are fixed when a softcore is built and specialise the generated code
rather than being tested at run time; they make up
:attr:`CompiledTier._sig`:

* ``tracer.enabled`` — every instruction additionally emits its
  ``softcore`` trace line (``txn`` COMMIT/ABORT lines come from the
  protocols themselves), so a traced run executes the same units as an
  untraced one;
* dynamic scheduling — a ``RET`` in transaction logic opens a unit of
  its own; when its CP register is still pending it records that unit
  in ``ctx.resume_unit`` and leaves the section, and the scheduler
  re-enters there, so the ``RET`` is re-counted and re-charged exactly
  as if the program counter had been stepped back;
* ``line_buffer`` — whether record reads consult the tuple line buffer.

Equivalence contract
--------------------
What the generated code must reproduce is what the procedure *does in
simulated time*: every cycle charge, DRAM read, CP-register wait and
commit-protocol apply happens at the simulated instant it always did,
and every side effect executes at its instruction's place in program
order.  The observables in ``tests/goldens.py`` (static, dynamic
scheduling and trace digest, the latter two captured from the
instruction interpreter this module replaced) pin that.

How many engine work items it takes is not part of the contract.  An
earlier version of this docstring argued that it had to be — shared
DRAM channels serve same-instant requests in engine firing order, so
coalescing two waits would shift commit timestamps — and that was
measured to be false for the coalescings made here: Prepare and
Dispatch are one ``yield`` (the softcore only reads its own registers
and working set between them), and a ``RET`` whose CP register is
already valid reads it without waiting, with every pinned observable
unchanged (docs/performance.md).  A boundary at which the softcore
issues something other actors can see (a DRAM request, a dispatch, a
trace line's timestamp) must stay its own ``yield``.

Malformed programs that bypassed the static verifier fail where they
are reached, not at compile time: ``COMMIT`` in transaction logic, a
branch to a negative index and a DB instruction on an undefined table
raise; a ``COMMIT``/``ABORT`` that is not its handler's last
instruction runs its protocol and falls through.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Callable, Dict, List, Tuple

from ..analysis.cfg import EXIT, build_cfg
from ..errors import BionicError
from ..isa.instructions import (
    BRANCH_OPCODES, BlockRef, FieldRef, Gp, Imm, Instruction, Opcode, Section,
)
from ..mem.schema import SchemaError
from ..txn.cc import ResultCode
from .catalogue import ProcedureEntry
from .timing import (
    CPU_INST_CYCLES, DB_DISPATCH_CYCLES, DB_PREPARE_CYCLES, RET_CYCLES,
    WRFIELD_CYCLES,
)

__all__ = ["CompiledTier", "ExecutionError", "MAX_UNIT"]

#: longest run of instructions compiled into one unit
MAX_UNIT = 16


class ExecutionError(BionicError, RuntimeError):
    """Raised for malformed runtime situations (bad operand, etc.)."""


#: source digest -> code objects, one per unit.  The source embeds every
#: specialised quantity, so equal source means equal code (only the
#: ``K`` constant list lives in the exec namespace); building the same
#: workload in a fresh BionicDB then skips ``builtins.compile``.  Keyed
#: by digest so the cache pins no source text.
_CODE_CACHE: Dict[bytes, Tuple[Any, ...]] = {}
_CODE_CACHE_CAP = 256


def _store_field_fixup(field: int, value):
    """The STORE-to-field masked-line apply."""
    def apply(record):
        record.fields[field] = value
    return apply


#: names every unit's globals resolve
_GLOBALS = {
    "ExecutionError": ExecutionError,
    "OK": ResultCode.OK,
    "NF": ResultCode.NOT_FOUND,
    "_SF": _store_field_fixup,
    **{f"OP_{op.name}": op for op in Opcode},
}

#: unit-local aliases, bound at unit entry when the body names them
_PROLOGUE = (
    ("port", "sc.port"),
    ("gp", "sc.gp"),
    ("cp", "sc.cp"),
    ("gpb", "ctx.gp_base"),
    ("cpb", "ctx.cp_base"),
    ("ws", "ctx.working_set"),
    ("dbase", "ctx.block.data_base"),
    ("ic", "sc._insts"),
)

_BRANCH_TAKEN = {
    Opcode.BE: "ctx.zero",
    Opcode.BNE: "not ctx.zero",
    Opcode.BLT: "ctx.neg",
    Opcode.BLE: "ctx.neg or ctx.zero",
    Opcode.BGT: "not (ctx.neg or ctx.zero)",
    Opcode.BGE: "not ctx.neg",
}

_ALU = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}


class _SectionCompiler:
    """Generates one section's unit table: generator functions taking
    ``(softcore, ctx)`` and returning the next unit's index."""

    def __init__(self, softcore, entry: ProcedureEntry, section: Section,
                 trace: bool, dynamic: bool):
        self.sc = softcore
        self.entry = entry
        self.section = section
        self.logic = section is Section.LOGIC
        self.trace = trace
        #: a blocked RET hands the softcore back (transaction logic only)
        self.ret_yields = dynamic and self.logic
        ns = softcore.clock.ns_per_cycle
        self.c_cpu = CPU_INST_CYCLES * ns
        self.c_ret = RET_CYCLES * ns
        self.c_prep = DB_PREPARE_CYCLES * ns
        self.c_disp = DB_DISPATCH_CYCLES * ns
        self.c_wrfield = WRFIELD_CYCLES * ns
        self.line_buffer = softcore.config.line_buffer
        self.insts: List[Instruction] = entry.program.section(section)
        self.consts: List[Any] = []
        self.out: List[str] = []
        self.unit_of: Dict[int, int] = {}

    def body(self, line: str) -> None:
        self.out.append("    " + line)

    # -- operand expressions ---------------------------------------------
    def _const(self, value: Any) -> str:
        if value is None or type(value) in (int, bool, str):
            return repr(value)
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def _vexpr(self, operand) -> str:
        """An Imm/Gp value operand."""
        if isinstance(operand, Imm):
            return self._const(operand.value)
        if isinstance(operand, Gp):
            return f"gp[gpb+{operand.n}]"
        raise ExecutionError(f"bad value operand {operand!r}")

    def _offexpr(self, ref: BlockRef) -> str:
        """Block-relative offset of a transaction-block cell."""
        if isinstance(ref.offset, Gp):
            return f"int(gp[gpb+{ref.offset.n}]) + {ref.extra}"
        return repr(int(ref.offset) + ref.extra)

    def _emit_cell(self, ref: BlockRef, var: str) -> None:
        """``var`` = the block cell at offset ``_o`` as the Dispatch step
        sees it: the working-set copy, else DRAM (untimed)."""
        self.body(f"_o = {self._offexpr(ref)}")
        self.body(f"{var} = ws[_o] if 0 <= _o < len(ws) "
                  "else sc.dram.direct_read(dbase + _o)")

    def _goto(self, index: int) -> str:
        """The statement continuing execution at instruction ``index``."""
        if index < 0:
            return (f"raise ExecutionError('branch to instruction {index} "
                    "outside the section')")
        if index >= len(self.insts):   # one past the end, or beyond
            return f"return {EXIT}"
        return f"return {self.unit_of[index]}"

    # -- compilation entry point -----------------------------------------
    def compile(self) -> Tuple[Callable, ...]:
        insts = self.insts
        n = len(insts)
        leaders = {blk.start
                   for blk in build_cfg(self.entry.program,
                                        self.section).blocks}
        if self.ret_yields:
            leaders.update(i for i, inst in enumerate(insts)
                           if inst.opcode in (Opcode.RET, Opcode.RETN))
        bounds = sorted(leaders | {0, n})
        starts = [s for lo, hi in zip(bounds, bounds[1:])
                  for s in range(lo, hi, MAX_UNIT)] or [0]
        self.unit_of = {start: unit for unit, start in enumerate(starts)}

        sources = []
        for unit, start in enumerate(starts):
            end = starts[unit + 1] if unit + 1 < len(starts) else n
            self.out = []
            for index in range(start, end):
                self._emit_inst(insts[index], index, unit)
            self.body(self._goto(end))
            # a unit is a generator whatever it contains
            self.body("yield")
            text = "\n".join(self.out)
            prologue = [f"    {name} = {init}" for name, init in _PROLOGUE
                        if re.search(rf"\b{name}\b", text)]
            sources.append("\n".join(
                [f"def u{unit}(sc, ctx):"] + prologue + [text, ""]))

        digest = hashlib.sha256("\0".join(sources).encode()).digest()
        codes = _CODE_CACHE.get(digest)
        if codes is None:
            filename = (f"<repro.compiled {self.entry.program.name}"
                        f".{self.section.value}>")
            codes = tuple(compile(src, filename, "exec") for src in sources)
            if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
                # FIFO eviction: a full cache keeps admitting
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
            _CODE_CACHE[digest] = codes
        namespace = {"K": self.consts, **_GLOBALS}
        for code in codes:
            exec(code, namespace)
        return tuple(namespace[f"u{unit}"] for unit in range(len(starts)))

    # -- instruction emission ----------------------------------------------
    def _emit_inst(self, inst: Instruction, index: int, unit: int) -> None:
        op = inst.opcode
        self.body("ic.value += 1")
        if self.trace:
            line = f"{self.section.value}[{index}] {inst!r}"
            self.body(f"sc._trace_inst(ctx, {line!r})")
        if op in _ALU:
            self.body(f"yield {self.c_cpu!r}")
            self.body(f"gp[gpb+{inst.dst.n}] = "
                      f"{self._vexpr(inst.a)} {_ALU[op]} {self._vexpr(inst.b)}")
        elif op is Opcode.DIV:  # integer-only operands use floor division
            self.body(f"yield {self.c_cpu!r}")
            self.body(f"_a = {self._vexpr(inst.a)}")
            self.body(f"_b = {self._vexpr(inst.b)}")
            self.body(f"gp[gpb+{inst.dst.n}] = _a // _b "
                      "if isinstance(_a, int) and isinstance(_b, int) "
                      "else _a / _b")
        elif op is Opcode.MOV:
            self.body(f"yield {self.c_cpu!r}")
            self.body(f"gp[gpb+{inst.dst.n}] = {self._vexpr(inst.a)}")
        elif op is Opcode.CMP:
            self.body(f"yield {self.c_cpu!r}")
            self.body(f"_a = {self._vexpr(inst.a)}")
            self.body(f"_b = {self._vexpr(inst.b)}")
            self.body("ctx.zero = _a == _b")
            self.body("ctx.neg = _a < _b")
        elif op is Opcode.NOP:
            self.body(f"yield {self.c_cpu!r}")
        elif op is Opcode.LOAD:
            self._emit_load(inst)
        elif op is Opcode.STORE:
            self._emit_store(inst)
        elif op is Opcode.WRFIELD:
            self._emit_wrfield(inst)
        elif op in BRANCH_OPCODES:
            self._emit_branch(inst)
        elif op in (Opcode.RET, Opcode.RETN):
            self._emit_ret(inst, unit)
        elif op is Opcode.COMMIT:
            self._emit_commit()
        elif op is Opcode.ABORT:
            self._emit_abort()
        elif inst.is_db:
            self._emit_db(inst)
        else:  # pragma: no cover
            raise ExecutionError(f"unhandled opcode {op}")
        if self.logic and op not in BRANCH_OPCODES:
            self._emit_failed_check()

    def _emit_failed_check(self) -> None:
        """Transaction logic stops at the first instruction boundary
        after a failure — its own, or a DB result delivered during one
        of its waits; the abort handler runs in phase two."""
        self.body("if ctx.failed:")
        self.body(f"    return {EXIT}")

    def _emit_load(self, inst: Instruction) -> None:
        d = inst.dst.n
        self.body(f"yield {self.c_cpu!r}")
        if isinstance(inst.addr, FieldRef):
            self._emit_read_record(inst.addr)
            self.body("if _r is None:")
            self.body("    raise ExecutionError("
                      "'LOAD from empty cell %s' % (_a,))")
            self.body(f"gp[gpb+{d}] = _r.fields[{inst.addr.field}]")
        elif isinstance(inst.addr, BlockRef):
            self.body(f"_o = {self._offexpr(inst.addr)}")
            self.body("if 0 <= _o < len(ws):")
            self.body(f"    gp[gpb+{d}] = ws[_o]")  # working-set hit (BRAM)
            self.body("else:")
            self.body(f"    gp[gpb+{d}] = yield port.read(dbase + _o)")
        else:
            raise ExecutionError(f"bad LOAD address {inst.addr!r}")

    def _emit_read_record(self, ref: FieldRef) -> None:
        """``_r`` = the record at ``_a``, the address in ``ref``'s base
        register, via the context's single-entry line buffer: the 64-byte
        line holds every header field, so consecutive field accesses to
        the same record cost one read."""
        self.body(f"_a = gp[gpb+{ref.base.n}]")
        pre = ""
        if self.line_buffer:
            self.body("if ctx.line_buf is not None and ctx.line_buf_addr == _a:")
            self.body("    _r = ctx.line_buf")
            self.body("else:")
            pre = "    "
        self.body(pre + "_r = yield port.read(_a)")
        self.body(pre + "ctx.line_buf_addr = _a")
        self.body(pre + "ctx.line_buf = _r")

    def _emit_store(self, inst: Instruction) -> None:
        self.body(f"yield {self.c_cpu!r}")
        if isinstance(inst.addr, FieldRef):
            self.body(f"port.post_apply(gp[gpb+{inst.addr.base.n}], "
                      f"_SF({inst.addr.field}, {self._vexpr(inst.a)}))")
        elif isinstance(inst.addr, BlockRef):
            self.body(f"_o = {self._offexpr(inst.addr)}")
            self.body(f"_v = {self._vexpr(inst.a)}")
            self.body("if 0 <= _o < len(ws):")
            self.body("    ws[_o] = _v")
            self.body("port.post_write(dbase + _o, _v)")
        else:
            raise ExecutionError(f"bad STORE address {inst.addr!r}")

    def _emit_wrfield(self, inst: Instruction) -> None:
        self.body(f"yield {self.c_cpu!r}")
        self.body(f"yield {self.c_wrfield!r}")
        self.body(f"_v = {self._vexpr(inst.a)}")
        self._emit_read_record(inst.addr)
        self.body(f"sc._backup_and_write(ctx, _a, _r, {inst.addr.field}, _v)")

    def _emit_branch(self, inst: Instruction) -> None:
        self.body(f"yield {self.c_cpu!r}")
        if self.logic:
            self._emit_failed_check()
        if inst.opcode is Opcode.JMP:
            self.body(self._goto(inst.target))
        else:  # not taken: fall through to the unit's closing goto
            self.body(f"if {_BRANCH_TAKEN[inst.opcode]}:")
            self.body("    " + self._goto(inst.target))

    def _emit_ret(self, inst: Instruction, unit: int) -> None:
        d = inst.dst.n
        self.body(f"yield {self.c_ret!r}")
        self.body(f"_s = cp[cpb + {inst.cp.n}]")
        if self.ret_yields:
            # dynamic scheduling: hand the softcore to another
            # transaction instead of stalling; re-entry starts this unit
            # over, so the RET executes (and is charged) again
            self.body("if not _s.valid:")
            self.body(f"    ctx.blocked_on = cpb + {inst.cp.n}")
            self.body(f"    ctx.resume_unit = {unit}")
            self.body(f"    return {EXIT}")
            self.body("_op, _res = _s.op, _s.result")
        else:
            # a result that is already there is read, not waited for
            self.body("if _s.valid:")
            self.body("    _op, _res = _s.op, _s.result")
            self.body("else:")
            self.body("    _op, _res = yield sc._wait_cp("
                      f"cpb + {inst.cp.n})")
        if inst.opcode is Opcode.RETN:
            # null-tolerant collect: absence is data, not an error
            self.body("if _res.code is NF:")
            self.body(f"    gp[gpb+{d}] = 0")
            self.body("elif _res.code is not OK:")
        else:
            self.body("if _res.code is not OK:")
        self.body("    ctx.fail(_op.value + ': ' + _res.code.name)")
        if not self.logic:
            self.body(f"    return {EXIT}")  # on to the abort handler
        self.body("else:")
        self.body(f"    gp[gpb+{d}] = (_res.value "
                  "if (_op is OP_SCAN or _op is OP_RANGE_SCAN) "
                  "else _res.tuple_addr)")

    def _emit_db(self, inst: Instruction) -> None:
        op = inst.opcode
        # Prepare (collect metadata: index type, timestamp, destination)
        # and Dispatch (asynchronous hand-off to the coprocessor or the
        # channels) are charged as one wait: between them the softcore
        # only reads its own registers and working set
        self.body(f"yield {self.c_prep + self.c_disp!r}")
        try:
            self.sc.catalogue.schemas.table(inst.table)
        except SchemaError:
            # submission checks table references; a block that bypassed
            # it fails when the instruction is reached
            self.body(f"sc.catalogue.schemas.table({inst.table})")
        key = inst.key
        if isinstance(key, Gp):
            self.body(f"_rk = gp[gpb+{key.n}]")
            self.body("_pl = None")
            if op is Opcode.INSERT:
                self.body("if isinstance(_rk, tuple) and len(_rk) == 2:")
                self.body("    _rk, _pl = _rk")
            request = "None, _rk, _pl, _rk"
        elif isinstance(key, BlockRef):
            # the coprocessor's KeyFetch stage will read the cell from
            # DRAM; the softcore routes using its working-set copy
            self._emit_cell(key, "_rk")
            self.body("_ka = dbase + _o")
            if op is Opcode.INSERT:
                self.body("if isinstance(_rk, tuple) and len(_rk) == 2:")
                self.body("    _rk = _rk[0]")
            request = "_ka, None, None, _rk"
        else:
            raise ExecutionError(f"bad key operand {key!r}")
        self.body(f"_dst = sc.route({inst.table}, _rk)")
        if op is Opcode.INSERT and isinstance(inst.b, BlockRef):
            request += f", payload_addr=dbase + {self._offexpr(inst.b)}"
        if op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            request += (f", scan_count=int({self._vexpr(inst.a)})"
                        f", scan_out_addr=dbase + {self._offexpr(inst.addr)}"
                        ", scan_limit=ctx.block.layout.n_scan")
        if op is Opcode.RANGE_SCAN:
            if isinstance(inst.b, BlockRef):
                self._emit_cell(inst.b, "_hi")
                request += ", scan_hi=_hi"
            else:
                request += f", scan_hi={self._vexpr(inst.b)}"
        self.body(f"sc._dispatch_db(ctx, OP_{op.name}, {inst.table}, "
                  f"cpb + {inst.cp.n}, _dst, {request})")

    def _emit_commit(self) -> None:
        if self.logic:
            self.body("raise ExecutionError('COMMIT outside a commit handler')")
            return
        self.body("if ctx.failed:")
        self.body(f"    return {EXIT}")  # fall through to the abort handler
        self.body("yield from sc._commit_protocol(ctx)")

    def _emit_abort(self) -> None:
        if self.logic:
            # voluntary abort: cycle-free, LOGIC exits via the failed flag
            self.body("ctx.fail('voluntary abort')")
        else:
            self.body("yield from sc._abort_protocol(ctx)")


class CompiledTier:
    """Generated-code cache, shared through the catalogue.

    Units take ``(softcore, ctx)`` and bind no per-core state, and every
    worker of a machine shares one catalogue, one softcore config and
    one tracer — so the cache hangs off the catalogue and all softcores
    reuse one compilation.  The catalogue allows re-registration, so
    entries are validated by identity (replacing a procedure invalidates
    its compiled form); the signature guards the off-design case of
    softcores with different configs sharing a catalogue.  Compilation
    is lazy — at a procedure's first execution — so registering a large
    catalogue costs no set-up time for procedures never run."""

    def __init__(self, softcore):
        self.softcore = softcore
        cfg = softcore.config
        self._trace = bool(softcore.tracer.enabled)
        self._dynamic = cfg.dynamic_scheduling and cfg.interleaving
        self._sig = (cfg.line_buffer, self._trace, self._dynamic)
        self._cache: Dict[int, tuple] = softcore.catalogue.compiled

    def units(self, entry: ProcedureEntry,
              section: Section) -> Tuple[Callable, ...]:
        hit = self._cache.get(entry.proc_id)
        if hit is None or hit[0] is not entry or hit[1] != self._sig:
            hit = (entry, self._sig, {
                s: _SectionCompiler(self.softcore, entry, s,
                                    self._trace, self._dynamic).compile()
                for s in Section})
            self._cache[entry.proc_id] = hit
        return hit[2][section]
