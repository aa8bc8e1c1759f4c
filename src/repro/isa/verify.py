"""Static verification of ISA programs — a client of ``repro.analysis``.

The softcore executes whatever the catalogue hands it; a malformed
stored procedure does not fault cleanly — it *hangs*.  A ``RET`` on a
CP register no DB instruction ever writes parks the softcore process on
its valid bit forever; a commit handler with no ``COMMIT`` releases
the transaction without ever setting its status; a branch target past
the end of a section silently falls through.  On real hardware these
are tape-out reviews; here they are a static pass run at procedure
registration (§4.3 — registration is the last host-side moment before
the program is on-chip).

Historically this module was a peephole scanner; it is now a thin
client of the CFG/dataflow framework in :mod:`repro.analysis` — CFG
construction drives the structural checks, and the commit-protocol,
liveness and partition-footprint analyses contribute checks the
peephole pass could not express.  The API is unchanged:
:func:`verify_program` returns a :class:`VerificationReport` of
:class:`Finding`\\ s, and fatal findings raise
:class:`~repro.errors.VerificationError` via
:meth:`VerificationReport.raise_if_errors` — which is what
``Catalogue.register`` does by default.

Checks
------

errors
    * ``register-pressure`` — the program's GP/CP footprint exceeds the
      softcore register file, so admission could never allocate it.
    * ``branch-out-of-range`` — a resolved branch target outside
      ``[0, len(section)]`` (``len`` itself is a legal fall-through).
    * ``commit-in-logic`` — ``COMMIT`` inside transaction logic (the
      softcore traps this at run time; catch it before).
    * ``ret-unwritten-cp`` — ``RET``/``RETN`` collects a CP register
      that no DB instruction in the program dispatches: a guaranteed
      deadlock.
    * ``ret-unready-cp`` — the CP *is* dispatched somewhere, but not on
      every path reaching the RET (conditional dispatch, or a second
      RET after the result was already collected): the softcore can
      still park forever.  Proven by the must-pending dataflow in
      :mod:`repro.analysis.protocol`; strictly stronger than
      ``ret-unwritten-cp``.
    * ``missing-commit`` / ``missing-abort`` — a non-empty commit
      (abort) handler that can never reach ``COMMIT`` (``ABORT``), so
      the block's status is never finalised.  Proven by CFG
      reachability.
    * ``unknown-table`` — only when a schema catalog is supplied: a DB
      instruction references a table id the catalog does not know.
    * ``unprotected-write`` — a ``WRFIELD`` whose base register can
      originate from a ``SEARCH``/``SCAN`` result: an in-place write to
      a tuple the transaction holds no write intent on, bypassing the
      §4.7 dirty-mark and UNDO log.

warnings
    * ``db-outside-logic`` — a DB instruction in a commit/abort
      handler; dispatched writes there bypass the §4.7 commit protocol.
    * ``scan-count`` — a SCAN with a non-positive immediate count.
    * ``dead-gp-write`` — a pure register write (``ADD``/``SUB``/
      ``MUL``/``DIV``/``MOV``) never read before redefinition or exit.
    * ``uncollected-cp`` — a dispatch whose CP result no path ever
      collects: the slot is held for the whole transaction for nothing.
    * ``redispatch-pending-cp`` — a dispatch may overwrite a CP whose
      previous result is still pending.
    * ``untracked-write`` — a ``WRFIELD`` base that is not traceable to
      any RET (an arithmetic or loaded value used as a tuple address).
    * ``partition-pinned-key`` — a partitioned-table dispatch whose key
      is a compile-time constant: it routes to one fixed partition
      regardless of the block's home worker (§4.4), so the procedure is
      mis-homed everywhere else.
    * ``partition-untracked-key`` — a key with no input-cell anchor at
      all; the partitions it can reach cannot be bounded statically.
    * ``range-hi-untracked`` — a ``RANGE_SCAN`` upper bound with no
      constant and no input-cell anchor: the scanned key interval (and
      so the static conflict footprint) cannot be bounded.
    * ``range-partition-blind`` — a ``RANGE_SCAN`` on a partitioned
      table whose schema does not declare ``range_partitioned``: the
      scan walks only the partition owning its *low* key, so matching
      keys hashed to other partitions are silently missed.

Instruction-anchored findings carry the offending instruction's
disassembled text in :attr:`Finding.detail`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..errors import VerificationError
from .disassembler import disassemble_instruction
from .instructions import Imm, Instruction, Opcode, Program, Section

if TYPE_CHECKING:
    from ..analysis.liveness import LivenessResult
    from ..analysis.protocol import CommitProtocolReport

__all__ = ["Finding", "VerificationReport", "verify_program"]


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic, anchored to a section + instruction."""

    severity: str          # "error" | "warning"
    code: str              # stable machine-readable check name
    message: str
    section: Optional[Section] = None
    index: Optional[int] = None
    #: disassembled text of the offending instruction, when anchored
    detail: Optional[str] = None

    def __str__(self) -> str:
        where = ""
        if self.section is not None:
            where = f" at {self.section.value}[{self.index}]"
        text = f"{self.severity}: {self.code}{where}: {self.message}"
        if self.detail:
            text += f" | {self.detail}"
        return text


@dataclass
class VerificationReport:
    """The outcome of :func:`verify_program`, with the dataflow results
    its proofs came from: the commit-protocol report (``protocol``) and
    the GP and CP liveness (``gp``, ``cp``), for a caller that reports
    them too."""

    program_name: str
    findings: List[Finding] = field(default_factory=list)
    protocol: Optional[CommitProtocolReport] = field(
        default=None, repr=False, compare=False)
    gp: Optional[LivenessResult] = field(default=None, repr=False,
                                         compare=False)
    cp: Optional[LivenessResult] = field(default=None, repr=False,
                                         compare=False)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_errors(self) -> "VerificationReport":
        if self.errors:
            listing = "; ".join(str(f) for f in self.errors)
            raise VerificationError(
                f"program {self.program_name!r} failed verification: {listing}",
                program=self.program_name, n_errors=len(self.errors))
        return self


def _anchored(severity: str, code: str, message: str, section: Section,
              index: int, insts: List[Instruction]) -> Finding:
    return Finding(severity, code, message, section, index,
                   detail=disassemble_instruction(insts[index]))


def verify_program(program: Program, n_registers: Optional[int] = None,
                   schemas=None, n_workers: Optional[int] = None,
                   graph=None, footprint=None) -> VerificationReport:
    """Statically verify ``program``; finalises it first if needed.

    ``n_registers`` is the register budget, by default the softcore's
    (:data:`repro.softcore.timing.N_REGISTERS`).  ``schemas`` is an
    optional :class:`repro.mem.schema.Catalog`; when given,
    DB-instruction table references are checked against it and the
    partition-footprint warnings are enabled (``n_workers``
    additionally lets pinned keys name their concrete partition).
    ``graph`` is the program's flow graph
    (:func:`repro.analysis.dataflow.program_flow`) and ``footprint``
    its :class:`~repro.analysis.footprint.FootprintSummary`, when the
    caller already has them.
    """
    # Imported lazily: repro.analysis and repro.softcore are clients of
    # this module's Finding API, and importing either at module scope
    # would make the package import order load-bearing.
    from ..analysis.dataflow import program_flow
    from ..analysis.liveness import (
        dead_gp_writes, live_cp, live_gp, uncollected_cps,
    )
    from ..analysis.protocol import check_commit_protocol
    from ..analysis.footprint import analyze_footprint, table_schema
    if n_registers is None:
        from ..softcore.timing import N_REGISTERS as n_registers

    if not program.finalized:
        program.finalize()
    report = VerificationReport(program_name=program.name)
    add = report.findings.append

    # ---- register footprint (admission would reject it anyway) --------
    if program.gp_needed > n_registers:
        add(Finding("error", "register-pressure",
                    f"needs {program.gp_needed} GP registers, softcore "
                    f"has {n_registers}"))
    if program.cp_needed > n_registers:
        add(Finding("error", "register-pressure",
                    f"needs {program.cp_needed} CP registers, softcore "
                    f"has {n_registers}"))

    # ---- CFG construction: structural checks --------------------------
    graph = graph or program_flow(program)
    cfgs = graph.cfgs
    for section, cfg in cfgs.items():
        for index, target in cfg.bad_targets:
            add(_anchored("error", "branch-out-of-range",
                          f"target {target} outside section of "
                          f"{len(cfg.insts)} instructions",
                          section, index, cfg.insts))

    if program.commit and not cfgs[Section.COMMIT].reaches_opcode(Opcode.COMMIT):
        add(Finding("error", "missing-commit",
                    "commit handler can never reach COMMIT; the block's "
                    "status would never be finalised", Section.COMMIT, 0))
    if program.abort and not cfgs[Section.ABORT].reaches_opcode(Opcode.ABORT):
        add(Finding("error", "missing-abort",
                    "abort handler can never reach ABORT; rollback would "
                    "never run", Section.ABORT, 0))

    # ---- per-instruction scans over the CFG ---------------------------
    known_tables = (None if schemas is None
                    else {s.table_id for s in schemas})
    for section, cfg in cfgs.items():
        insts = cfg.insts
        for i, inst in enumerate(insts):
            op = inst.opcode
            if op is Opcode.COMMIT and section is Section.LOGIC:
                add(_anchored("error", "commit-in-logic",
                              "COMMIT is only legal in a commit handler "
                              "(the logic section exits by falling "
                              "through)", section, i, insts))
            if inst.is_db and section is not Section.LOGIC:
                add(_anchored("warning", "db-outside-logic",
                              f"{op.value} dispatched from the "
                              f"{section.value} handler bypasses the "
                              f"commit protocol", section, i, insts))
            if (op in (Opcode.SCAN, Opcode.RANGE_SCAN)
                    and isinstance(inst.a, Imm)
                    and inst.a.value is not None
                    and isinstance(inst.a.value, int) and inst.a.value < 1):
                add(_anchored("warning", "scan-count",
                              f"{op.value} count {inst.a.value} never "
                              f"yields rows", section, i, insts))
            if (inst.is_db and known_tables is not None
                    and inst.table not in known_tables):
                add(_anchored("error", "unknown-table",
                              f"{op.value} references table {inst.table} "
                              f"which the catalog does not define",
                              section, i, insts))

    # ---- dataflow proofs ----------------------------------------------
    protocol = report.protocol = check_commit_protocol(program, graph)
    for node in protocol.unwritten_rets:
        insts = program.section(node.section)
        cp = insts[node.index].cp
        add(_anchored("error", "ret-unwritten-cp",
                      f"collects c{cp.n} but no DB instruction writes it "
                      f"— the softcore would wait forever",
                      node.section, node.index, insts))
    for node, _pending in protocol.unready_rets:
        insts = program.section(node.section)
        cp = insts[node.index].cp
        add(_anchored("error", "ret-unready-cp",
                      f"collects c{cp.n}, but on some path to this RET "
                      f"no un-collected dispatch has written it — the "
                      f"softcore can park in Softcore._wait_cp forever",
                      node.section, node.index, insts))
    for node in protocol.redispatches:
        insts = program.section(node.section)
        cp = insts[node.index].cp
        add(_anchored("warning", "redispatch-pending-cp",
                      f"dispatch may overwrite c{cp.n} while its previous "
                      f"result is still pending",
                      node.section, node.index, insts))
    for prov in protocol.unprotected_writes:
        node = prov.node
        insts = program.section(node.section)
        bad = sorted(o.value for o in prov.intent_opcodes
                     if o in (Opcode.SEARCH, Opcode.SCAN, Opcode.RANGE_SCAN))
        add(_anchored("error", "unprotected-write",
                      f"WRFIELD base can come from a {'/'.join(bad)} "
                      f"result: in-place write without a write intent "
                      f"bypasses the dirty mark and the UNDO log",
                      node.section, node.index, insts))
    for prov in protocol.untracked_writes:
        node = prov.node
        insts = program.section(node.section)
        add(_anchored("warning", "untracked-write",
                      "WRFIELD base register is not traceable to any RET "
                      "— the tuple address provenance is unknown",
                      node.section, node.index, insts))

    report.gp = live_gp(program, graph)
    report.cp = live_cp(program, graph)
    for node in dead_gp_writes(program, graph, report.gp):
        insts = program.section(node.section)
        dst = insts[node.index].dst
        add(_anchored("warning", "dead-gp-write",
                      f"r{dst.n} is written but never read before "
                      f"redefinition or exit",
                      node.section, node.index, insts))
    for node in uncollected_cps(program, graph, report.cp):
        insts = program.section(node.section)
        cp = insts[node.index].cp
        add(_anchored("warning", "uncollected-cp",
                      f"result in c{cp.n} is never collected by any RET "
                      f"— the CP slot is held for nothing",
                      node.section, node.index, insts))

    # ---- partition footprint (needs a schema catalog) ------------------
    if schemas is not None:
        if footprint is None:
            footprint = analyze_footprint(program, graph=graph)
        for a in footprint.with_layout(schemas, n_workers).accesses:
            insts = program.section(a.node.section)
            if a.kind == "pinned":
                where = (f"partition {a.partition}"
                         if a.partition is not None
                         else "one fixed partition")
                add(_anchored("warning", "partition-pinned-key",
                              f"key is the compile-time constant "
                              f"{a.key.const}: always routes to {where} "
                              f"regardless of the block's home worker",
                              a.node.section, a.node.index, insts))
            elif a.kind == "opaque":
                add(_anchored("warning", "partition-untracked-key",
                              f"{a.opcode.value} key has no input-cell "
                              f"anchor; reachable partitions cannot be "
                              f"bounded statically",
                              a.node.section, a.node.index, insts))
            if a.opcode is not Opcode.RANGE_SCAN:
                continue
            if a.hi is not None and a.hi.kind == "opaque":
                add(_anchored("warning", "range-hi-untracked",
                              "RANGE_SCAN upper bound has no constant or "
                              "input-cell anchor; the scanned key "
                              "interval cannot be bounded statically",
                              a.node.section, a.node.index, insts))
            schema = table_schema(schemas, a.table)
            if schema is None:
                continue            # unknown-table already reported
            if not schema.replicated and not schema.range_partitioned:
                add(_anchored("warning", "range-partition-blind",
                              f"RANGE_SCAN walks only the partition "
                              f"owning its low key, but table "
                              f"{schema.name!r} is not range-partitioned "
                              f"— matching keys homed elsewhere are "
                              f"silently missed",
                              a.node.section, a.node.index, insts))

    return report
