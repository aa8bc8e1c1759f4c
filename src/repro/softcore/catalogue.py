"""The catalogue (§4.2/§4.3): stored procedures + metadata on BRAM.

A client registers a pre-compiled stored procedure along with the
metadata needed to run it (register footprint, table schemas to work
with).  Registering or replacing a procedure needs no FPGA
reconfiguration — BionicDB accommodates workload changes quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from ..analysis.dataflow import program_flow
from ..analysis.footprint import FootprintSummary, analyze_footprint
from ..errors import ProcedureNotFoundError
from ..isa.instructions import BlockRef, Gp, Opcode, Program, Section
from ..isa.verify import verify_program
from ..mem.schema import Catalog

__all__ = ["KeySource", "ProcedureEntry", "Catalogue"]


class KeySource(NamedTuple):
    """Where one DB instruction's key is before the logic runs."""
    table: int
    #: input cell holding the key, or None for a compile-time constant
    cell: Optional[int]
    const: Optional[int]
    #: an INSERT's cell is ``(key, payload)``: the key is its first half
    paired: bool


@dataclass(frozen=True)
class ProcedureEntry:
    proc_id: int
    program: Program
    #: the procedure's layout-free partition/key footprint, computed
    #: once at registration: the key sources below and the routers
    #: read it
    footprint: FootprintSummary
    gp_needed: int
    cp_needed: int
    #: CP registers collected with RETN: a NOT_FOUND result there is
    #: tolerated rather than trapping to the abort handler
    tolerant_cps: frozenset = frozenset()
    #: table ids the program's DB instructions reference; checked
    #: against the schema catalog at submission time
    tables_used: frozenset = frozenset()
    #: the DB accesses whose key is known at admission, reads and
    #: writes apart: what the §4.5 batch former compares
    key_reads: Tuple[KeySource, ...] = ()
    key_writes: Tuple[KeySource, ...] = ()


class Catalogue:
    """Per-worker procedure + schema store (replicated to every worker)."""

    def __init__(self, schemas: Catalog):
        self.schemas = schemas
        self._procs: Dict[int, ProcedureEntry] = {}
        #: proc_id -> generated code, filled at first execution by
        #: :class:`repro.softcore.compiled.CompiledTier` and shared by
        #: every softcore holding this catalogue
        self.compiled: Dict[int, tuple] = {}

    def register(self, proc_id: int, program: Program,
                 verify: bool = True) -> ProcedureEntry:
        """Install (or replace) a stored procedure.

        ``verify=True`` runs the static program verifier first: a
        structurally defective procedure (deadlocking RET, unreachable
        COMMIT, over-budget register footprint…) is rejected here, at
        the last host-side moment, instead of hanging the softcore.
        Table references are *not* checked here — tables may be defined
        after procedures — but are recorded in ``tables_used`` and
        checked at submission.
        """
        if not program.finalized:
            program.finalize()
        graph = program_flow(program)
        if verify:
            verify_program(program, graph=graph).raise_if_errors()
        tolerant = frozenset(
            inst.cp.n
            for section in Section
            for inst in program.section(section)
            if inst.opcode is Opcode.RETN)
        tables = frozenset(
            inst.table
            for section in Section
            for inst in program.section(section)
            if inst.is_db and inst.table is not None)
        footprint = analyze_footprint(program, graph=graph)
        # keys the logic does not compute: a direct input cell, or a
        # register the footprint pass proves constant
        reads, writes = [], []
        for access in footprint.accesses:
            inst = program.section(access.node.section)[access.node.index]
            key = inst.key
            if isinstance(key, BlockRef) and not isinstance(key.offset, Gp):
                source = KeySource(access.table, key.offset + key.extra, None,
                                   inst.opcode is Opcode.INSERT)
            elif access.key.kind == "const":
                source = KeySource(access.table, None, access.key.const, False)
            else:
                continue
            (writes if access.mode == "write" else reads).append(source)
        entry = ProcedureEntry(
            proc_id=proc_id,
            program=program,
            footprint=footprint,
            gp_needed=max(1, program.gp_needed),
            cp_needed=max(1, program.cp_needed),
            tolerant_cps=tolerant,
            tables_used=tables,
            key_reads=tuple(reads),
            key_writes=tuple(writes),
        )
        # replacement is allowed: clients may change an existing txn type
        self._procs[proc_id] = entry
        return entry

    def lookup(self, proc_id: int) -> ProcedureEntry:
        try:
            return self._procs[proc_id]
        except KeyError:
            raise ProcedureNotFoundError(
                f"no stored procedure registered for id {proc_id}",
                proc_id=proc_id, registered=sorted(self._procs)) from None

    def __contains__(self, proc_id: int) -> bool:
        return proc_id in self._procs

    def __len__(self) -> int:
        return len(self._procs)
