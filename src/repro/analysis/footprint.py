"""Per-procedure partition/key footprints: the one key-provenance pass.

:func:`analyze_footprint` abstract-interprets a procedure's registers
over the :class:`~repro.analysis.provenance.KeyOrigin` lattice and
records, for every DB dispatch, where its key comes from:

* constant keys fold to exact keys;
* parameter-derived keys stay symbolic (anchored to the block input
  cells that produce them), which under the §4.4 contract means "the
  block's home partition";
* ``RANGE_SCAN`` carries a *key interval*: the low key is the routing
  key (the scanner walks the local index only, so the dispatch is
  single-partition like any point access), while the ``[lo, hi]``
  bounds feed the conflict analysis (:mod:`.conflict`) and the range
  report.

Every access is split into the **read set** (SEARCH/SCAN/RANGE_SCAN)
and the **write set** (INSERT/UPDATE/REMOVE).  ``Catalogue.register``
runs the pass once per procedure and keeps the summary on
``ProcedureEntry.footprint``: the batch former's key sources, the
routers, the verifier and the gate all read that one summary.

The stored summary is **layout-free** — tables may be defined after a
procedure is registered.  Each access is ``home`` (anchored key),
``pinned`` (constant key) or ``opaque`` (no anchor).
:meth:`FootprintSummary.with_layout` joins it with the schemas and
worker count of the moment: an access to a replicated table becomes
``local``, and a pinned key names its partition.  Over that view the
summary collapses to one of four classes:

``home-anchored``
    every partitioned-table key is anchored to block inputs (or the
    table is replicated): the procedure provably touches only the
    partition the block is homed on.  A router can submit it anywhere
    on the home node without ever seeing a
    :class:`~repro.errors.CrossNodeTransactionError` bounce.
``pinned``
    at least one compile-time-constant key routes to a fixed partition
    regardless of the block's home; the summary names the partitions.
``mixed``
    both anchored and pinned accesses (classification is still exact).
``unbounded``
    some key has no anchor at all; the reachable partitions cannot be
    bounded statically and the router must keep the dynamic
    bounce-then-re-home path.

:meth:`FootprintSummary.classify` then joins a laid-out summary with a
deployment (home partition, node map) into a :class:`StaticRoute`
verdict — ``single-partition`` / ``single-node`` / ``cross-node`` /
``unbounded`` — which is what :class:`repro.frontend.router.RequestRouter`
consults to re-plan misrouted lanes *before* the submit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from ..isa.instructions import BlockRef, Instruction, Opcode, Program
from ..mem.schema import Catalog, SchemaError, TableSchema
from .dataflow import FlowGraph, Node, program_flow, solve_forward
from .provenance import (
    KeyOrigin, _ENTRY, _key_origin, _operand_origin, _transfer, static_mlp,
)

__all__ = [
    "KeyBound", "Access", "FootprintSummary", "StaticRoute",
    "analyze_footprint", "table_schema",
    "CLASS_HOME", "CLASS_PINNED", "CLASS_MIXED", "CLASS_UNBOUNDED",
    "CLASS_RANK",
    "ROUTE_SINGLE_PARTITION", "ROUTE_SINGLE_NODE", "ROUTE_CROSS_NODE",
    "ROUTE_UNBOUNDED",
]

_WRITE_OPS = frozenset({Opcode.INSERT, Opcode.UPDATE, Opcode.REMOVE})

#: layout-independent summary classes, ordered best-to-worst; the CI
#: gate fails when a shipped procedure's class *rank* regresses
CLASS_HOME = "home-anchored"
CLASS_PINNED = "pinned"
CLASS_MIXED = "mixed"
CLASS_UNBOUNDED = "unbounded"
CLASS_RANK = {CLASS_HOME: 0, CLASS_PINNED: 1, CLASS_MIXED: 2,
              CLASS_UNBOUNDED: 3}

#: deployment-joined verdicts (StaticRoute.verdict)
ROUTE_SINGLE_PARTITION = "single-partition"
ROUTE_SINGLE_NODE = "single-node"
ROUTE_CROSS_NODE = "cross-node"
ROUTE_UNBOUNDED = "unbounded"


def table_schema(schemas: Optional[Catalog],
                 table_id: int) -> Optional[TableSchema]:
    """``table_id``'s schema, or ``None`` when there is no catalog or
    it does not (yet) define the table."""
    if schemas is None:
        return None
    try:
        return schemas.table(table_id)
    except SchemaError:
        return None


@dataclass(frozen=True)
class KeyBound:
    """One key operand, abstracted: exact constant, input-anchored
    symbol, or opaque runtime value."""

    kind: str                       # "const" | "cells" | "opaque"
    const: Optional[int] = None
    cells: FrozenSet[int] = frozenset()

    @staticmethod
    def of(origin: KeyOrigin) -> "KeyBound":
        if origin.const is not None:
            return KeyBound("const", const=origin.const)
        if origin.cells:
            return KeyBound("cells", cells=origin.cells)
        return KeyBound("opaque")

    def __str__(self) -> str:
        if self.kind == "const":
            return f"#{self.const}"
        if self.kind == "cells":
            return "@" + "/".join(f"@{c}" for c in sorted(self.cells))[1:]
        return "?"


#: a key bound's kind -> the access kind it gives a partitioned table
_ACCESS_KIND = {"const": "pinned", "cells": "home", "opaque": "opaque"}


@dataclass(frozen=True)
class Access:
    """One DB dispatch in a procedure's footprint."""

    node: Node
    opcode: Opcode
    table: int
    mode: str                       # "read" | "write"
    #: "home" | "pinned" | "opaque"; "local" once a layout makes the
    #: table replicated
    kind: str
    key: KeyBound
    #: RANGE_SCAN upper bound ([key, hi] is the scanned key interval;
    #: routing still follows ``key`` — the scanner walks the local
    #: index only)
    hi: Optional[KeyBound] = None
    #: SCAN/RANGE_SCAN row count when it is a compile-time constant
    count: Optional[int] = None
    #: pinned keys, once a layout is applied: the exact partition
    partition: Optional[int] = None

    @property
    def is_range(self) -> bool:
        return self.hi is not None

    def describe(self) -> str:
        extra = ""
        if self.kind == "pinned":
            extra = f" key={self.key}"
            if self.partition is not None:
                extra += f" -> partition {self.partition}"
        elif self.kind == "home":
            extra = f" key={self.key}"
        if self.hi is not None:
            extra += f" range=[{self.key}, {self.hi}]"
        if self.count is not None:
            extra += f" count={self.count}"
        return (f"{self.node!r:>12}  {self.opcode.value:<10} "
                f"t{self.table}  {self.mode:<5} {self.kind}{extra}")


@dataclass(frozen=True)
class StaticRoute:
    """A footprint joined with a concrete deployment layout."""

    verdict: str                    # one of the ROUTE_* constants
    #: partitions the procedure provably touches (home included)
    partitions: FrozenSet[int] = frozenset()
    #: nodes those partitions live on (when a node map was supplied)
    nodes: FrozenSet[int] = frozenset()

    @property
    def statically_routable(self) -> bool:
        """The set of reachable nodes is exactly known."""
        return self.verdict != ROUTE_UNBOUNDED

    @property
    def single_node(self) -> bool:
        return self.verdict in (ROUTE_SINGLE_PARTITION, ROUTE_SINGLE_NODE)


@dataclass
class FootprintSummary:
    """Partition/key footprint of one stored procedure."""

    program_name: str
    accesses: List[Access] = field(default_factory=list)
    static_mlp: int = 0

    # -- views ---------------------------------------------------------------
    @property
    def reads(self) -> List[Access]:
        return [a for a in self.accesses if a.mode == "read"]

    @property
    def writes(self) -> List[Access]:
        return [a for a in self.accesses if a.mode == "write"]

    @property
    def anchor_cells(self) -> FrozenSet[int]:
        out: FrozenSet[int] = frozenset()
        for a in self.accesses:
            if a.kind == "home":
                out |= a.key.cells
        return out

    @property
    def pinned_partitions(self) -> FrozenSet[int]:
        return frozenset(a.partition for a in self.accesses
                         if a.kind == "pinned" and a.partition is not None)

    @property
    def kind_class(self) -> str:
        """The summary class (CLASS_* constant) of this view."""
        kinds = {a.kind for a in self.accesses}
        if "opaque" in kinds:
            return CLASS_UNBOUNDED
        if "pinned" in kinds:
            return CLASS_PINNED if "home" not in kinds else CLASS_MIXED
        return CLASS_HOME

    # -- layout join ---------------------------------------------------------
    def with_layout(self, schemas: Optional[Catalog],
                    n_workers: Optional[int]) -> "FootprintSummary":
        """This footprint against the tables as defined now: accesses
        to replicated tables are ``local`` (every partition holds a
        copy), and with a worker count a pinned key names its
        partition.  Tables the catalog does not define stay as they
        are."""
        accesses = []
        for a in self.accesses:
            schema = table_schema(schemas, a.table)
            if schema is not None and schema.replicated:
                a = replace(a, kind="local")
            elif schema is not None and a.kind == "pinned" and n_workers:
                a = replace(a, partition=schema.route(a.key.const,
                                                      n_workers))
            accesses.append(a)
        return FootprintSummary(self.program_name, accesses,
                                self.static_mlp)

    # -- deployment join -----------------------------------------------------
    def classify(self, home: int,
                 node_of: Optional[Callable[[int], int]] = None
                 ) -> StaticRoute:
        """Join a laid-out footprint (:meth:`with_layout`) with a
        deployment: which partitions (and nodes) can a block homed on
        partition ``home`` touch?"""
        if self.kind_class == CLASS_UNBOUNDED:
            return StaticRoute(ROUTE_UNBOUNDED)
        partitions: Set[int] = {home}
        for a in self.accesses:
            if a.kind == "pinned":
                if a.partition is None:
                    # pinned but the partition could not be computed
                    # (no schema or worker count): cannot bound the nodes
                    return StaticRoute(ROUTE_UNBOUNDED)
                partitions.add(a.partition)
        if len(partitions) == 1:
            nodes = (frozenset({node_of(home)}) if node_of is not None
                     else frozenset())
            return StaticRoute(ROUTE_SINGLE_PARTITION,
                               frozenset(partitions), nodes)
        if node_of is None:
            # several partitions, no node map: partition-level answer only
            return StaticRoute(ROUTE_CROSS_NODE, frozenset(partitions))
        nodes = frozenset(node_of(p) for p in partitions)
        verdict = ROUTE_SINGLE_NODE if len(nodes) == 1 else ROUTE_CROSS_NODE
        return StaticRoute(verdict, frozenset(partitions), nodes)

    # -- rendering -----------------------------------------------------------
    def format(self) -> str:
        lines = [f"footprint for {self.program_name}: {self.kind_class}"
                 f"  ({len(self.reads)} reads, {len(self.writes)} writes,"
                 f" static MLP {self.static_mlp})"]
        for a in self.accesses:
            lines.append("  " + a.describe())
        if self.anchor_cells:
            lines.append(f"  anchors: @{sorted(self.anchor_cells)}")
        if self.pinned_partitions:
            lines.append(f"  pinned partitions: "
                         f"{sorted(self.pinned_partitions)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        def bound(b: Optional[KeyBound]):
            if b is None:
                return None
            return {"kind": b.kind, "const": b.const,
                    "cells": sorted(b.cells)}
        return {
            "program": self.program_name,
            "class": self.kind_class,
            "static_mlp": self.static_mlp,
            "anchors": sorted(self.anchor_cells),
            "pinned_partitions": sorted(self.pinned_partitions),
            "accesses": [{
                "at": repr(a.node), "op": a.opcode.value, "table": a.table,
                "mode": a.mode, "kind": a.kind, "key": bound(a.key),
                "hi": bound(a.hi), "count": a.count,
                "partition": a.partition,
            } for a in self.accesses],
        }


def _access(inst: Instruction, state: Dict, node: Node) -> Access:
    mode = "write" if inst.opcode in _WRITE_OPS else "read"
    key = KeyBound.of(_key_origin(state, inst.key))
    hi = None
    count = None
    if inst.opcode is Opcode.RANGE_SCAN:
        b = inst.b
        origin = (_key_origin(state, b) if isinstance(b, BlockRef)
                  else _operand_origin(state, b))
        hi = KeyBound.of(origin)
    if inst.opcode in (Opcode.SCAN, Opcode.RANGE_SCAN):
        count = _operand_origin(state, inst.a).const
    return Access(node, inst.opcode, inst.table, mode,
                  _ACCESS_KIND[key.kind], key, hi=hi, count=count)


def analyze_footprint(program: Program,
                      graph: Optional[FlowGraph] = None
                      ) -> FootprintSummary:
    """Run the key-provenance interpretation over ``program``."""
    graph = graph or program_flow(program)

    # States are dicts (missing register = entry value); the lattice
    # bottom for unvisited predecessors is None, NOT the empty dict —
    # an empty dict is a real state meaning "every register still holds
    # its entry value" and must taint what it joins with.
    def join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return {reg: a.get(reg, _ENTRY).join(b.get(reg, _ENTRY))
                for reg in sorted(set(a) | set(b), key=repr)}

    def transfer(inst, state):
        return None if state is None else _transfer(inst, state)

    ins, _ = solve_forward(graph, entry_state={}, bottom=None,
                           transfer=transfer, join=join)
    summary = FootprintSummary(program_name=program.name)
    for nid in range(len(graph)):
        inst = graph.inst(nid)
        if inst.is_db:
            summary.accesses.append(
                _access(inst, ins[nid] or {}, graph.nodes[nid]))
    summary.static_mlp = static_mlp(program, graph)
    return summary
