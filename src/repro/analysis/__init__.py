"""Static analysis over BionicDB stored procedures — and the simulator.

The softcore gives a stored procedure no runtime safety net: a RET on
a never-dispatched CP register parks the process forever, a WRFIELD on
a read-only tuple bypasses the UNDO log, a constant key quietly routes
every dispatch to one partition regardless of where the transaction is
homed.  This package proves those properties (or produces findings)
*before* a program reaches the catalogue:

* :mod:`.cfg` — per-section control-flow graphs: basic blocks,
  resolved branch edges, dominators, reachability.
* :mod:`.dataflow` — the stitched whole-program flow graph
  (logic → commit/abort, trap edges) and the generic worklist engine
  (:func:`~repro.analysis.dataflow.solve_forward` /
  :func:`~repro.analysis.dataflow.solve_backward`).
* :mod:`.liveness` — GP/CP liveness and reaching definitions;
  dead-write and uncollected-CP clients.
* :mod:`.protocol` — the §4.7 commit-protocol proof: must/may
  pending-CP analyses and WRFIELD write-intent provenance.
* :mod:`.provenance` — the §4.4 key-origin lattice and the static MLP
  estimate.
* :mod:`.footprint` — the key-provenance pass: per-procedure
  partition/key footprints (constant keys → exact partitions, anchored
  keys → home partition, RANGE_SCAN → key intervals), computed once at
  registration, and the layout and deployment joins (single-partition /
  single-node / cross-node routing verdicts).
* :mod:`.wcet` — worst-case cycle bound per procedure, charging the
  timing model's stage costs over the longest flow-graph path with
  bounded loops.
* :mod:`.lint` — determinism lint for the simulator's own Python
  (``python -m repro.analysis.lint src/repro``).

:func:`repro.isa.verify.verify_program` is the main client;
:func:`.report.analyze` runs every pass once over one procedure, and
the CLI (``python -m repro.analysis report <proc>``, ``gate``) renders
its result.
"""

from .cfg import EXIT, BasicBlock, Cfg, build_all_cfgs, build_cfg
from .dataflow import (
    FlowGraph, Node, program_flow, solve_backward, solve_forward,
)
from .liveness import (
    ENTRY_DEF, LivenessResult, ReachingDefs, dead_gp_writes, live_cp,
    live_gp, reaching_definitions, uncollected_cps,
)
from .protocol import (
    CommitProtocolReport, PendingCpResult, WriteProvenance,
    check_commit_protocol, pending_cps, write_provenance,
)
from .provenance import KeyOrigin, static_mlp
from .footprint import (
    Access, FootprintSummary, KeyBound, StaticRoute, analyze_footprint,
)
from .wcet import WcetModel, WcetReport, analyze_wcet

__all__ = [
    "EXIT", "BasicBlock", "Cfg", "build_cfg", "build_all_cfgs",
    "FlowGraph", "Node", "program_flow", "solve_forward", "solve_backward",
    "ENTRY_DEF", "LivenessResult", "ReachingDefs", "live_gp", "live_cp",
    "reaching_definitions", "dead_gp_writes",
    "uncollected_cps",
    "PendingCpResult", "WriteProvenance", "CommitProtocolReport",
    "pending_cps", "write_provenance", "check_commit_protocol",
    "KeyOrigin", "static_mlp",
    "KeyBound", "Access", "FootprintSummary", "StaticRoute",
    "analyze_footprint",
    "WcetModel", "WcetReport", "analyze_wcet",
]
