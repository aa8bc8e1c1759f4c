"""Human-readable analysis report for one stored procedure.

Backs ``python -m repro.analysis report <proc>``: per-section CFG with
dominators, per-block GP/CP liveness at block boundaries, the footprint
summary (key provenance, routing class, static MLP), the self-conflict
verdict, the WCET bound, the commit-protocol verdict, and the verifier
findings — everything an operator wants to see before a procedure is
allowed near the softcore.  The footprint pass runs once; the verifier
and the WCET pass reuse its summary.

:func:`report_json` returns the same facts as a stable machine-readable
document (the ``--json`` flag and the CI analysis gate consume it).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..isa.disassembler import disassemble_instruction
from ..isa.instructions import Program, Section
from ..isa.verify import verify_program
from ..mem.schema import Catalog
from .cfg import build_all_cfgs
from .conflict import build_conflict_matrix
from .dataflow import FlowGraph, Node
from .footprint import analyze_footprint
from .liveness import live_cp, live_gp
from .protocol import check_commit_protocol
from .wcet import analyze_wcet

__all__ = ["render_report", "report_json"]


def _regs(prefix: str, regs: Iterable[int]) -> str:
    return "{" + ", ".join(f"{prefix}{r}" for r in sorted(regs)) + "}"


def render_report(program: Program, schemas: Optional[Catalog] = None,
                  n_workers: Optional[int] = None) -> str:
    if not program.finalized:
        program.finalize()
    cfgs = build_all_cfgs(program)
    graph = FlowGraph(program, cfgs)
    gp = live_gp(program, graph)
    cp = live_cp(program, graph)

    lines: List[str] = [f"== analysis report: {program.name} =="]
    for section in Section:
        cfg = cfgs[section]
        if not cfg.insts:
            continue
        lines.append("")
        lines.append(f"-- {section.value}: {len(cfg.insts)} instructions, "
                     f"{len(cfg.blocks)} blocks --")
        dom = cfg.dominators()
        for block in cfg.blocks:
            head = graph.node_id(Node(section, block.start))
            tail = graph.node_id(Node(section, block.end - 1))
            doms = sorted(b for b in dom.get(block.bid, set())
                          if b != block.bid)
            lines.append(
                f"{block.label}:  preds={sorted(block.preds)} "
                f"succs={sorted(block.succs)}"
                + (f" dom={doms}" if doms else ""))
            lines.append(f"    live-in   gp={_regs('r', gp.live_in[head])} "
                         f"cp={_regs('c', cp.live_in[head])}")
            for i in range(block.start, block.end):
                lines.append(
                    f"    [{i:3}] {disassemble_instruction(cfg.insts[i])}")
            lines.append(f"    live-out  gp={_regs('r', gp.live_out[tail])} "
                         f"cp={_regs('c', cp.live_out[tail])}")

    footprint = analyze_footprint(program, graph=graph)
    laid_out = footprint.with_layout(schemas, n_workers)
    lines.append("")
    lines.append(laid_out.format())
    matrix = build_conflict_matrix([(program.name, laid_out)])
    lines.append(f"self-conflict: "
                 f"{matrix.verdict(program.name, program.name)}")

    wcet = analyze_wcet(program, graph=graph, footprint=footprint)
    lines.append("")
    lines.append(wcet.format())

    protocol = check_commit_protocol(program, graph)
    lines.append("")
    lines.append("commit protocol: "
                 + ("PROVEN — every RET dominated by its dispatch, every "
                    "write intent-protected"
                    if protocol.proven else "NOT PROVEN"))

    report = verify_program(program, schemas=schemas, n_workers=n_workers,
                            graph=graph, footprint=footprint)
    lines.append("")
    if report.findings:
        lines.append(f"verifier: {len(report.errors)} error(s), "
                     f"{len(report.warnings)} warning(s)")
        lines.extend(f"  {f}" for f in report.findings)
    else:
        lines.append("verifier: clean")
    return "\n".join(lines) + "\n"


def report_json(program: Program, schemas: Optional[Catalog] = None,
                n_workers: Optional[int] = None) -> dict:
    """All analysis passes for one procedure, as a stable document."""
    if not program.finalized:
        program.finalize()
    cfgs = build_all_cfgs(program)
    graph = FlowGraph(program, cfgs)
    footprint = analyze_footprint(program, graph=graph)
    laid_out = footprint.with_layout(schemas, n_workers)
    matrix = build_conflict_matrix([(program.name, laid_out)])
    wcet = analyze_wcet(program, graph=graph, footprint=footprint)
    protocol = check_commit_protocol(program, graph)
    verify = verify_program(program, schemas=schemas, n_workers=n_workers,
                            graph=graph, footprint=footprint)
    return {
        "program": program.name,
        "sections": {
            section.value: len(cfgs[section].insts) for section in Section
        },
        "static_mlp": footprint.static_mlp,
        "footprint": laid_out.to_json(),
        "self_conflict": matrix.verdict(program.name, program.name),
        "wcet": wcet.to_json(),
        "commit_protocol_proven": protocol.proven,
        "verifier": [{
            "severity": f.severity, "code": f.code, "message": f.message,
            "section": f.section.value if f.section else None,
            "index": f.index,
        } for f in verify.findings],
    }
