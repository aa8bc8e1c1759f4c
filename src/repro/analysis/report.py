"""Every analysis pass over one stored procedure, run once.

:func:`analyze` builds the CFGs and the flow graph, then runs the
liveness, footprint, WCET, commit-protocol and verifier passes once
each; the footprint pass's summary feeds the WCET bound and the
verifier, and the verifier's liveness and commit-protocol results are
the report's.  Its :class:`Analysis` renders the two outputs of
``python -m repro.analysis report <proc>``:

* :meth:`Analysis.format` — per-section CFG with dominators,
  per-block GP/CP liveness at block boundaries, the footprint summary
  (key provenance, routing class, static MLP), the WCET bound, the
  commit-protocol verdict and the verifier findings — everything an
  operator wants to see before a procedure is allowed near the
  softcore;
* :meth:`Analysis.to_json` — the same facts as a stable
  machine-readable document (``--json``; the gate writes one per
  procedure).
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from ..isa.disassembler import disassemble_instruction
from ..isa.instructions import Program, Section
from ..isa.verify import VerificationReport, verify_program
from ..mem.schema import Catalog
from .dataflow import FlowGraph, Node, program_flow
from .footprint import FootprintSummary, analyze_footprint
from .liveness import LivenessResult
from .protocol import CommitProtocolReport
from .wcet import WcetReport, analyze_wcet

__all__ = ["Analysis", "analyze", "render_report", "report_json"]


def _regs(prefix: str, regs: Iterable[int]) -> str:
    return "{" + ", ".join(f"{prefix}{r}" for r in sorted(regs)) + "}"


class Analysis(NamedTuple):
    """One procedure's pass results; ``footprint`` is laid out against
    the schemas and worker count :func:`analyze` was given."""

    program: Program
    graph: FlowGraph
    gp: LivenessResult
    cp: LivenessResult
    footprint: FootprintSummary
    wcet: WcetReport
    protocol: CommitProtocolReport
    verify: VerificationReport

    def format(self) -> str:
        graph, gp, cp = self.graph, self.gp, self.cp
        cfgs = graph.cfgs
        lines: List[str] = [f"== analysis report: {self.program.name} =="]
        for section in Section:
            cfg = cfgs[section]
            if not cfg.insts:
                continue
            lines.append("")
            lines.append(f"-- {section.value}: {len(cfg.insts)} "
                         f"instructions, {len(cfg.blocks)} blocks --")
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
                lines.append(
                    f"    live-in   gp={_regs('r', gp.live_in[head])} "
                    f"cp={_regs('c', cp.live_in[head])}")
                for i in range(block.start, block.end):
                    lines.append(
                        f"    [{i:3}] "
                        f"{disassemble_instruction(cfg.insts[i])}")
                lines.append(
                    f"    live-out  gp={_regs('r', gp.live_out[tail])} "
                    f"cp={_regs('c', cp.live_out[tail])}")

        lines += ["", self.footprint.format(), "", self.wcet.format(), ""]
        lines.append("commit protocol: "
                     + ("PROVEN — every RET dominated by its dispatch, "
                        "every write intent-protected"
                        if self.protocol.proven else "NOT PROVEN"))

        verify = self.verify
        lines.append("")
        if verify.findings:
            lines.append(f"verifier: {len(verify.errors)} error(s), "
                         f"{len(verify.warnings)} warning(s)")
            lines.extend(f"  {f}" for f in verify.findings)
        else:
            lines.append("verifier: clean")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "program": self.program.name,
            "sections": {
                section.value: len(self.graph.cfgs[section].insts)
                for section in Section
            },
            "static_mlp": self.footprint.static_mlp,
            "footprint": self.footprint.to_json(),
            "wcet": self.wcet.to_json(),
            "commit_protocol_proven": self.protocol.proven,
            "verifier": [{
                "severity": f.severity, "code": f.code,
                "message": f.message,
                "section": f.section.value if f.section else None,
                "index": f.index,
            } for f in self.verify.findings],
        }


def analyze(program: Program, schemas: Optional[Catalog] = None,
            n_workers: Optional[int] = None) -> Analysis:
    """Run every pass over ``program`` once (finalises it if needed):
    the liveness and commit-protocol results are the verifier's own."""
    graph = program_flow(program)
    footprint = analyze_footprint(program, graph=graph)
    verify = verify_program(program, schemas=schemas, n_workers=n_workers,
                            graph=graph, footprint=footprint)
    return Analysis(
        program=program,
        graph=graph,
        gp=verify.gp,
        cp=verify.cp,
        footprint=footprint.with_layout(schemas, n_workers),
        wcet=analyze_wcet(program, graph=graph, footprint=footprint),
        protocol=verify.protocol,
        verify=verify,
    )


def render_report(program: Program, schemas: Optional[Catalog] = None,
                  n_workers: Optional[int] = None) -> str:
    return analyze(program, schemas, n_workers).format()


def report_json(program: Program, schemas: Optional[Catalog] = None,
                n_workers: Optional[int] = None) -> dict:
    """All analysis passes for one procedure, as a stable document."""
    return analyze(program, schemas, n_workers).to_json()
