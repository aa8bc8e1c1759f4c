"""Tests for repro.analysis: CFG, dataflow, the verifier rewritten as
its client, the partition-ownership analysis, and the determinism lint.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT, Node, build_cfg, check_commit_protocol, dead_gp_writes, live_gp,
    pending_cps, program_flow, reaching_definitions, static_mlp,
)
from repro.analysis.dataflow import cp_defs
from repro.analysis.footprint import (
    CLASS_HOME, CLASS_MIXED, CLASS_PINNED, CLASS_UNBOUNDED,
    ROUTE_CROSS_NODE, ROUTE_SINGLE_NODE, ROUTE_SINGLE_PARTITION,
    ROUTE_UNBOUNDED, analyze_footprint,
)
from repro.analysis.lint import findings_json, lint_paths, lint_source
from repro.analysis.registry import ResolveError, all_procedures, resolve
from repro.analysis.report import analyze, render_report, report_json
from repro.analysis.wcet import WcetModel, analyze_wcet
from repro.sim.memory import DRAM_LATENCY_CYCLES
from repro.softcore import timing
from repro.isa import (
    Gp, Imm, Instruction, Opcode, ProcedureBuilder, Program, Section,
    assemble_one, disassemble, disassemble_instruction, verify_program,
)
from repro.mem.schema import Catalog, IndexKind, TableSchema


def catalog(replicated=False):
    return Catalog([TableSchema(0, "t", index_kind=IndexKind.HASH,
                                hash_buckets=64, replicated=replicated,
                                partition_fn=lambda k, n: k % n)])


def finalized(b: ProcedureBuilder) -> Program:
    p = b.build()
    p.finalize()
    return p


def codes(report):
    return [f.code for f in report.findings]


def laid_out(program, cat=None, n_workers=4):
    """The footprint of ``program`` against ``cat`` (default
    :func:`catalog`) and ``n_workers``."""
    return analyze_footprint(program).with_layout(
        cat if cat is not None else catalog(), n_workers)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class TestCfg:
    def looped(self) -> Program:
        b = ProcedureBuilder("looped")
        b.mov(0, 0)                 # 0
        b.label("head")
        b.cmp(Gp(0), 3)             # 1
        b.bge("done")               # 2
        b.add(0, Gp(0), 1)          # 3
        b.jmp("head")               # 4
        b.label("done")
        b.mov(1, 9)                 # 5
        b.commit_handler()
        b.commit()
        return finalized(b)

    def test_blocks_and_edges(self):
        cfg = build_cfg(self.looped(), Section.LOGIC)
        # leaders: 0, 1 (branch target), 3 (branch successor), 5 (target)
        assert [(blk.start, blk.end) for blk in cfg.blocks] == \
            [(0, 1), (1, 3), (3, 5), (5, 6)]
        by_start = {blk.start: blk for blk in cfg.blocks}
        assert sorted(by_start[1].succs) == [by_start[3].bid, by_start[5].bid]
        assert by_start[3].succs == [by_start[1].bid]      # the back edge
        assert by_start[5].succs == [EXIT]
        assert by_start[1].label == "L1"                   # disassembler name

    def test_branch_to_len_is_exit_not_bad(self):
        b = ProcedureBuilder("tail")
        b.jmp("end")
        b.label("end")
        cfg = build_cfg(finalized(b), Section.LOGIC)
        assert not cfg.bad_targets
        assert cfg.blocks[0].succs == [EXIT]

    def test_out_of_range_target_reported(self):
        p = Program("jumpy")
        p.logic.append(Instruction(Opcode.JMP, target=99))
        p.finalize()
        cfg = build_cfg(p, Section.LOGIC)
        assert cfg.bad_targets == [(0, 99)]

    def test_dominators(self):
        cfg = build_cfg(self.looped(), Section.LOGIC)
        dom = cfg.dominators()
        by_start = {blk.start: blk.bid for blk in cfg.blocks}
        # the loop head dominates both the body and the exit block
        assert by_start[1] in dom[by_start[3]]
        assert by_start[1] in dom[by_start[5]]
        assert by_start[3] not in dom[by_start[5]]

    def test_terminator_ends_block(self):
        b = ProcedureBuilder("term")
        b.commit_handler()
        b.commit()
        b.nop()                      # dead code after COMMIT
        cfg = build_cfg(finalized(b), Section.COMMIT)
        assert len(cfg.blocks) == 2
        assert cfg.blocks[0].succs == []          # COMMIT: flow stops
        assert cfg.blocks[1].bid not in cfg.reachable()

    def test_cfg_labels_match_disassembly(self):
        p = self.looped()
        cfg = build_cfg(p, Section.LOGIC)
        listing = disassemble(p)
        targets = {i.target for i in p.logic if isinstance(i.target, int)}
        for blk in cfg.blocks:
            if blk.start in targets:   # every jumped-to block is labelled
                assert f"{blk.label}:" in listing


# ---------------------------------------------------------------------------
# flow graph + dataflow clients
# ---------------------------------------------------------------------------

class TestDataflow:
    def test_registers_live_across_sections(self):
        b = ProcedureBuilder("stitch")
        b.mov(4, 7)                  # written in logic ...
        b.commit_handler()
        b.store(Gp(4), b.at(0))      # ... read in the commit handler
        b.commit()
        p = finalized(b)
        graph = program_flow(p)
        res = live_gp(p, graph)
        nid = graph.node_id(Node(Section.LOGIC, 0))
        assert 4 in res.live_out[nid]
        assert not dead_gp_writes(p, graph)

    def test_trap_edge_reaches_abort_handler(self):
        b = ProcedureBuilder("trap")
        b.mov(2, 5)
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)                  # may trap to the abort handler
        b.abort_handler()
        b.store(Gp(2), b.at(1))      # r2 must be live across the trap
        b.abort()
        p = finalized(b)
        graph = program_flow(p)
        res = live_gp(p, graph)
        assert 2 in res.live_out[graph.node_id(Node(Section.LOGIC, 0))]

    def test_reaching_defs_and_chains(self):
        b = ProcedureBuilder("defs")
        b.mov(0, 1)                  # 0: def A
        b.mov(0, 2)                  # 1: def B kills A
        b.add(1, Gp(0), 3)           # 2: uses B only
        b.commit_handler()
        b.commit()
        p = finalized(b)
        graph = program_flow(p)
        reach = reaching_definitions(p, graph)
        use = graph.node_id(Node(Section.LOGIC, 2))
        assert reach.defs_of(use, 0) == {graph.node_id(Node(Section.LOGIC, 1))}

    def test_pending_cp_must_and_may(self):
        b = ProcedureBuilder("pend")
        b.cmp(Gp(0), 0)
        b.be("skip")
        b.search(cp=3, table=0, key=b.at(0))
        b.label("skip")
        b.ret(1, 3)                  # c3 pending on only one path
        b.commit_handler()
        b.commit()
        p = finalized(b)
        graph = program_flow(p)
        res = pending_cps(p, graph)
        ret_nid = graph.node_id(Node(Section.LOGIC, 3))
        assert 3 in res.may_in[ret_nid]
        assert 3 not in res.must_in[ret_nid]

    def test_static_mlp(self):
        _, p, _ = [x for x in all_procedures() if x[0] == "ycsb_read_4"][0]
        assert static_mlp(p) == 4    # all four SEARCHes in flight at once
        b = ProcedureBuilder("serial")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.search(cp=0, table=0, key=b.at(1))
        b.ret(1, 0)
        b.commit_handler()
        b.commit()
        assert static_mlp(finalized(b)) == 1


# ---------------------------------------------------------------------------
# verifier checks, positive + negative, on the framework
# ---------------------------------------------------------------------------

def good_program(name="ok"):
    b = ProcedureBuilder(name)
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    return b.build()


class TestVerifierChecks:
    def test_good_program_has_zero_findings(self):
        report = verify_program(good_program())
        assert report.ok and not report.findings

    def test_register_pressure(self):
        b = ProcedureBuilder("fat")
        b.mov(200, 1)
        assert "register-pressure" in codes(
            verify_program(b.build(), n_registers=64))
        assert "register-pressure" not in codes(
            verify_program(good_program(), n_registers=64))

    def test_branch_out_of_range(self):
        p = Program("jumpy")
        p.logic.append(Instruction(Opcode.JMP, target=99))
        report = verify_program(p)
        assert "branch-out-of-range" in codes(report)
        assert "branch-out-of-range" not in codes(verify_program(good_program()))

    def test_commit_in_logic(self):
        b = ProcedureBuilder("early")
        b.commit()
        report = verify_program(b.build())
        assert "commit-in-logic" in [f.code for f in report.errors]

    def test_ret_unwritten_cp(self):
        b = ProcedureBuilder("deadlock")
        b.commit_handler()
        b.ret(0, 5)
        b.commit()
        report = verify_program(b.build())
        assert "ret-unwritten-cp" in [f.code for f in report.errors]

    def test_ret_unready_cp_on_conditional_dispatch(self):
        b = ProcedureBuilder("maybe")
        b.cmp(Gp(0), 0)
        b.be("skip")
        b.search(cp=0, table=0, key=b.at(0))
        b.label("skip")
        b.ret(1, 0)                  # can hang when the branch is taken
        b.commit_handler()
        b.commit()
        report = verify_program(b.build())
        assert "ret-unready-cp" in [f.code for f in report.errors]
        # unconditional dispatch-then-collect is fine
        assert "ret-unready-cp" not in codes(verify_program(good_program()))

    def test_double_collect_is_unready(self):
        b = ProcedureBuilder("twice")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.ret(1, 0)                  # second collect: nothing in flight
        b.commit_handler()
        b.commit()
        report = verify_program(b.build())
        assert "ret-unready-cp" in [f.code for f in report.errors]

    def test_missing_commit_and_abort(self):
        b = ProcedureBuilder("nocommit")
        b.commit_handler()
        b.nop()
        assert "missing-commit" in codes(verify_program(b.build()))
        b = ProcedureBuilder("noabort")
        b.abort_handler()
        b.nop()
        assert "missing-abort" in codes(verify_program(b.build()))
        assert not {"missing-commit", "missing-abort"} & set(
            codes(verify_program(good_program())))

    def test_unknown_table(self):
        b = ProcedureBuilder("ghost")
        b.search(cp=0, table=7, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        assert "unknown-table" in codes(verify_program(b.build(),
                                                       schemas=catalog()))
        assert "unknown-table" not in codes(verify_program(good_program(),
                                                           schemas=catalog()))

    def test_db_outside_logic_carries_disassembly(self):
        b = ProcedureBuilder("late")
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.insert(cp=1, table=0, key=b.at(1))
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        f = next(f for f in report.warnings if f.code == "db-outside-logic")
        assert f.detail == "INSERT c1, t0, @1"
        assert f.detail in str(f)

    def test_scan_count_carries_disassembly(self):
        b = ProcedureBuilder("noscan")
        b.scan(cp=0, table=0, key=b.at(0), count=0, out=b.at(2))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        report = verify_program(b.build())
        f = next(f for f in report.warnings if f.code == "scan-count")
        assert f.detail == "SCAN c0, t0, @0, #0, @2"

    def test_dead_gp_write_warning(self):
        b = ProcedureBuilder("dead")
        b.mov(3, 42)                 # never read again
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        f = next(f for f in report.warnings if f.code == "dead-gp-write")
        assert f.detail == "MOV r3, #42"
        # the same MOV, consumed, is clean
        b = ProcedureBuilder("alive")
        b.mov(3, 42)
        b.store(Gp(3), b.at(0))
        b.commit_handler()
        b.commit()
        assert "dead-gp-write" not in codes(verify_program(b.build()))

    def test_load_touch_idiom_is_not_dead(self):
        # read-only procedures LOAD a field to model DRAM traffic and
        # discard it; that must not be flagged.
        b = ProcedureBuilder("touch")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.load(1, b.fld(0, 0))
        b.commit_handler()
        b.commit()
        assert "dead-gp-write" not in codes(verify_program(b.build()))

    def test_uncollected_cp_warning(self):
        b = ProcedureBuilder("leak")
        b.search(cp=0, table=0, key=b.at(0))
        b.search(cp=1, table=0, key=b.at(1))   # never collected
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        assert "uncollected-cp" in codes(report)
        assert "uncollected-cp" not in codes(verify_program(good_program()))

    def test_redispatch_pending_cp_warning(self):
        b = ProcedureBuilder("clobber")
        b.search(cp=0, table=0, key=b.at(0))
        b.search(cp=0, table=0, key=b.at(1))   # overwrites pending c0
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        assert "redispatch-pending-cp" in codes(verify_program(b.build()))

    def test_unprotected_write_is_fatal(self):
        b = ProcedureBuilder("dirty")
        b.search(cp=0, table=0, key=b.at(0))   # read: no write intent
        b.ret(0, 0)
        b.wrfield(0, 1, 99)
        b.commit_handler()
        b.commit()
        report = verify_program(b.build())
        assert "unprotected-write" in [f.code for f in report.errors]

    def test_intent_protected_write_is_clean(self):
        b = ProcedureBuilder("clean-write")
        b.update(cp=0, table=0, key=b.at(0))   # UPDATE takes the intent
        b.ret(0, 0)
        b.wrfield(0, 1, 99)
        b.commit_handler()
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        assert "unprotected-write" not in codes(report)

    def test_untracked_write_base_is_warning(self):
        # a shipped unit test registers exactly this shape with verify
        # on, so it must stay a warning, not an error.
        b = ProcedureBuilder("blind")
        b.mov(0, 12345678)
        b.wrfield(0, 0, 1)
        b.commit_handler()
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        assert "untracked-write" in codes(report)


class TestPartitionChecks:
    def test_pinned_key_is_flagged(self):
        b = ProcedureBuilder("mishomed")
        b.mov(0, 17)                           # compile-time-constant key
        b.search(cp=0, table=0, key=Gp(0))
        b.commit_handler()
        b.ret(1, 0)
        b.commit()
        p = b.build()
        report = verify_program(p, schemas=catalog(), n_workers=4)
        f = next(f for f in report.warnings if f.code == "partition-pinned-key")
        assert "partition 1" in f.message      # 17 % 4
        # without a schema catalog the partition checks stay off
        assert "partition-pinned-key" not in codes(verify_program(p))

    def test_pinned_via_arithmetic_constant(self):
        b = ProcedureBuilder("computed-const")
        b.mov(0, 5)
        b.mul(1, Gp(0), 3)
        b.search(cp=0, table=0, key=Gp(1))     # key is always 15
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        summary = laid_out(b.build())
        assert [a.kind for a in summary.accesses] == ["pinned"]
        assert summary.accesses[0].key.const == 15
        assert summary.accesses[0].partition == 3

    def test_untracked_key_is_flagged(self):
        b = ProcedureBuilder("wild")
        b.search(cp=0, table=0, key=Gp(5))     # r5 holds its entry value
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        report = verify_program(b.build(), schemas=catalog(), n_workers=4)
        assert "partition-untracked-key" in codes(report)

    def test_replicated_table_is_local(self):
        b = ProcedureBuilder("rep")
        b.search(cp=0, table=0, key=17)        # constant key, but replicated
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        summary = laid_out(b.build(), catalog(True))
        assert [a.kind for a in summary.accesses] == ["local"]
        assert "partition-pinned-key" not in codes(verify_program(
            b.build(), schemas=catalog(True), n_workers=4))

    def test_field_derived_key_keeps_its_anchor(self):
        # orderstatus idiom: key loaded from a field of a tuple that was
        # itself found via input cell @0 — still anchored to @0.
        b = ProcedureBuilder("chase")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.load(1, b.fld(0, 2))
        b.search(cp=1, table=0, key=Gp(1))
        b.commit_handler()
        b.ret(2, 1)
        b.store(Gp(2), b.at(1))
        b.commit()
        summary = laid_out(b.build())
        assert [a.kind for a in summary.accesses] == ["home", "home"]
        assert summary.accesses[1].key.cells == frozenset({0})

    def test_commit_protocol_proven_for_good_program(self):
        p = good_program()
        p.finalize()
        assert check_commit_protocol(p).proven


# ---------------------------------------------------------------------------
# the sweep: every shipped procedure verifies completely clean
# ---------------------------------------------------------------------------

class TestProcedureSweep:
    @pytest.mark.parametrize("name,program,cat",
                             all_procedures(),
                             ids=[n for n, _, _ in all_procedures()])
    def test_shipped_procedure_is_clean(self, name, program, cat):
        report = verify_program(program, schemas=cat, n_workers=4)
        assert report.ok, [str(f) for f in report.errors]
        assert not report.findings, [str(f) for f in report.findings]
        assert check_commit_protocol(program).proven

    def test_sweep_covers_both_workloads(self):
        names = [n for n, _, _ in all_procedures()]
        assert any(n.startswith("tpcc_") for n in names)
        assert any(n.startswith("ycsb_") for n in names)
        assert len(names) >= 10


# ---------------------------------------------------------------------------
# registry + report CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_resolve_families(self):
        for name in ("tpcc_payment", "tpcc_neworder_7", "ycsb_read_3",
                     "ycsb_rmw_2", "ycsb_scan_5", "ycsb_mix_3r1u"):
            program, cat = resolve(name)
            assert program.finalized and len(cat) >= 1

    def test_resolve_unknown(self):
        with pytest.raises(ResolveError):
            resolve("tpcc_teleport")

    def test_render_report_sections(self):
        program, cat = resolve("tpcc_payment")
        text = render_report(program, schemas=cat, n_workers=4)
        assert "analysis report: tpcc_payment" in text
        assert "live-in" in text and "footprint for tpcc_payment" in text
        assert "commit protocol: PROVEN" in text
        assert "verifier: clean" in text

    def test_main_report_and_list(self, capsys):
        from repro.analysis.__main__ import main
        assert main(["report", "ycsb_read_2"]) == 0
        assert "ycsb_read_2" in capsys.readouterr().out
        assert main(["list"]) == 0
        assert "tpcc_payment" in capsys.readouterr().out
        assert main(["report", "nope"]) == 2


# ---------------------------------------------------------------------------
# disassembler round-trips (satellite)
# ---------------------------------------------------------------------------

class TestDisassembler:
    def test_resolved_branches_render_as_labels(self):
        b = ProcedureBuilder("loopy")
        b.label("head")
        b.add(0, Gp(0), 1)
        b.cmp(Gp(0), 4)
        b.blt("head")
        b.commit_handler()
        b.commit()
        p = finalized(b)
        listing = disassemble(p)
        assert "L0:" in listing and "BLT L0" in listing
        assert disassemble_instruction(p.logic[2]) == "BLT L0"

    def test_finalized_round_trip(self):
        p = finalized(ProcedureBuilder("rt")
                      .search(cp=0, table=1, key=ProcedureBuilder.at(0))
                      .commit_handler().ret(0, 0).commit()
                      .abort_handler().abort())
        again = assemble_one(disassemble(p))
        again.finalize()
        assert disassemble(again) == disassemble(p)

    def test_unfinalized_named_labels_round_trip(self):
        b = ProcedureBuilder("named")
        b.label("head")
        b.add(0, Gp(0), 1)
        b.cmp(Gp(0), 4)
        b.blt("head")
        b.commit_handler()
        b.commit()
        p = b.program                      # un-finalized: names preserved
        listing = disassemble(p)
        assert "head:" in listing and "BLT head" in listing
        again = assemble_one(listing)
        p.finalize()
        again.finalize()
        assert disassemble(again) == disassemble(p)


# ---------------------------------------------------------------------------
# determinism lint
# ---------------------------------------------------------------------------

class TestLint:
    def test_wall_clock(self):
        hits = lint_source("import time\nt = time.time()\n", "m.py")
        assert [f.rule for f in hits] == ["wall-clock"]
        assert not lint_source("import time\n"
                               "t = time.time()  # det: allow(wall-clock)\n")

    def test_unseeded_random(self):
        src = ("import random\n"
               "x = random.randint(0, 5)\n"
               "r = random.Random()\n"
               "ok = random.Random(42)\n")
        assert [f.rule for f in lint_source(src)] == ["unseeded-random"] * 2

    def test_set_order_direct_and_via_binding(self):
        src = ("def f(xs):\n"
               "    for v in set(xs):\n"
               "        print(v)\n")
        assert [f.rule for f in lint_source(src)] == ["set-order"]
        src = ("def f(xs):\n"
               "    sizes = set(xs) or {7}\n"
               "    for n in sizes:\n"
               "        print(n)\n")
        assert [f.rule for f in lint_source(src)] == ["set-order"]

    def test_set_order_exempts_order_free_sinks(self):
        src = ("def f(xs, a, b):\n"
               "    for v in sorted(set(xs)):\n"
               "        print(v)\n"
               "    total = sum(x for x in {1, 2, 3})\n"
               "    keys = sorted(k for k in set(a) | set(b))\n"
               "    fs = frozenset(x for x in {4, 5})\n")
        assert not lint_source(src)

    def test_set_order_reassigned_binding_not_tracked(self):
        src = ("def f(xs):\n"
               "    seq = set(xs)\n"
               "    seq = sorted(seq)\n"
               "    for v in seq:\n"
               "        print(v)\n")
        assert not lint_source(src)

    def test_fault_latch(self):
        bad = ("def hook(plan):\n"
               "    raise plan.crash('site')\n")
        assert [f.rule for f in lint_source(bad)] == ["fault-latch"]
        good = ("def hook(plan):\n"
               "    plan.check_alive()\n"
               "    raise plan.crash('site')\n")
        assert not lint_source(good)

    def test_fault_latch_at_module_level(self):
        bad = "import plan\nraise plan.crash('boot')\n"
        assert [f.rule for f in lint_source(bad)] == ["fault-latch"]

    def test_skip_file_pragma(self):
        src = "# det: skip-file\nimport time\nt = time.time()\n"
        assert not lint_source(src)

    def test_whole_tree_is_clean(self):
        findings = lint_paths(["src/repro"])
        assert not findings, [str(f) for f in findings]


# ---------------------------------------------------------------------------
# the new determinism rules (satellite)
# ---------------------------------------------------------------------------

class TestLintNewRules:
    def test_arbitrary_pop_on_a_set_binding(self):
        src = ("def f(xs):\n"
               "    s = set(xs)\n"
               "    return s.pop()\n")
        assert [f.rule for f in lint_source(src)] == ["arbitrary-pop"]

    def test_list_pop_is_not_flagged(self):
        src = ("def f(xs):\n"
               "    return xs.pop()\n")        # xs is not a set binding
        assert not lint_source(src)
        # pop with an index is list.pop(i): positional, deterministic
        assert not lint_source("def f(xs):\n    return xs.pop(0)\n")

    def test_popitem_is_flagged(self):
        src = ("def f(d):\n"
               "    return d.popitem()\n")
        assert [f.rule for f in lint_source(src)] == ["arbitrary-pop"]

    def test_hash_randomisation(self):
        assert [f.rule for f in lint_source("h = hash('x') % 8\n")] == \
            ["hash-randomisation"]
        assert not lint_source(
            "h = hash('x') % 8  # det: allow(hash-randomisation)\n")

    def test_fs_order_listdir(self):
        src = ("import os\n"
               "def f(p):\n"
               "    for name in os.listdir(p):\n"
               "        print(name)\n")
        assert [f.rule for f in lint_source(src)] == ["fs-order"]
        assert not lint_source(
            "import os\n"
            "def f(p):\n"
            "    for name in sorted(os.listdir(p)):\n"
            "        print(name)\n")

    def test_fs_order_pathlib_glob(self):
        src = ("def f(root):\n"
               "    return [p.name for p in root.glob('*.py')]\n")
        assert [f.rule for f in lint_source(src)] == ["fs-order"]
        assert not lint_source(
            "def f(root):\n"
            "    return [p.name for p in sorted(root.rglob('*.py'))]\n")

    def test_id_order_in_sort_keys(self):
        # the Silo commit protocol's old write-lock order
        src = ("def lock(ws):\n"
               "    for e in sorted(\n"
               "            ws, key=lambda e: id(e[2]) if e[2] else 0):\n"
               "        pass\n")
        hits = lint_source(src)
        assert [(f.rule, f.line) for f in hits] == [("id-order", 3)]
        for bad in ("xs.sort(key=id)\n",
                    "m = min(xs, key=lambda r: (r.t, id(r)))\n",
                    "m = max(xs, key=id)\n"):
            assert [f.rule for f in lint_source(bad)] == ["id-order"], bad
        for fine in ("ys = sorted(xs, key=lambda e: (e[0].table_id, e[1]))\n",
                     "seen = {id(x): x for x in xs}\n",
                     "ys = sorted(xs)\n"):
            assert not lint_source(fine), fine


# ---------------------------------------------------------------------------
# footprint summaries (tentpole)
# ---------------------------------------------------------------------------

def footprint_of(build, name="p", cat=None, n_workers=4):
    """Analyze a tiny procedure: ``build(b)`` adds the logic dispatches."""
    b = ProcedureBuilder(name)
    build(b)
    b.commit_handler()
    b.ret(0, 0)
    b.commit()
    return laid_out(finalized(b), cat, n_workers)


def const_writer(key, table=0):
    """Logic that UPDATEs a compile-time-constant key (int keys in the
    builder are block offsets, so constants go through a register)."""
    def build(b):
        b.mov(0, key)
        b.update(cp=0, table=table, key=Gp(0))
    return build


class TestFootprint:
    def test_constant_key_pins_its_partition(self):
        fp = footprint_of(const_writer(7))
        (a,) = fp.accesses
        assert a.kind == "pinned" and a.mode == "write"
        assert a.key.const == 7 and a.partition == 7 % 4
        assert fp.kind_class == CLASS_PINNED
        assert fp.pinned_partitions == {3}

    def test_anchored_key_is_home(self):
        fp = footprint_of(lambda b: b.search(cp=0, table=0, key=b.at(0)))
        (a,) = fp.accesses
        assert a.kind == "home" and a.mode == "read"
        assert a.key.cells == {0}
        assert fp.kind_class == CLASS_HOME
        assert fp.anchor_cells == {0}
        route = fp.classify(2)
        assert route.verdict == ROUTE_SINGLE_PARTITION
        assert route.partitions == {2}

    def test_opaque_key_is_unbounded(self):
        # Gp(3) is never written: its entry value is runtime-only data
        fp = footprint_of(lambda b: b.search(cp=0, table=0, key=Gp(3)))
        (a,) = fp.accesses
        assert a.kind == "opaque"
        assert fp.kind_class == CLASS_UNBOUNDED
        route = fp.classify(0)
        assert route.verdict == ROUTE_UNBOUNDED
        assert not route.statically_routable and not route.single_node

    def test_mixed_class_and_node_map_join(self):
        def build(b):
            b.search(cp=0, table=0, key=b.at(0))    # anchored
            b.mov(0, 7)
            b.update(cp=1, table=0, key=Gp(0))      # pinned to 3

        fp = footprint_of(build)
        assert fp.kind_class == CLASS_MIXED
        # home == the pinned partition: collapses to one partition
        assert fp.classify(3).verdict == ROUTE_SINGLE_PARTITION
        # two partitions on one node
        route = fp.classify(0, node_of=lambda p: 0)
        assert route.verdict == ROUTE_SINGLE_NODE
        assert route.partitions == {0, 3} and route.nodes == {0}
        assert route.single_node
        # two partitions on two nodes
        route = fp.classify(0, node_of=lambda p: p % 2)
        assert route.verdict == ROUTE_CROSS_NODE
        assert route.nodes == {0, 1} and not route.single_node

    def test_pinned_without_worker_count_cannot_bound_the_route(self):
        fp = footprint_of(const_writer(7), n_workers=None)
        assert fp.kind_class == CLASS_PINNED        # class is layout-free
        (a,) = fp.accesses
        assert a.partition is None
        assert fp.classify(0).verdict == ROUTE_UNBOUNDED

    def test_range_scan_carries_its_interval(self):
        fp = footprint_of(lambda b: b.range_scan(
            cp=0, table=0, lo=b.at(0), hi=b.at(1), count=4, out=b.at(2)))
        (a,) = fp.accesses
        assert a.is_range and a.mode == "read"
        assert a.kind == "home"                     # routed by lo
        assert a.key.cells == {0} and a.hi.cells == {1}
        assert a.count == 4

    def test_constant_range_pins_by_lo(self):
        def build(b):
            b.mov(0, 2)
            b.range_scan(cp=0, table=0, lo=Gp(0), hi=Imm(9), count=4,
                         out=b.at(0))

        fp = footprint_of(build)
        (a,) = fp.accesses
        assert a.kind == "pinned" and a.partition == 2 % 4
        assert a.key.const == 2 and a.hi.const == 9

    def test_replicated_table_is_local(self):
        fp = footprint_of(lambda b: b.search(cp=0, table=0, key=b.at(0)),
                          cat=catalog(replicated=True))
        (a,) = fp.accesses
        assert a.kind == "local"
        assert fp.kind_class == CLASS_HOME

    def test_to_json_is_serialisable(self):
        fp = footprint_of(lambda b: b.range_scan(
            cp=0, table=0, lo=b.at(0), hi=b.at(1), count=4, out=b.at(2)))
        doc = json.loads(json.dumps(fp.to_json()))
        assert doc["class"] == CLASS_HOME
        assert doc["accesses"][0]["hi"]["cells"] == [1]


# ---------------------------------------------------------------------------
# worst-case cycle bound (tentpole)
# ---------------------------------------------------------------------------

class TestWcet:
    def test_straight_line_bound_is_exact(self):
        b = ProcedureBuilder("straight")
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.store(Gp(0), b.at(1))
        b.commit()
        r = analyze_wcet(finalized(b))
        path = (timing.DB_PREPARE_CYCLES + timing.DB_DISPATCH_CYCLES  # SEARCH
                + timing.RET_CYCLES + WcetModel.ret_wait_cycles       # RET
                + timing.CPU_INST_CYCLES                              # STORE
                + 0.0)                                    # COMMIT, 0 writes
        assert r.cycles == path
        assert r.overhead_cycles == \
            timing.CATALOGUE_CYCLES + 2 * timing.CONTEXT_SWITCH_CYCLES
        assert r.total_cycles == path + r.overhead_cycles
        # 4 authored instructions + the implicit ABORT handler
        assert not r.has_loops and r.n_writes == 0 and r.n_insts == 5
        assert r.ns == r.total_cycles * 8.0           # 125 MHz

    def test_writes_charge_the_commit_protocol(self):
        b = ProcedureBuilder("writer")
        b.update(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        r = analyze_wcet(finalized(b))
        assert r.n_writes == 1
        commit_cost = timing.COMMIT_CYCLES_PER_ENTRY * 1 + DRAM_LATENCY_CYCLES
        assert r.cycles == (timing.DB_PREPARE_CYCLES
                            + timing.DB_DISPATCH_CYCLES + timing.RET_CYCLES
                            + WcetModel.ret_wait_cycles + commit_cost)

    def test_loops_are_charged_loop_bound_iterations(self):
        b = ProcedureBuilder("looped")
        b.mov(0, 0)
        b.label("head")
        b.cmp(Gp(0), 3)
        b.bge("done")
        b.add(0, Gp(0), 1)
        b.jmp("head")
        b.label("done")
        b.commit_handler()
        b.commit()
        p = finalized(b)
        r16 = analyze_wcet(p, loop_bound=16)
        r32 = analyze_wcet(p, loop_bound=32)
        assert r16.has_loops and r32.has_loops
        # the SCC body is CMP+BGE+ADD+JMP = 4 insts at 5 cycles
        assert r32.cycles - r16.cycles == 16 * 4 * 5.0

    def test_model_derives_from_dram_latency(self):
        # a RET's worst wait is three round trips of the machine's DRAM
        assert WcetModel.ret_wait_cycles == 3 * DRAM_LATENCY_CYCLES == 255.0


# ---------------------------------------------------------------------------
# CFG / dataflow edge cases (satellite)
# ---------------------------------------------------------------------------

class TestCfgEdgeCases:
    def test_branch_to_self_is_a_one_block_loop(self):
        b = ProcedureBuilder("spin")
        b.label("spin")
        b.jmp("spin")
        b.commit_handler()
        b.commit()
        p = finalized(b)
        cfg = build_cfg(p, Section.LOGIC)
        (blk,) = cfg.blocks
        assert blk.succs == [blk.bid]
        r = analyze_wcet(p, loop_bound=8)
        assert r.has_loops and r.loop_bound == 8

    def test_code_after_abort_is_unreachable(self):
        b = ProcedureBuilder("dead_tail")
        b.abort()
        b.nop()                       # never runs: ABORT ends the flow
        b.commit_handler()
        b.commit()
        b.abort_handler()
        b.abort()
        p = finalized(b)
        cfg = build_cfg(p, Section.LOGIC)
        assert len(cfg.blocks) == 2
        assert cfg.blocks[0].succs == []
        assert cfg.blocks[1].bid not in cfg.reachable()

    def test_range_scan_is_cp_producing(self):
        b = ProcedureBuilder("ranged")
        b.range_scan(cp=2, table=0, lo=b.at(0), hi=b.at(1), count=4,
                     out=b.at(2))
        b.commit_handler()
        b.ret(0, 2)                   # collects the scan's cp
        b.commit()
        p = finalized(b)
        assert cp_defs(p.logic[0]) == frozenset({2})
        report = verify_program(p, schemas=catalog())
        # the RET sees a written, pending cp: no protocol errors
        assert "ret-unwritten-cp" not in codes(report)
        assert "uncollected-cp" not in codes(report)
        # ... and dropping the RET leaks the cp
        b2 = ProcedureBuilder("leaky")
        b2.range_scan(cp=2, table=0, lo=b2.at(0), hi=b2.at(1), count=4,
                      out=b2.at(2))
        b2.commit_handler()
        b2.commit()
        assert "uncollected-cp" in codes(verify_program(b2.build()))

    def test_empty_logic_program_enters_at_the_handlers(self):
        b = ProcedureBuilder("handlers_only")
        b.commit_handler()
        b.commit()
        p = finalized(b)
        g = program_flow(p)
        # no logic: entries fall back to the handler entries (the
        # implicit ABORT handler makes the second node)
        assert len(g) == 2 and g.entries
        fp = analyze_footprint(p)
        assert fp.accesses == [] and fp.kind_class == CLASS_HOME
        r = analyze_wcet(p)
        assert r.cycles == 0.0 and r.total_cycles == r.overhead_cycles

    def test_empty_section_program(self):
        # finalize() fills empty handler sections with bare COMMIT/ABORT
        p = Program("void")
        p.finalize()
        g = program_flow(p)
        assert len(g) == 2 and g.entries
        assert analyze_footprint(p).accesses == []
        r = analyze_wcet(p)
        assert r.n_insts == 2 and r.total_cycles == r.overhead_cycles

    def test_range_scan_verifier_warnings(self):
        # symbolic hi from an unwritten register: the scanned interval
        # cannot be bounded statically
        b = ProcedureBuilder("blind")
        b.range_scan(cp=0, table=0, lo=b.at(0), hi=Gp(5), count=4,
                     out=b.at(1))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        found = codes(verify_program(b.build(), schemas=catalog()))
        assert "range-hi-untracked" in found
        # hash-partitioned table: the scan walks only lo's partition
        assert "range-partition-blind" in found
        # a range-partitioned table keeps the whole interval local
        ranged_cat = Catalog([TableSchema(
            0, "t", index_kind=IndexKind.HASH, hash_buckets=64,
            partition_fn=lambda k, n: min(k // 16, n - 1),
            range_partitioned=True)])
        b2 = ProcedureBuilder("sighted")
        b2.range_scan(cp=0, table=0, lo=b2.at(0), hi=b2.at(1), count=4,
                      out=b2.at(2))
        b2.commit_handler()
        b2.ret(0, 0)
        b2.commit()
        found = codes(verify_program(b2.build(), schemas=ranged_cat))
        assert "range-partition-blind" not in found
        assert "range-hi-untracked" not in found


# ---------------------------------------------------------------------------
# the registry-wide footprint sweep
# ---------------------------------------------------------------------------

class TestFootprintSweep:
    def test_every_registry_procedure_is_summarised(self):
        for name, program, cat in all_procedures():
            fp = laid_out(program, cat)
            wcet = analyze_wcet(program)
            assert fp.kind_class == CLASS_HOME, (name, fp.format())
            assert fp.accesses, name
            assert wcet.total_cycles > 0 and wcet.static_mlp >= 1, name

    def test_classes_match_the_checked_in_gate_baseline(self):
        baseline_path = Path(__file__).resolve().parents[1] \
            / "ANALYSIS_gate.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        classes = {name: laid_out(p, c).kind_class
                   for name, p, c in all_procedures()}
        assert classes == baseline["classes"]


# ---------------------------------------------------------------------------
# JSON documents: report --json, lint --json, gate (satellite)
# ---------------------------------------------------------------------------

class TestReportJson:
    def test_report_json_document(self):
        program, cat = resolve("tpcc_payment")
        doc = report_json(program, schemas=cat, n_workers=4)
        assert doc["program"] == "tpcc_payment"
        assert doc["footprint"]["class"] == CLASS_HOME
        assert doc["wcet"]["wcet_cycles"] > 0
        assert doc["commit_protocol_proven"] is True
        assert doc["verifier"] == []
        json.dumps(doc)                            # fully serialisable

    def test_cli_report_json(self, capsys):
        from repro.analysis.__main__ import main
        assert main(["report", "ycsb_read_2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"] == "ycsb_read_2"
        assert doc["footprint"]["class"] == CLASS_HOME

    def test_lint_findings_json(self):
        findings = lint_source("import time\nt = time.time()\n", "m.py")
        doc = findings_json(findings)
        assert doc["tool"] == "repro.analysis.lint"
        f = doc["findings"][0]
        assert f["rule"] == "wall-clock" and f["severity"] == "error"
        assert f["path"] == "m.py" and f["line"] == 2
        json.dumps(doc)

    def test_gate_runs_clean_against_the_baseline(self, tmp_path, capsys):
        from repro.analysis.__main__ import main
        baseline = Path(__file__).resolve().parents[1] / "ANALYSIS_gate.json"
        out = tmp_path / "analysis-report.json"
        assert main(["gate", "--baseline", str(baseline),
                     "--json", str(out)]) == 0
        assert "procedures clean" in capsys.readouterr().out
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert set(doc) == {"procedures"}
        assert len(doc["procedures"]) == len(all_procedures())

    def test_gate_fails_on_class_regression(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.analysis import registry
        from repro.analysis.__main__ import main
        # a fabricated baseline that claims every procedure used to be
        # unbounded is fine (improvement), but the reverse must fail
        names = [name for name, _, _ in all_procedures()]
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(
            {"classes": {name: CLASS_UNBOUNDED for name in names}}),
            encoding="utf-8")
        assert main(["gate", "--baseline", str(loose)]) == 0
        capsys.readouterr()
        # a procedure the baseline lists as home-anchored now pins a
        # constant key: its class regressed
        real = registry.all_procedures
        b = ProcedureBuilder("pinned_probe")
        const_writer(7)(b)
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        pinned = finalized(b)
        monkeypatch.setattr(registry, "all_procedures", lambda: real() + [
            ("pinned_probe", pinned, catalog())])
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(
            {"classes": {name: CLASS_HOME
                         for name in names + ["pinned_probe"]}}),
            encoding="utf-8")
        assert main(["gate", "--baseline", str(strict)]) == 1
        out = capsys.readouterr().out
        assert ("pinned_probe: footprint class regressed "
                f"{CLASS_HOME} -> {CLASS_PINNED}") in out


class TestAnalyzeRunsEachPassOnce:
    def test_one_protocol_pass_and_two_liveness_solves(self, monkeypatch):
        import importlib

        liveness = importlib.import_module("repro.analysis.liveness")
        protocol = importlib.import_module("repro.analysis.protocol")
        calls = []
        real_solve = liveness._liveness
        real_check = protocol.check_commit_protocol

        def solve(*args):
            calls.append("liveness")
            return real_solve(*args)

        def check(*args, **kwargs):
            calls.append("protocol")
            return real_check(*args, **kwargs)

        monkeypatch.setattr(liveness, "_liveness", solve)
        monkeypatch.setattr(protocol, "check_commit_protocol", check)
        program, cat = resolve("tpcc_neworder_15")
        result = analyze(program, cat, 4)
        assert sorted(calls) == ["liveness", "liveness", "protocol"]
        # the report shows the very results the verifier's proofs used
        assert result.protocol is result.verify.protocol
        assert result.gp is result.verify.gp
        assert result.cp is result.verify.cp

    def test_given_liveness_is_used_as_is(self):
        program, _cat = resolve("tpcc_neworder_15")
        graph = program_flow(program)
        gp = live_gp(program, graph)
        assert dead_gp_writes(program, graph, gp) == dead_gp_writes(
            program, graph)
        # an empty liveness makes every pure register write dead
        nothing = gp.__class__(graph, [frozenset()] * len(graph),
                               [frozenset()] * len(graph))
        assert len(dead_gp_writes(program, graph, nothing)) > len(
            dead_gp_writes(program, graph))
