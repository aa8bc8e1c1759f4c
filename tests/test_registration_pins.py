"""What procedure registration derives, pinned procedure by procedure.

``Catalogue.register`` runs the flow graph, the verifier and the
footprint pass once per procedure and keeps their verdicts on the
:class:`~repro.softcore.catalogue.ProcedureEntry`: the batch former's
key sources, the routers' footprint, the tolerated CPs, the tables
used and the register budget.  Each literal below is a digest of one
procedure's entry; of the verifier's findings, without a schema catalog
(as registration runs it) and with one (as the analysis gate runs it);
and of the dataflow results those findings are drawn from (GP and CP
liveness, must and may pending CPs, reaching definitions and the
commit-protocol report, node by node), for

* every procedure of the analysis registry;
* every procedure TPC-C and YCSB install (YCSB on a hash and on an
  ordered index, so the range procedure is in); and
* ``DEFECTS``, small programs that between them raise every finding
  code and join differing key origins, since the shipped procedures
  raise none.

A change to the analyses that moves any access, key source, anchor,
finding or dataflow fact, or the order of any of them, shows up here.
To re-derive a pin, ``python tests/test_registration_pins.py`` prints
the digests of the current tree.
"""

import hashlib

import pytest

from repro.analysis import pending_cps, program_flow, reaching_definitions
from repro.analysis.registry import all_procedures
from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, Instruction, Opcode, ProcedureBuilder
from repro.isa.verify import verify_program
from repro.mem.schema import IndexKind, TableSchema
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload


def _bound(bound):
    if bound is None:
        return None
    return (bound.kind, bound.const, tuple(sorted(bound.cells)))


def _entry_text(entry) -> str:
    fp = entry.footprint
    accesses = [(repr(a.node), a.opcode.value, a.table, a.mode, a.kind,
                 _bound(a.key), _bound(a.hi), a.count, a.partition)
                for a in fp.accesses]
    return repr((fp.program_name, fp.static_mlp, accesses,
                 entry.key_reads, entry.key_writes,
                 sorted(entry.tolerant_cps), sorted(entry.tables_used),
                 entry.gp_needed, entry.cp_needed))


def _findings_text(report) -> str:
    return repr([(f.severity, f.code, f.message,
                  None if f.section is None else f.section.value,
                  f.index, f.detail) for f in report.findings])


def _sets(states) -> list:
    return [tuple(sorted(state)) for state in states]


def _dataflow_text(program, report) -> str:
    graph = program_flow(program)
    pending = pending_cps(program, graph)
    protocol = report.protocol
    return repr((
        _sets(report.gp.live_in), _sets(report.gp.live_out),
        _sets(report.cp.live_in), _sets(report.cp.live_out),
        _sets(pending.must_in), _sets(pending.may_in),
        _sets(reaching_definitions(program, graph).reach_in),
        [repr(node) for node in protocol.unwritten_rets],
        [(repr(node), sorted(cps)) for node, cps in protocol.unready_rets],
        [repr(node) for node in protocol.redispatches],
        [(repr(w.node), sorted(o.value for o in w.intent_opcodes),
          sorted(w.untracked_defs))
         for w in protocol.unprotected_writes + protocol.untracked_writes]))


def _digest(entry, schemas, n_workers) -> str:
    program = entry.program
    report = verify_program(program)
    text = "\n".join((
        _entry_text(entry),
        _findings_text(report),
        _findings_text(verify_program(program, schemas=schemas,
                                      n_workers=n_workers)),
        _dataflow_text(program, report)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _defects():
    """``name -> program``: every finding code (but register-pressure,
    which no register number reaches), and key origins that differ
    across a join."""
    out = {}
    b = ProcedureBuilder("hangs")
    b.cmp(Gp(0), 0)
    b.be("skip")
    b.search(cp=0, table=0, key=b.at(0))
    b.search(cp=0, table=1, key=b.at(1))      # redispatch, pending c0
    b.label("skip")
    b.ret(1, 0)                                # unready on the taken branch
    b.ret(2, 0)                                # collected twice
    b.ret(3, 5)                                # c5: never dispatched
    b.program.logic.append(Instruction(Opcode.BNE, target=99))
    b.commit()                                 # COMMIT in logic
    b.commit_handler()
    b.nop()                                    # no COMMIT reachable
    b.abort_handler()
    b.nop()                                    # no ABORT reachable
    out["hangs"] = b
    b = ProcedureBuilder("writes")
    b.mov(3, 42)                               # dead
    b.search(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.wrfield(0, 1, 99)                        # no write intent
    b.mov(4, 12345678)
    b.wrfield(4, 0, 1)                         # untracked base
    b.search(cp=1, table=9, key=b.at(1))       # unknown table, uncollected
    b.scan(cp=2, table=0, key=b.at(2), count=0, out=b.at(4))
    b.commit_handler()
    b.ret(5, 2)
    b.insert(cp=3, table=0, key=b.at(3))       # DB outside logic
    b.ret(6, 3)
    b.commit()
    out["writes"] = b
    b = ProcedureBuilder("routes")
    b.load(1, b.at(0))
    b.cmp(Gp(1), 3)
    b.be("pinned")
    b.add(2, Gp(1), 4)                         # anchored to @0
    b.jmp("join")
    b.label("pinned")
    b.mov(2, 17)                               # a constant
    b.label("join")
    b.search(cp=0, table=0, key=Gp(2))         # origins joined here
    b.ret(3, 0)
    b.load(4, b.fld(3, 1))                     # a field: tainted
    b.search(cp=1, table=1, key=Gp(4))
    b.ret(5, 1)
    b.mov(6, 9)
    b.search(cp=2, table=0, key=Gp(6))         # pinned
    b.ret(7, 2)
    b.search(cp=5, table=0, key=Gp(21))        # no anchor at all
    b.ret(10, 5)
    b.range_scan(cp=3, table=0, lo=b.at(1), hi=Gp(5), count=4, out=b.at(8))
    b.ret(8, 3)
    b.range_scan(cp=3, table=0, lo=b.at(1), hi=Gp(20), count=4, out=b.at(8))
    b.ret(8, 3)
    b.load(11, b.at(2))
    b.cmp(Gp(11), 0)
    b.be("other")
    b.mov(12, 17)
    b.load(13, b.at(0))
    b.jmp("merged")
    b.label("other")
    b.mov(12, 23)
    b.load(13, b.at(1))
    b.label("merged")
    b.search(cp=6, table=0, key=Gp(12))        # two constants: opaque
    b.ret(14, 6)
    b.search(cp=7, table=0, key=Gp(13))        # two cells: both anchor
    b.ret(15, 7)
    b.ret(8, 3)
    b.label("loop")
    b.sub(1, Gp(1), 1)
    b.update(cp=4, table=1, key=Gp(1))
    b.retn(9, 4)
    b.cmp(Gp(1), 0)
    b.bne("loop")
    b.commit_handler()
    b.commit()
    out["routes"] = b
    return {name: b.build() for name, b in out.items()}


def _defect_digests():
    for name, program in _defects().items():
        db = BionicDB(BionicConfig(n_workers=4))
        db.define_table(TableSchema(0, "t", hash_buckets=64,
                                    partition_fn=lambda k, n: k % n))
        db.define_table(TableSchema(1, "r", hash_buckets=64, replicated=True))
        db.register_procedure(0, program, verify=False)
        yield f"defect/{name}", _digest(db.catalogue.lookup(0), db.schemas, 4)


def _registry():
    for name, program, catalog in all_procedures():
        db = BionicDB(BionicConfig(n_workers=4))
        for schema in catalog:
            db.define_table(schema)
        db.register_procedure(0, program, verify=False)
        yield name, _digest(db.catalogue.lookup(0), db.schemas, 4)


def _installed(label, install):
    db = BionicDB(BionicConfig(n_workers=4))
    install(db)
    for proc_id in sorted(db.catalogue._procs):
        yield (f"{label}/{proc_id}",
               _digest(db.catalogue.lookup(proc_id), db.schemas, 4))


def observe():
    """``name -> digest`` for every pinned procedure of this tree."""
    out = dict(_registry())
    out.update(_defect_digests())
    out.update(_installed("tpcc", lambda db: TpccWorkload(
        TpccConfig(n_partitions=4)).install(db, load_data=False)))
    out.update(_installed("ycsb_hash", lambda db: YcsbWorkload(
        YcsbConfig(n_partitions=4)).install(db, procedures=(1, 4, 16),
                                            load_data=False)))
    out.update(_installed("ycsb_ordered", lambda db: YcsbWorkload(
        YcsbConfig(n_partitions=4, index_kind=IndexKind.SKIPLIST)).install(
            db, procedures=(2,), load_data=False)))
    return out


PINNED = {
    'tpcc_delivery': 'a80f02d05fb7fb54',
    'tpcc_orderstatus': '6996c55209a4d7b5',
    'tpcc_payment': '4a31d518ceb1ceb7',
    'tpcc_stocklevel': '52b7209f442d8f04',
    'tpcc_neworder_5': '5787424cea67ffce',
    'tpcc_neworder_10': '9c44977057dba9ff',
    'tpcc_neworder_15': '21035e1f8413d843',
    'ycsb_read_4': '33cba3c7f0d53773',
    'ycsb_rmw_4': 'b4c4b32d913fd40a',
    'ycsb_scan_16': '9980a74c49e6d76d',
    'ycsb_range_16': '89f8a95ea4c2052f',
    'ycsb_mix_3r1u': '66598717cd544e7e',
    'ycsb_mix_2r2u': '22183067e43ae67c',
    'defect/hangs': '81bb1494f2f862a7',
    'defect/writes': '1486d298fc7e98f5',
    'defect/routes': '96057e60384fbbab',
    'tpcc/10': '4a31d518ceb1ceb7',
    'tpcc/25': '5787424cea67ffce',
    'tpcc/26': 'b2d4e82f8e42b60d',
    'tpcc/27': '0d7899df00e78869',
    'tpcc/28': '921162200857fc7c',
    'tpcc/29': '25a560418bdd9742',
    'tpcc/30': '9c44977057dba9ff',
    'tpcc/31': '9bea522894fba05f',
    'tpcc/32': '9b72a51f9afd8de5',
    'tpcc/33': '56d876c412f2434e',
    'tpcc/34': 'b28d17def49cbe7a',
    'tpcc/35': '21035e1f8413d843',
    'tpcc/40': '52b7209f442d8f04',
    'tpcc/41': '6996c55209a4d7b5',
    'tpcc/42': 'a80f02d05fb7fb54',
    'ycsb_hash/101': '7ab3b124a6887e7d',
    'ycsb_hash/104': '33cba3c7f0d53773',
    'ycsb_hash/116': '4454581bfe9e664b',
    'ycsb_hash/200': '7fc20802c3fc2b72',
    'ycsb_hash/301': '6bb16a4c395a566e',
    'ycsb_hash/304': 'b4c4b32d913fd40a',
    'ycsb_hash/316': '9150a8cadcf8528b',
    'ycsb_ordered/102': '6d90fe7e94e9d4a6',
    'ycsb_ordered/200': '7fc20802c3fc2b72',
    'ycsb_ordered/201': '07189a851a9f355e',
    'ycsb_ordered/302': 'e6c8339522877785',
}


@pytest.fixture(scope="module")
def observed():
    return observe()


def test_every_procedure_is_pinned(observed):
    assert sorted(observed) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_registration_outputs_are_pinned(observed, name):
    assert observed[name] == PINNED[name]


if __name__ == "__main__":
    for name, digest in observe().items():
        print(f"    {name!r}: {digest!r},")
