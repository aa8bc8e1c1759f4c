"""Cold rows: every index loader lays a batch out as columns and the
heap builds a row's record — a hash or B+ tree ``TupleRecord``, a
skiplist ``Tower`` — the first time its cell is read.

Whatever touches a bulk-loaded row first — a pipeline stage, a host
probe, a checkpoint — must see the record the eager per-row loader
would have stored.  (The cell-for-cell image properties
are ``test_cold_hash_load_image_equals_per_row_load`` and
``test_cold_ordered_load_image_equals_per_row_load`` in
``test_properties.py``.)
"""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.host import RecoveryManager, take_checkpoint
from repro.index.bptree.pipeline import BPTreePipeline
from repro.index.common import DbRequest
from repro.index.hash.pipeline import HashIndexPipeline
from repro.index.skiplist.pipeline import SkiplistPipeline
from repro.isa import Gp, Opcode, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus
from repro.mem.records import Tower, TupleRecord
from repro.sim.memory import ColdRows
from repro.txn import ResultCode

from conftest import SimEnv, collect_results, heap_image


def make_pipeline(env, n_buckets=64):
    return HashIndexPipeline(env.engine, env.clock, env.dram, "hash0",
                             n_buckets=n_buckets, stats=env.stats)


def counter(env_or_db, name):
    return env_or_db.stats.counter(name).value


def run_op(env, pipe, op, key, ts=5, **request):
    req = DbRequest(op=op, table_id=0, ts=ts, txn_id=1, key_value=key,
                    **request)
    results = collect_results([req])
    pipe.submit(req)
    env.run()
    (_req, result), = results
    return result


# -- what was offered is what is read back ----------------------------------

def test_a_shared_list_mutated_after_the_load_reads_back_as_offered(env):
    pipe = make_pipeline(env)
    shared = ["offered", 1]
    pipe.bulk_load_many(range(10), [shared] * 10)
    shared[0] = "mutated"
    shared.append("grown")
    for key in range(10):
        assert pipe.lookup_direct(key).fields == ["offered", 1]
    # and each row got its own list, as from the eager loader
    pipe.lookup_direct(3).fields[0] = "mine"
    assert pipe.lookup_direct(4).fields == ["offered", 1]


def test_a_generator_reusing_one_buffer_gives_each_row_its_own_copy():
    # what YcsbWorkload.install did before it offered a tuple
    db = BionicDB(BionicConfig(n_workers=2))
    db.define_table(TableSchema(0, "kv", hash_buckets=32))
    buffer = ["payload", 0]
    assert db.load_many((0, key, buffer) for key in range(30)) == 30
    buffer[0] = "reused for something else"
    db.lookup(0, 11).fields[1] = 11
    assert db.lookup(0, 11).fields == ["payload", 11]
    assert all(db.lookup(0, key).fields == ["payload", 0]
               for key in range(30) if key != 11)


def test_one_offered_tuple_is_stored_once_and_copied_per_record(env):
    # layout pin: YCSB offers one payload tuple for every row
    pipe = make_pipeline(env)
    payload = ("v",)
    pipe.bulk_load_many(range(10), [payload] * 10)
    (cold,) = {id(cell): cell for cell in env.heap._cells
               if isinstance(cell, ColdRows)}.values()
    assert all(snapshot is payload for snapshot in cold.fields)
    first, second = pipe.lookup_direct(1), pipe.lookup_direct(2)
    assert first.fields == second.fields == ["v"]
    assert first.fields is not second.fields


def test_key_column_falls_back_to_a_list_mid_batch(env):
    pipe = make_pipeline(env)
    keys = [1, 2, 2**63 - 1, -7, 3, "s", (4, "t"), 2**63, 5]
    pipe.bulk_load_many(keys, [[repr(key)] for key in keys])
    for key in keys:
        record = pipe.lookup_direct(key)
        assert record.key == key and type(record.key) is type(key)
        assert record.fields == [repr(key)]


# -- first touch, whoever touches first -------------------------------------

def test_first_read_builds_the_record_and_keeps_it(env):
    pipe = make_pipeline(env)
    pipe.bulk_load_many(range(5), [[key] for key in range(5)], ts=9)
    addr = env.heap.load(pipe.bucket_addr_of(3))
    record = env.heap.load(addr)
    assert record == TupleRecord(3, [3], addr, record.next_addr, 9, 9)
    assert not record.dirty and not record.tombstone
    assert env.heap.load(addr) is record
    assert env.dram.direct_read(addr) is record
    assert counter(env, "heap.rows_inflated") == 1


def test_store_over_a_never_read_cell_replaces_it(env):
    pipe = make_pipeline(env)
    pipe.bulk_load_many(range(5), [[key] for key in range(5)])
    addr = env.heap.load(pipe.bucket_addr_of(2))
    replacement = TupleRecord(2, ["new"], addr)
    env.heap.store(addr, replacement)
    assert env.heap.load(addr) is replacement
    assert counter(env, "heap.rows_inflated") == 0
    assert pipe.lookup_direct(4).fields == [4]


def test_host_probes_walk_cold_chains(env):
    pipe = make_pipeline(env, n_buckets=2)
    pipe.bulk_load_many(range(20), [[f"v{key}"] for key in range(20)])
    chains = {pipe.bucket_addr_of(key): pipe.chain_length(key)
              for key in range(20)}
    assert len(chains) == 2 and sum(chains.values()) == 20
    assert sorted(pipe.checkpoint_rows()) == sorted(
        (key, [f"v{key}"], 0) for key in range(20))
    assert all(pipe.lookup_direct(key).fields == [f"v{key}"]
               for key in range(20))
    assert pipe.lookup_direct(99) is None


def test_heap_items_hands_out_records_never_cold_cells(env):
    pipe = make_pipeline(env)
    pipe.bulk_load_many(range(8), [[key] for key in range(8)])
    cells = [cell for _addr, cell in env.heap.items()]
    assert sum(isinstance(cell, TupleRecord) for cell in cells) == 8
    assert not any(isinstance(cell, ColdRows) for cell in cells)


@pytest.mark.parametrize("op", [Opcode.UPDATE, Opcode.REMOVE])
def test_write_ops_through_the_pipeline_on_a_never_read_row(env, op):
    pipe = make_pipeline(env, n_buckets=4)
    pipe.bulk_load_many(range(12), [[f"v{key}"] for key in range(12)])
    result = run_op(env, pipe, op, 7)
    assert result.code is ResultCode.OK
    record = env.heap.load(result.tuple_addr)
    assert record.key == 7 and record.fields == ["v7"] and record.dirty
    assert record.tombstone is (op is Opcode.REMOVE)
    # a second writer meets the dirty bit on the record in the cell
    assert run_op(env, pipe, op, 7, ts=6).code is ResultCode.CC_REJECT
    assert run_op(env, pipe, Opcode.SEARCH, 3, ts=6).value == "v3"


def test_wrfield_then_abort_restores_a_never_read_row():
    db = BionicDB(BionicConfig(n_workers=1))
    db.define_table(TableSchema(0, "kv", hash_buckets=8))
    b = ProcedureBuilder("upd-then-fail")
    b.update(cp=0, table=0, key=b.at(0))
    b.search(cp=1, table=0, key=b.at(2))   # missing key -> abort
    b.commit_handler()
    b.ret(0, 0)
    b.load(1, b.at(1))
    b.wrfield(0, 0, Gp(1))
    b.ret(2, 1)
    b.commit()
    db.register_procedure(4, b.build())
    db.load_many((0, key, ["keep-me", key]) for key in range(40))
    block = db.new_block(4, [7, "clobbered", 999], worker=0)
    db.submit(block)
    db.run()
    assert block.header.status is TxnStatus.ABORTED
    record = db.lookup(0, 7)
    assert record.fields == ["keep-me", 7]
    assert not record.dirty


def test_checkpoint_and_recovery_of_a_cold_database():
    def build(per_row):
        db = BionicDB(BionicConfig(n_workers=2))
        db.define_table(TableSchema(0, "kv", hash_buckets=16))
        rows = [(0, key, [f"v{key}", key]) for key in range(100)]
        if per_row:
            for row in rows:
                db.load(*row)
        else:
            db.load_many(rows)
        return db

    cold, eager = build(per_row=False), build(per_row=True)
    checkpoint = take_checkpoint(cold)
    assert checkpoint.rows == take_checkpoint(eager).rows
    assert heap_image(cold.heap) == heap_image(eager.heap)
    recovered = BionicDB(BionicConfig(n_workers=2))
    recovered.define_table(TableSchema(0, "kv", hash_buckets=16))
    assert RecoveryManager(recovered).restore_checkpoint(checkpoint) == 100
    assert take_checkpoint(recovered).rows.keys() == checkpoint.rows.keys()
    for key in range(100):
        assert recovered.lookup(0, key).fields == [f"v{key}", key]


# -- observability ------------------------------------------------------------

def test_a_read_only_burst_inflates_exactly_the_rows_it_visits(env):
    pipe = make_pipeline(env, n_buckets=8)
    keys = list(range(200))
    pipe.bulk_load_many(keys, [[key] for key in keys])
    assert counter(env, "heap.rows_cold") == 200
    assert counter(env, "heap.rows_inflated") == 0
    # a chain runs newest first: reading a key visits every later-
    # loaded key of its bucket, then the key itself
    chains = {}
    for key in keys:
        chains.setdefault(pipe.bucket_addr_of(key), []).insert(0, key)
    wanted = [5, 17, 17, 60, 123, 5]
    visited = set()
    for key in wanted:
        chain = chains[pipe.bucket_addr_of(key)]
        visited.update(chain[:chain.index(key) + 1])
    assert len(visited) > len(set(wanted))      # chain neighbours count
    requests = [DbRequest(op=Opcode.SEARCH, table_id=0, ts=3, txn_id=i,
                          key_value=key) for i, key in enumerate(wanted)]
    results = collect_results(requests)
    for request in requests:
        pipe.submit(request)
    env.run()
    assert all(result.code is ResultCode.OK for _req, result in results)
    assert counter(env, "heap.rows_inflated") == len(visited)
    assert counter(env, "heap.rows_cold") == 200


def test_database_counters_cover_every_partition():
    db = BionicDB(BionicConfig(n_workers=2))
    db.define_table(TableSchema(0, "kv", hash_buckets=64))
    db.define_table(TableSchema(1, "rep", hash_buckets=64, replicated=True))
    db.load_many([(0, key, [key]) for key in range(50)])
    db.load_many([(1, key, [key]) for key in range(5)])   # row by row: hot
    db.load(0, 1000, ["hot"])
    assert db.stats.snapshot()["heap.rows_cold"] == 50
    assert db.lookup(0, 7).fields == [7]
    assert db.stats.snapshot()["heap.rows_inflated"] >= 1


# -- a batch that raises midway -----------------------------------------------

@pytest.mark.parametrize("bad_fields", [None, (1 // 0 for _ in "x")],
                         ids=["fields-not-iterable", "fields-raise-when-read"])
def test_a_batch_that_raises_midway_counts_what_it_installed(env, bad_fields):
    pipe = make_pipeline(env, n_buckets=2)
    pipe.bulk_load_many(range(100, 104), [[key] for key in range(100, 104)])
    with pytest.raises((TypeError, ZeroDivisionError)):
        pipe.bulk_load_many(range(5), [["a"], ["b"], ["c"], bad_fields, ["e"]])
    assert pipe.tuple_count == 4 + 3
    assert counter(env, "heap.rows_cold") == 4 + 3
    # the rows before the bad one are in, the rows loaded earlier are
    # still reachable through the same buckets, the rest never arrived
    assert [pipe.lookup_direct(key).fields for key in (0, 1, 2)] == [
        ["a"], ["b"], ["c"]]
    assert all(pipe.lookup_direct(key).fields == [key]
               for key in range(100, 104))
    assert pipe.lookup_direct(4) is None
    assert sum(1 for _row in pipe.checkpoint_rows()) == 7


# -- ordered indexes: cold towers and cold B+ tree records ----------------------

ORDERED = {"skiplist": SkiplistPipeline, "bptree": BPTreePipeline}
ordered = pytest.mark.parametrize("pipeline", ORDERED.values(), ids=ORDERED)


def make_ordered(env, pipeline, **kw):
    return pipeline(env.engine, env.clock, env.dram, "o0", stats=env.stats,
                    **kw)


def cold_cells(env):
    return {addr for addr, cell in enumerate(env.heap._cells)
            if cell.__class__ is ColdRows}


def installed(pipe):
    return (pipe.tower_count if isinstance(pipe, SkiplistPipeline)
            else pipe.tuple_count)


@ordered
def test_ordered_rows_read_back_as_offered(env, pipeline):
    pipe = make_ordered(env, pipeline)
    shared = ["offered", 1]
    pipe.bulk_load_many(range(10), [shared] * 10, ts=4)
    shared[0] = "mutated"
    assert counter(env, "heap.rows_cold") == 10
    assert counter(env, "heap.rows_inflated") == 0
    record = pipe.lookup_direct(3)
    assert type(record) is (Tower if pipeline is SkiplistPipeline
                            else TupleRecord)
    assert (record.key, record.fields, record.read_ts, record.write_ts,
            record.dirty, record.tombstone) == (3, ["offered", 1], 4, 4,
                                                False, False)
    assert env.heap.load(record.addr) is record
    record.fields[0] = "mine"
    assert pipe.lookup_direct(4).fields == ["offered", 1]
    pipe.invariant_check()


#: rows a four-request point burst builds: a B+ tree builds the records
#: of the keys it finds (its nodes are never cold), a skiplist every
#: tower its searches step onto
BURST_INFLATES = {SkiplistPipeline: 21, BPTreePipeline: 3}


@ordered
def test_a_point_burst_inflates_exactly_the_rows_it_visits(
        env, pipeline, monkeypatch):
    pipe = make_ordered(env, pipeline)
    keys = range(0, 400, 2)
    pipe.bulk_load_many(keys, [(key,) for key in keys])
    cold = cold_cells(env)
    assert len(cold) == counter(env, "heap.rows_cold") == 200
    visited = set()
    load = env.heap.load

    def watched(addr):
        visited.add(addr)
        return load(addr)

    monkeypatch.setattr(env.heap, "load", watched)
    wanted = [10, 251, 250, 398]        # found, missing, found, last
    requests = [DbRequest(op=Opcode.SEARCH, table_id=0, ts=3, txn_id=i,
                          key_value=key) for i, key in enumerate(wanted)]
    results = collect_results(requests)
    for request in requests:
        pipe.submit(request)
    env.run()
    assert {req.key_value: (result.code, result.value)
            for req, result in results} == {
        10: (ResultCode.OK, 10), 251: (ResultCode.NOT_FOUND, None),
        250: (ResultCode.OK, 250), 398: (ResultCode.OK, 398)}
    assert counter(env, "heap.rows_inflated") == len(visited & cold)
    assert counter(env, "heap.rows_inflated") == BURST_INFLATES[pipeline]
    # the rows it built are the ones left hot; the rest are still cold
    assert cold_cells(env) == cold - visited


@pytest.mark.parametrize("op", [Opcode.SCAN, Opcode.RANGE_SCAN])
@ordered
def test_scans_over_never_read_rows(env, pipeline, op):
    pipe = make_ordered(env, pipeline)
    keys = range(0, 300, 3)
    pipe.bulk_load_many(keys, [(f"v{key}", key) for key in keys])
    out = env.heap.alloc(20)
    hi = 90 if op is Opcode.RANGE_SCAN else None
    result = run_op(env, pipe, op, 31, scan_count=20, scan_out_addr=out,
                    scan_limit=20, scan_hi=hi)
    expected = [key for key in keys if key >= 31 and (hi is None or key <= hi)]
    expected = expected[:20]
    assert result.code is ResultCode.OK and result.value == len(expected)
    assert [env.heap.load(out + i) for i in range(len(expected))] == [
        (key, [f"v{key}", key]) for key in expected]
    assert all(pipe.lookup_direct(key).read_ts == 5 for key in expected)
    assert pipe.lookup_direct(expected[-1] + 3).read_ts == 0
    pipe.invariant_check()


@pytest.mark.parametrize("op", [Opcode.UPDATE, Opcode.REMOVE, Opcode.INSERT])
@ordered
def test_writes_next_to_never_read_rows(env, pipeline, op):
    # fan-out 4: every leaf is full, so the B+ tree INSERT purges and
    # splits a leaf of cold records
    kw = {"fanout": 4} if pipeline is BPTreePipeline else {}
    pipe = make_ordered(env, pipeline, **kw)
    keys = range(0, 200, 2)
    pipe.bulk_load_many(keys, [[f"v{key}"] for key in keys])
    key = 101 if op is Opcode.INSERT else 100
    result = run_op(env, pipe, op, key,
                    insert_payload=["new"] if op is Opcode.INSERT else None)
    assert result.code is ResultCode.OK
    record = env.heap.load(result.tuple_addr)
    assert record.key == key and record.dirty
    assert record.tombstone is (op is Opcode.REMOVE)
    assert record.fields == (["new"] if op is Opcode.INSERT else ["v100"])
    # a second writer meets the dirty row
    again = run_op(env, pipe, op, key, ts=6,
                   insert_payload=["late"] if op is Opcode.INSERT else None)
    assert again.code is (ResultCode.DUPLICATE if op is Opcode.INSERT
                          else ResultCode.CC_REJECT)
    pipe.invariant_check()
    live = sorted({*keys, 101} if op is Opcode.INSERT
                  else set(keys) - {100} if op is Opcode.REMOVE else keys)
    assert [k for k, _fields in pipe.items_direct()] == live
    assert all(pipe.lookup_direct(k).fields == [f"v{k}"]
               for k in live if k != 101)


@pytest.mark.parametrize("index_kind", [IndexKind.SKIPLIST, IndexKind.BPTREE],
                         ids=["skiplist", "bptree"])
def test_checkpoint_and_restore_over_never_read_rows(index_kind):
    keys = range(100)

    def build(loaded=True):
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "t", index_kind))
        if loaded:
            db.load_many(columns=[(0, keys,
                                   [(f"v{key}", key) for key in keys])])
        return db, db.workers[0].pipeline_for(0)

    # each reader below is the first to touch its database's rows
    expected = [(key, [f"v{key}", key], 0) for key in keys]
    _db, pipe = build()
    assert list(pipe.checkpoint_rows(0)) == expected
    db, _pipe = build()
    checkpoint = take_checkpoint(db)
    restored, _pipe = build(loaded=False)
    assert RecoveryManager(restored).restore_checkpoint(checkpoint) == 100
    assert restored.stats.snapshot()["heap.rows_cold"] == 100
    assert take_checkpoint(restored).rows == checkpoint.rows
    assert heap_image(restored.heap)[1] == heap_image(db.heap)[1]
    # committed tombstones among cold rows: a checkpoint skips just those
    _db, pipe = build()
    for key in (10, 11, 50):
        pipe.lookup_direct(key).tombstone = True
    assert [k for k, _f, _ts in pipe.checkpoint_rows(0)] == [
        key for key in keys if key not in (10, 11, 50)]
    pipe.invariant_check()


@pytest.mark.parametrize("duplicate", ["of-this-batch", "of-an-earlier-batch"])
@ordered
def test_a_duplicate_mid_batch_stops_where_per_row_load_stops(pipeline,
                                                              duplicate):
    earlier = range(1000, 1010)
    keys = [*range(0, 60, 2), 30 if duplicate == "of-this-batch" else 1004,
            *range(60, 80, 2)]
    images = []
    for per_row in (False, True):
        env = SimEnv()
        pipe = make_ordered(env, pipeline)
        pipe.bulk_load_many(earlier, [[key] for key in earlier])
        with pytest.raises(ValueError,
                           match=f"duplicate key in bulk load: {keys[30]}"):
            if per_row:
                for key in keys:
                    pipe.bulk_load(key, [key])
            else:
                pipe.bulk_load_many(keys, [[key] for key in keys])
        # the 30 rows before the duplicate are in, counted and readable
        assert installed(pipe) == pipe.load_rows.value == 10 + 30
        assert counter(env, "heap.rows_cold") == 10 + 30
        assert [k for k, _f in pipe.items_direct()] == [*range(0, 60, 2),
                                                         *earlier]
        images.append(heap_image(env.heap))
    assert images[0] == images[1]


@ordered
def test_an_ordered_batch_stops_at_fields_that_are_not_iterable(env, pipeline):
    pipe = make_ordered(env, pipeline)
    fields = [[key] for key in range(10)]
    fields[6] = None
    with pytest.raises(TypeError):
        pipe.bulk_load_many(range(10), fields)
    assert installed(pipe) == counter(env, "heap.rows_cold") == 6
    assert [k for k, _f in pipe.items_direct()] == list(range(6))
    pipe.bulk_load_many(range(6, 10), [[key] for key in range(6, 10)])
    assert [k for k, _f in pipe.items_direct()] == list(range(10))
    pipe.invariant_check()
