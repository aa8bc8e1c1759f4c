"""The column load path: ``BionicDB.load_many(columns=...)`` must leave
the heap image per-row ``load`` leaves, cell for cell, whatever the key
column is made of and however it is routed; what it cannot install it
must refuse before it installs anything, or stop at exactly as a
per-row loop would; and its counters must show the routing it saved.
(The older image tests of the triples form sit in
``test_compiled_tier.py`` under ``# -- bulk-load fast path``.)
"""

import random
from array import array
from math import ceil, log2

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import BionicConfig, BionicDB
from repro.errors import SubmissionError
from repro.host import RecoveryManager, take_checkpoint
from repro.index.common import DbRequest
from repro.index.hash.pipeline import HashIndexPipeline
from repro.isa import Opcode
from repro.mem.schema import IndexKind, SchemaError, TableSchema
from repro.sim.memory import ColdRows
from repro.txn import ResultCode

from conftest import SimEnv, collect_results, heap_image, per_row

KINDS = [IndexKind.HASH, IndexKind.SKIPLIST, IndexKind.BPTREE]
N_WORKERS = 4
PER_PART = 257


def ranged(key, n_partitions):
    return min(key // PER_PART, n_partitions - 1)


def make_db(index_kind=IndexKind.HASH, partition_fn=ranged,
            range_partitioned=True, row_by_row=False):
    """A four-partition database with table 0 range-partitioned the way
    YCSB's is, and a replicated hash table 1."""
    db = BionicDB(BionicConfig(n_workers=N_WORKERS))
    db.define_table(TableSchema(0, "t", index_kind, hash_buckets=64,
                                partition_fn=partition_fn,
                                range_partitioned=range_partitioned))
    db.define_table(TableSchema(1, "rep", hash_buckets=16, replicated=True))
    return per_row(db) if row_by_row else db


def counter(db, name):
    return db.stats.counter(name).value


def images(load, **db_kwargs):
    """Heap images after ``load(db)`` on the column loader and on the
    per-row loop."""
    out = []
    for row_by_row in (False, True):
        db = make_db(row_by_row=row_by_row, **db_kwargs)
        load(db)
        out.append(heap_image(db.heap))
    return out


def fields_of(keys):
    return [[f"v{key}", key] for key in keys]


# -- any key column, same image ---------------------------------------------

TOTAL = N_WORKERS * PER_PART
KEY_COLUMNS = {
    "range": range(TOTAL),
    "list": list(range(TOTAL)),
    "array": array("q", range(TOTAL)),
    "strided": range(3, TOTAL, 5),
    # not ascending: every key is routed, as for an undeclared table
    "descending": range(TOTAL - 1, -1, -1),
    "shuffled": random.Random(7).sample(range(TOTAL), TOTAL),
}


@pytest.mark.parametrize("index_kind", KINDS)
@pytest.mark.parametrize("keys", KEY_COLUMNS.values(), ids=KEY_COLUMNS)
def test_column_image_equals_per_row_load(index_kind, keys):
    column, rows = images(
        lambda db: db.load_many(columns=[(0, keys, fields_of(keys))]),
        index_kind=index_kind)
    assert column == rows


def test_one_fields_object_may_stand_for_every_row():
    shared = ("payload",)
    column, rows = images(
        lambda db: db.load_many(columns=[(0, range(TOTAL), [shared] * TOTAL)]))
    assert column == rows


ODD_KEYS = {
    "bool": [3, True, 4, False],
    "negative": [5, -1, 6],
    "beyond-int64": [1, 2**63, 2, 2**70],
    "str": ["a", "b", 7],
    "tuple": [(1, "x"), 8, (2, "y")],
}


@pytest.mark.parametrize("keys", ODD_KEYS.values(), ids=ODD_KEYS)
def test_a_key_the_int_column_cannot_hold_makes_the_batch_a_list(keys):
    def load(db):
        db.load_many(columns=[(0, range(10, 20), fields_of(range(10, 20))),
                              (0, keys, fields_of(keys))], partition=2)
    column, rows = images(load)
    assert column == rows
    db = make_db()
    load(db)
    batches = {id(cell): cell for _addr, cell in db.heap.raw_items()
               if isinstance(cell, ColdRows)}.values()
    assert [type(cold.keys) for cold in batches] == [array, list]
    for key in keys:        # True and 1 are different rows
        row = db.workers[2].hash_pipe.lookup_direct(key)
        assert row.key == key and type(row.key) is type(key)


def test_keys_that_do_not_order_are_routed_one_by_one():
    keys = [1, "a", (2, "b"), 3]
    column, rows = images(
        lambda db: db.load_many(columns=[(0, keys, fields_of(keys))]),
        partition_fn=lambda key, n: len(repr(key)) % n)
    assert column == rows


def test_explicit_partition_homes_the_whole_column():
    column, rows = images(
        lambda db: db.load_many(columns=[(0, range(50), fields_of(range(50))),
                                         (1, range(5), fields_of(range(5)))],
                                partition=3))
    assert column == rows
    db = make_db()
    db.load_many([(0, 1, ["row"])], columns=[(0, [2], [["column"]])],
                 partition=3)
    assert db.workers[3].hash_pipe.tuple_count == 2
    with pytest.raises(SubmissionError, match="partition out of range"):
        db.load_many(columns=[(0, [9], [["v"]])], partition=N_WORKERS)


def test_loads_of_every_form_interleave():
    def load(db):
        db.load(0, 1000, ["one row"])
        db.load_many((0, key, [key]) for key in range(0, 300))
        db.load_many(columns=[(1, range(4), fields_of(range(4))),
                              (0, range(300, 700), fields_of(range(300, 700)))])
        db.load(1, 9, ["replicated"])
        db.load_many([(0, 1001, ["a"]), (1, 10, ["b"]), (0, 1002, ["c"])],
                     columns=[(0, [1003], [["d"]])])
        db.load_many(columns=[(0, array("q", [800, 700, 900]),
                               [(key,) for key in (800, 700, 900)])])
    for index_kind in KINDS:
        column, rows = images(load, index_kind=index_kind)
        assert column == rows


# -- a replicated hash table: one strided cold batch per partition ------------

def replicated_db(n_workers, n_nodes=1, row_by_row=False):
    """A machine whose table 1 is a replicated hash table, beside a
    partitioned table 0 loaded between its columns."""
    db = BionicDB(BionicConfig(n_workers=n_workers), n_nodes=n_nodes)
    db.define_table(TableSchema(0, "t", hash_buckets=32))
    db.define_table(TableSchema(1, "rep", hash_buckets=16, replicated=True))
    return per_row(db) if row_by_row else db


def load_replicated_columns(db):
    db.load_many(columns=[(1, range(40), fields_of(range(40))),
                          (0, range(30), fields_of(range(30))),
                          (1, [100, 7, 55], fields_of([100, 7, 55]))])
    # a second batch, into chains the first one left
    db.load_many(columns=[(1, array("q", range(200, 260)),
                           [("shared",)] * 60)])
    db.load_many([(1, "str-key", ["x"]), (1, 3, ["newer"])])


MACHINES = {"2 workers": (2, 1), "3 workers": (3, 1), "4 workers": (4, 1),
            "2 chips x 2 workers": (2, 2)}


@pytest.mark.parametrize("n_workers, n_nodes", MACHINES.values(),
                         ids=MACHINES)
def test_replicated_batches_leave_the_per_row_image(n_workers, n_nodes):
    out = []
    for row_by_row in (False, True):
        db = replicated_db(n_workers, n_nodes, row_by_row)
        load_replicated_columns(db)
        out.append([heap_image(dram.heap) for dram in db.drams])
    assert out[0] == out[1]


@pytest.mark.parametrize("n_workers, n_nodes", MACHINES.values(),
                         ids=MACHINES)
def test_replicated_rows_are_cold_until_read(n_workers, n_nodes):
    db = replicated_db(n_workers, n_nodes)
    load_replicated_columns(db)
    replicated_rows = 40 + 3 + 60 + 2
    assert counter(db, "heap.rows_cold") == (
        30 + replicated_rows * n_workers * n_nodes)
    assert counter(db, "heap.rows_inflated") == 0
    for worker in db.workers:
        assert worker.hash_pipe.lookup_direct(3, table_id=1).fields == [
            "newer"]
        assert worker.hash_pipe.lookup_direct(201, table_id=1).fields == [
            "shared"]
    # one batch per partition and column, and nothing routed
    db = replicated_db(n_workers, n_nodes)
    db.load_many(columns=[(1, range(9), fields_of(range(9)))] * 2)
    assert counter(db, "core.load.batches") == 2 * n_workers * n_nodes
    assert counter(db, "core.load.route_calls") == 0


def point_op(pipe, db, key, ts, op=Opcode.SEARCH):
    request = DbRequest(op=op, table_id=1, ts=ts, txn_id=1, key_value=key)
    results = collect_results([request])
    pipe.submit(request)
    db.run()
    (_req, result), = results
    return result


def test_the_first_timed_read_of_a_replica_builds_no_row():
    db = replicated_db(4)
    db.load_many(columns=[(1, range(40), fields_of(range(40)))])
    # the last row loaded heads its bucket's chain: a SEARCH reads it first
    key, worker = 39, 2
    batches = list({id(cell): cell for _addr, cell in db.heap.raw_items()
                    if cell.__class__ is ColdRows}.values())
    assert [(cold.stride, len(cold)) for cold in batches] == [(4, 40)] * 4
    base = min(cold.base for cold in batches)
    pipe = db.workers[worker].hash_pipe
    result = point_op(pipe, db, key, ts=3)
    assert result.code is ResultCode.OK
    assert result.value == f"v{key}"
    assert counter(db, "heap.rows_inflated") == 0
    # the row's replica on this worker, strided among the other three,
    # and only that replica's batch holds read times
    assert result.tuple_addr == base + key * 4 + worker
    assert [cold.read_ts is not None for cold in batches] == [
        cold.base == base + worker for cold in batches]
    record = db.heap.load(result.tuple_addr)
    assert (record.key, record.fields, record.read_ts) == (
        key, [f"v{key}", key], 3)


def test_the_replicas_of_a_row_keep_separate_read_times():
    db = replicated_db(2, n_nodes=2)
    db.load_many(columns=[(1, range(40), fields_of(range(40)))])
    pipes = [worker.hash_pipe for worker in db.workers]
    assert point_op(pipes[1], db, 11, ts=9).code is ResultCode.OK
    assert point_op(pipes[2], db, 11, ts=4).code is ResultCode.OK
    assert counter(db, "heap.rows_inflated") == 0
    # an older write is held off only where a newer read was granted
    assert [point_op(pipe, db, 11, ts=6, op=Opcode.UPDATE).code
            for pipe in pipes] == [ResultCode.OK, ResultCode.CC_REJECT,
                                   ResultCode.OK, ResultCode.OK]
    assert [pipe.lookup_direct(11, table_id=1).read_ts
            for pipe in pipes] == [0, 9, 4, 0]


def test_a_replicated_fields_entry_that_is_not_iterable_stops_there():
    fields = fields_of(range(10))
    fields[6] = None
    occupied = []
    for row_by_row in (False, True):
        db = replicated_db(3, row_by_row=row_by_row)
        with pytest.raises(TypeError):
            db.load_many(columns=[(1, range(10), fields)])
        for worker in db.workers:
            assert worker.hash_pipe.tuple_count == 6
            assert worker.hash_pipe.lookup_direct(6, table_id=1) is None
        occupied.append(heap_image(db.heap)[1])
    assert occupied[0] == occupied[1]


# -- what cannot be installed -------------------------------------------------

def test_a_short_fields_column_is_refused_before_anything_is_installed():
    db = make_db()
    cells = db.heap.allocated_cells
    with pytest.raises(SubmissionError, match="differ in length"):
        db.load_many(columns=[(0, range(TOTAL), fields_of(range(TOTAL - 1)))])
    assert db.heap.allocated_cells == cells
    assert counter(db, "core.load.rows") == 0
    assert sum(w.hash_pipe.tuple_count for w in db.workers) == 0


def test_a_fields_entry_that_is_not_iterable_stops_the_column_there():
    keys = range(PER_PART, PER_PART + 40)       # one partition's run
    fields = fields_of(keys)
    fields[25] = None
    occupied = []
    for row_by_row in (False, True):
        db = make_db(row_by_row=row_by_row)
        with pytest.raises(TypeError):
            db.load_many(columns=[(0, keys, fields)])
        pipe = db.workers[1].hash_pipe
        assert pipe.tuple_count == 25
        assert counter(db, "heap.rows_cold") == (0 if row_by_row else 25)
        assert pipe.lookup_direct(keys[24]).fields == fields[24]
        assert pipe.lookup_direct(keys[25]) is None
        # the column loader had taken its run's cells when it stopped:
        # the occupied ones are the per-row loop's
        occupied.append(heap_image(db.heap)[1])
    assert occupied[0] == occupied[1]


def test_a_false_range_declaration_is_surfaced_not_obeyed():
    # an interior stretch a quarter of a run long is homed elsewhere
    stretch = range(PER_PART + 100, PER_PART + 100 + PER_PART // 4)

    def lying(key, n_partitions):
        return 3 if key in stretch else ranged(key, n_partitions)

    keys = range(TOTAL)
    db = make_db(partition_fn=lying)
    cells = db.heap.allocated_cells
    with pytest.raises(SchemaError) as raised:
        db.load_many(columns=[(0, keys, fields_of(keys))])
    message = str(raised.value)
    assert "range_partitioned" in message
    bad_key = int(message.split("key ")[1].split()[0])
    assert bad_key in stretch
    assert "partition 3" in message and "partition 1" in message
    assert db.heap.allocated_cells == cells     # nothing went in
    # without the declaration every key is routed, and routed right
    column, rows = images(
        lambda db: db.load_many(columns=[(0, keys, fields_of(keys))]),
        partition_fn=lying, range_partitioned=False)
    assert column == rows


# -- counters: the routing that was saved -------------------------------------

@pytest.mark.parametrize("per_part", [64, 257, 5000])
def test_an_ascending_range_partitioned_column_is_cut_by_bisection(per_part):
    def partition_fn(key, n_partitions):
        return min(key // per_part, n_partitions - 1)

    total = N_WORKERS * per_part
    db = make_db(partition_fn=partition_fn)
    assert db.load_many(
        columns=[(0, range(total), [("v",)] * total)]) == total
    assert counter(db, "core.load.rows") == total
    assert counter(db, "core.load.batches") == N_WORKERS
    assert 0 < counter(db, "core.load.route_calls") <= N_WORKERS * (
        ceil(log2(per_part)) + 12)
    assert [w.hash_pipe.tuple_count for w in db.workers] == (
        [per_part] * N_WORKERS)

    shuffled = random.Random(per_part).sample(range(total), total)
    db = make_db(partition_fn=partition_fn)
    db.load_many(columns=[(0, shuffled, [("v",)] * total)])
    assert counter(db, "core.load.route_calls") == total
    homes = [partition_fn(key, N_WORKERS) for key in shuffled]
    assert counter(db, "core.load.batches") == 1 + sum(
        a != b for a, b in zip(homes, homes[1:]))


def test_counters_cover_rows_and_replicated_tables():
    db = make_db(range_partitioned=False)
    db.load_many([(0, key, [key]) for key in range(PER_PART)],
                 columns=[(1, range(6), fields_of(range(6)))])
    db.load_many(columns=[(0, [TOTAL], [["homed"]])], partition=0)
    assert counter(db, "core.load.rows") == PER_PART + 6 + 1
    # a replicated table is one batch per partition and an explicit
    # partition routes nothing: one batch and PER_PART routing calls
    # for the first column, N_WORKERS for the second, one for the last
    assert counter(db, "core.load.batches") == 1 + N_WORKERS + 1
    assert counter(db, "core.load.route_calls") == PER_PART


# -- the carried hash -----------------------------------------------------------

BYTE_EDGES = [edge + delta for byte in range(1, 8)
              for edge in (1 << 8 * byte,) for delta in (-1, 0)]


@given(st.lists(st.integers(0, 2**63 - 1), max_size=60, unique=True),
       st.sampled_from([257, 4096, 65521]))
@example(BYTE_EDGES + [2**63 - 1, 0], 65521)
@example(BYTE_EDGES[::-1], 4096)
@example([edge + low for edge in (0, 1 << 8, 1 << 56) for low in range(256)],
         65521)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_carried_sdbm_buckets_equal_sdbm_hash_in_any_key_order(keys, n_buckets):
    # the column loader hashes with the upper seven key bytes carried
    # from row to row; bulk_load and lookup_direct call sdbm_hash
    fields = [(key,) for key in keys]
    outcomes = []
    for column in (True, False):
        env = SimEnv()
        pipe = HashIndexPipeline(env.engine, env.clock, env.dram, "h",
                                 n_buckets=n_buckets)
        if column:
            assert pipe.bulk_load_many(keys, fields) == len(keys)
        else:
            for key, row_fields in zip(keys, fields):
                pipe.bulk_load(key, row_fields)
        assert all(pipe.lookup_direct(key).key == key for key in keys)
        outcomes.append(heap_image(env.heap))
    assert outcomes[0] == outcomes[1]


# -- recovery restores through the same path ----------------------------------

@pytest.mark.parametrize("index_kind", KINDS)
def test_checkpoint_restore_image_equals_the_row_by_row_restore(index_kind):
    source = make_db(index_kind=index_kind)
    keys = random.Random(3).sample(range(TOTAL), 600)
    source.load_many(columns=[(0, keys, fields_of(keys)),
                              (1, range(7), fields_of(range(7)))])
    checkpoint = take_checkpoint(source)
    restored = []
    for row_by_row in (False, True):
        db = make_db(index_kind=index_kind, row_by_row=row_by_row)
        assert RecoveryManager(db).restore_checkpoint(checkpoint) == 607
        assert counter(db, "core.load.route_calls") == 0
        restored.append(heap_image(db.heap))
        # (a hash chain restores in reverse: compare each list as a set)
        assert {home: sorted(items)
                for home, items in take_checkpoint(db).rows.items()} == {
            home: sorted(items) for home, items in checkpoint.rows.items()}
    assert restored[0] == restored[1]
