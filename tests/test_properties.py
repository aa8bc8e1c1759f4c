"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.baseline import BPlusTree, SoftwareSkiplist
from repro.index.bptree.pipeline import BPTreePipeline
from repro.index.common import DbRequest, sdbm_hash
from repro.index.hash.pipeline import HashIndexPipeline
from repro.index.skiplist.pipeline import SkiplistPipeline
from repro.isa import Opcode
from repro.txn import HardwareClock, ResultCode, check_read, check_write
from repro.mem.records import TupleRecord

from conftest import SimEnv, collect_results, heap_image

keys = st.integers(min_value=-2**40, max_value=2**40)
small_key_lists = st.lists(keys, min_size=1, max_size=40, unique=True)

relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestSdbmProperties:
    @given(keys)
    @relaxed
    def test_deterministic(self, k):
        assert sdbm_hash(k) == sdbm_hash(k)

    @given(keys)
    @relaxed
    def test_in_64_bit_range(self, k):
        assert 0 <= sdbm_hash(k) < 2**64

    @given(st.tuples(keys, keys))
    @relaxed
    def test_tuple_keys_hash(self, t):
        assert isinstance(sdbm_hash(t), int)

    @given(st.text(max_size=64))
    @relaxed
    def test_string_keys_hash(self, s):
        assert isinstance(sdbm_hash(s), int)


class TestBPlusTreeProperties:
    @given(small_key_lists)
    @relaxed
    def test_matches_dict_semantics(self, ks):
        tree = BPlusTree(fanout=4)  # small fanout forces deep splits
        model = {}
        for k in ks:
            tree.insert(k, k * 2)
            model[k] = k * 2
        assert len(tree) == len(model)
        for k in ks:
            assert tree.get(k) == model[k]
        assert [k for k, _v in tree.items()] == sorted(model)

    @given(small_key_lists, st.data())
    @relaxed
    def test_scan_matches_sorted_slice(self, ks, data):
        tree = BPlusTree(fanout=4)
        for k in ks:
            tree.insert(k, k)
        start = data.draw(keys)
        count = data.draw(st.integers(min_value=1, max_value=20))
        expect = sorted(k for k in ks if k >= start)[:count]
        assert [k for k, _v in tree.scan_from(start, count)] == expect

    @given(small_key_lists, st.data())
    @relaxed
    def test_remove_then_absent(self, ks, data):
        tree = BPlusTree(fanout=4)
        for k in ks:
            tree.insert(k, k)
        victim = data.draw(st.sampled_from(ks))
        assert tree.remove(victim)
        assert victim not in tree
        assert len(tree) == len(ks) - 1


class TestSwSkiplistProperties:
    @given(small_key_lists)
    @relaxed
    def test_sorted_iteration(self, ks):
        sl = SoftwareSkiplist(seed=9)
        for k in ks:
            sl.insert(k, k)
        assert [k for k, _v in sl.items()] == sorted(ks)

    @given(small_key_lists, st.data())
    @relaxed
    def test_get_after_mixed_ops(self, ks, data):
        sl = SoftwareSkiplist(seed=9)
        model = {}
        for k in ks:
            sl.put(k, k)
            model[k] = k
        to_remove = data.draw(st.lists(st.sampled_from(ks), max_size=10,
                                       unique=True))
        for k in to_remove:
            sl.remove(k)
            model.pop(k, None)
        for k in ks:
            assert sl.get(k) == model.get(k)


class TestVisibilityProperties:
    @given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000))
    @relaxed
    def test_read_write_permission_rules(self, ts, read_ts, write_ts):
        rec = TupleRecord(key=1, fields=["x"], read_ts=read_ts,
                          write_ts=write_ts)
        read_code = check_read(rec, ts)
        assert (read_code is ResultCode.OK) == (write_ts <= ts)
        rec2 = TupleRecord(key=1, fields=["x"], read_ts=read_ts,
                           write_ts=write_ts)
        write_code = check_write(rec2, ts)
        assert (write_code is ResultCode.OK) == (read_ts <= ts and write_ts <= ts)
        if write_code is ResultCode.OK:
            assert rec2.dirty

    @given(st.lists(st.integers(1, 100), min_size=2, max_size=20))
    @relaxed
    def test_reader_timestamps_monotone(self, readers):
        rec = TupleRecord(key=1, fields=["x"])
        last = 0
        for ts in readers:
            if check_read(rec, ts) is ResultCode.OK:
                assert rec.read_ts >= max(last, ts)
                last = rec.read_ts


class TestHardwareClockProperties:
    @given(st.integers(1, 500))
    @relaxed
    def test_strictly_monotone(self, n):
        clock = HardwareClock()
        seen = [clock.next_ts() for _ in range(n)]
        assert seen == sorted(set(seen))

    @given(st.integers(1, 100), st.integers(1, 1000))
    @relaxed
    def test_reinitialize_never_goes_back(self, n, target):
        clock = HardwareClock()
        for _ in range(n):
            clock.next_ts()
        before = clock.current
        clock.reinitialize(target)
        assert clock.next_ts() > max(before, target)


class TestPipelineProperties:
    @given(st.lists(keys, min_size=1, max_size=25, unique=True))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hash_pipeline_inserts_equal_dict(self, ks):
        env = SimEnv()
        pipe = HashIndexPipeline(env.engine, env.clock, env.dram, "h",
                                 n_buckets=64)
        reqs = []
        for i, k in enumerate(ks):
            r = DbRequest(op=Opcode.INSERT, table_id=0, ts=1, txn_id=i,
                          key_value=k)
            r.insert_payload = [k]
            reqs.append(r)
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        for k in ks:
            assert pipe.lookup_direct(k).fields == [k]

    @given(st.lists(keys, min_size=1, max_size=25, unique=True))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_skiplist_pipeline_invariants_hold(self, ks):
        env = SimEnv()
        pipe = SkiplistPipeline(env.engine, env.clock, env.dram, "sl")
        reqs = []
        for i, k in enumerate(ks):
            r = DbRequest(op=Opcode.INSERT, table_id=0, ts=1, txn_id=i,
                          key_value=k)
            r.insert_payload = [k]
            reqs.append(r)
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        pipe.invariant_check()
        assert [k for k, _f in pipe.items_direct()] == sorted(ks)

    @pytest.mark.parametrize("pipeline", [SkiplistPipeline, BPTreePipeline])
    @given(st.permutations(range(48)),
           st.lists(st.integers(0, 48), max_size=6))
    @relaxed
    def test_batched_load_image_equals_per_row_load(self, pipeline, ks, cuts):
        # any key order, cut into any batches (empty ones included)
        bounds = [0, *sorted(cuts), len(ks)]
        images = []
        for batched in (True, False):
            env = SimEnv()
            pipe = pipeline(env.engine, env.clock, env.dram, "p")
            if batched:
                for lo, hi in zip(bounds, bounds[1:]):
                    pipe.bulk_load_many(ks[lo:hi], [[k] for k in ks[lo:hi]])
            else:
                for k in ks:
                    pipe.bulk_load(k, [k])
            pipe.invariant_check()
            images.append(heap_image(env.heap))
        assert images[0] == images[1]

    @pytest.mark.parametrize("pipeline", [SkiplistPipeline, BPTreePipeline])
    @given(st.permutations(range(0, 96, 2)),
           st.lists(st.tuples(st.integers(0, 48), st.booleans(),
                              st.one_of(st.none(), st.integers(0, 47))),
                    max_size=6))
    @relaxed
    def test_cold_ordered_load_image_equals_per_row_load(self, pipeline, ks,
                                                         cuts):
        # any permutation cut into chunks that go through bulk_load_many
        # or the one-row loader in any interleaving, with a pipeline
        # INSERT of an odd key (never loaded; a repeat is a duplicate)
        # before a chunk: later runs splice around hot, dirty towers and
        # leaf entries, and the INSERT draws its height between batches
        cuts = sorted(cuts, key=lambda cut: cut[0])
        bounds = [0, *(cut for cut, _batched, _insert in cuts), len(ks)]
        batched = [True, *(whole for _cut, whole, _insert in cuts)]
        inserts = [None, *(insert for _cut, _whole, insert in cuts)]
        images = []
        for cold in (True, False):
            env = SimEnv()
            pipe = pipeline(env.engine, env.clock, env.dram, "p")
            for lo, hi, whole, insert in zip(bounds, bounds[1:], batched,
                                             inserts):
                if insert is not None:
                    key = 2 * insert + 1
                    pipe.submit(DbRequest(op=Opcode.INSERT, table_id=0, ts=1,
                                          txn_id=key, key_value=key,
                                          insert_payload=[key]))
                    env.run()
                chunk = ks[lo:hi]
                if cold and whole:
                    assert pipe.bulk_load_many(
                        chunk, [[k] for k in chunk]) == len(chunk)
                else:
                    for k in chunk:
                        pipe.bulk_load(k, [k])
            pipe.invariant_check()
            images.append(heap_image(env.heap))
        assert images[0] == images[1]

    #: every kind of key the hash loader tells apart: ints its key
    #: column holds as machine words, ints it cannot (negative, beyond
    #: int64), and keys that are not ints at all
    hash_keys = st.one_of(
        st.integers(0, 2**63 - 1), st.integers(2**63, 2**70),
        st.integers(-2**70, -1), st.text(max_size=3),
        st.tuples(st.integers(0, 9), st.text(max_size=2)))
    hash_fields = st.lists(
        st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)),
        max_size=3)

    @given(st.lists(st.tuples(hash_keys, hash_fields), max_size=40),
           st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    max_size=6),
           st.sampled_from([1, 3, 64]))
    @relaxed
    def test_cold_hash_load_image_equals_per_row_load(self, rows, cuts,
                                                      n_buckets):
        # any rows (repeated keys and ragged field lists included), cut
        # into chunks that go through load_many or the one-row loader
        # in any interleaving; few buckets make the chains long
        cuts = sorted(cuts)
        bounds = [0, *(cut for cut, _batched in cuts), len(rows)]
        batched = [True, *(b for _cut, b in cuts)]
        images = []
        for cold in (True, False):
            env = SimEnv()
            pipe = HashIndexPipeline(env.engine, env.clock, env.dram, "h",
                                     n_buckets=n_buckets)
            for lo, hi, whole in zip(bounds, bounds[1:], batched):
                chunk = rows[lo:hi]
                if cold and whole:
                    keys, fields = zip(*chunk) if chunk else ((), ())
                    assert pipe.bulk_load_many(keys, fields) == len(chunk)
                else:
                    for key, fields in chunk:
                        pipe.bulk_load(key, fields)
            assert pipe.tuple_count == len(rows)
            images.append(heap_image(env.heap))
        assert images[0] == images[1]
