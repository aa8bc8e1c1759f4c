"""Property-based tests for DES primitives and the assembler."""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import (
    BlockRef, Cp, FieldRef, Gp, Imm, Instruction, Opcode, Program,
    assemble_one, disassemble,
)
from repro.sim import Engine, TokenPool

relaxed = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


#: a schedule: item i is (parent, delay) — fired ``delay`` after its
#: parent fires (after t=0 for a root), scheduled from inside the
#: parent's callback; zero delays make same-instant rescheduling common
schedules = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(min_value=0)),
              st.sampled_from([0, 0, 0, 1, 1, 2, 5])),
    min_size=1, max_size=60,
).map(lambda items: [(None if parent is None or i == 0 else parent % i, delay)
                     for i, (parent, delay) in enumerate(items)])


def _children(schedule):
    kids = {i: [] for i in range(len(schedule))}
    for i, (parent, _delay) in enumerate(schedule):
        if parent is not None:
            kids[parent].append(i)
    return kids


def _when_seq_order(schedule):
    """The oracle: one heap keyed ``(when, seq)``, nothing else."""
    kids = _children(schedule)
    heap, seq, fired = [], 0, []
    for i, (parent, delay) in enumerate(schedule):
        if parent is None:
            seq += 1
            heapq.heappush(heap, (delay, seq, i))
    while heap:
        when, _seq, i = heapq.heappop(heap)
        fired.append((when, i))
        for kid in kids[i]:
            seq += 1
            heapq.heappush(heap, (when + schedule[kid][1], seq, kid))
    return fired


class TestEngineOrderProperties:
    """``Engine`` fires work in ``(when, seq)`` order whichever of its
    loops runs — the property the reference engine used to witness."""

    @pytest.mark.parametrize("mode", ["to_idle", "watched", "until_steps"])
    @given(schedule=schedules)
    @relaxed
    def test_firing_order_is_when_seq_order(self, mode, schedule):
        eng = Engine()
        kids = _children(schedule)
        fired = []

        def fire(i):
            fired.append((eng.now, i))
            for kid in kids[i]:
                eng.call_fn_at(eng.now + schedule[kid][1], fire, kid)

        for i, (parent, delay) in enumerate(schedule):
            if parent is None:
                eng.call_fn_at(delay, fire, i)
        if mode == "watched":
            eng.run(max_events=10**9)
        elif mode == "until_steps":
            for until in range(0, 400, 3):
                eng.run(until=until)
        eng.run()
        assert eng.idle
        assert fired == _when_seq_order(schedule)
        assert eng.events_fired == len(schedule)


class TestTokenPoolProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.booleans(), max_size=80))
    @relaxed
    def test_never_exceeds_capacity(self, tokens, takes):
        pool = TokenPool(tokens)
        held = 0
        for take in takes:
            if take:
                got = pool.try_acquire()
                assert got == (held < tokens)
                held += got
            elif held:
                pool.release()
                held -= 1
            assert pool.in_use == held <= tokens
        for _ in range(held):
            pool.release()
        assert pool.available == tokens  # all returned

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @relaxed
    def test_resize_preserves_accounting(self, before, after):
        pool = TokenPool(before)
        holders = min(before, 3)
        for _ in range(holders):
            assert pool.try_acquire()
        pool.resize(after)
        assert pool.capacity == after
        assert pool.in_use == holders  # holders unchanged by resize


def _random_instruction(draw):
    op = draw(st.sampled_from([Opcode.SEARCH, Opcode.UPDATE, Opcode.REMOVE]))
    return Instruction(op, cp=Cp(draw(st.integers(0, 255))),
                       table=draw(st.integers(0, 9)),
                       key=BlockRef(draw(st.integers(0, 63))))


class TestAssemblerRoundTrip:
    @given(st.data())
    @relaxed
    def test_db_instruction_roundtrip(self, data):
        prog = Program("p")
        n = data.draw(st.integers(1, 10))
        for _ in range(n):
            prog.logic.append(_random_instruction(data.draw))
        prog.finalize()
        text = disassemble(prog)
        prog2 = assemble_one(text)
        assert len(prog2.logic) == n
        for a, b in zip(prog.logic, prog2.logic):
            assert a.opcode == b.opcode
            assert a.cp == b.cp and a.table == b.table and a.key == b.key

    @given(st.lists(st.sampled_from(["add", "sub", "mul"]), min_size=1,
                    max_size=12),
           st.integers(0, 50), st.integers(0, 50))
    @relaxed
    def test_arithmetic_roundtrip(self, ops, a, b):
        from repro.isa import ProcedureBuilder
        builder = ProcedureBuilder("p")
        for i, op in enumerate(ops):
            getattr(builder, op)(i % 200, Gp(a % 200), b)
        prog = builder.build()
        prog2 = assemble_one(disassemble(prog))
        assert [i.opcode for i in prog2.logic] == [i.opcode for i in prog.logic]
        for x, y in zip(prog.logic, prog2.logic):
            assert x.dst == y.dst and x.a == y.a and x.b == y.b
