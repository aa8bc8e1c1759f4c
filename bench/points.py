"""The four workloads, each one figure point driven through public APIs.

A point knows how to set its database(s) up, generate its seeded
inputs as a list of bursts, run one burst, and check the outputs.  The
timing, counting and tracing around those calls lives in
``bench/measure.py``; nothing here reads a clock.

Sizes are frozen here (``BENCHMARK.json`` has no place for them).
``seconds`` scales burst counts only — the frozen counts are sized so
the run phase takes about ``BENCHMARK.json``'s ``run_seconds`` on the
2-core reference box — and ``scale`` shrinks tables and bursts for the
benchmark's own tests.

Imports are limited to names ``repro.core``, ``repro.softcore``,
``repro.workloads``, ``repro.frontend`` and ``repro.mem`` export, so
the ROADMAP refactors of ``sim/ index/ softcore/ perf/`` need not
touch this file.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from zlib import crc32

from repro.core import BionicConfig, BionicDB
from repro.frontend import (
    AdmissionConfig, FrontEnd, FrontendConfig, SchedulerConfig, SessionConfig,
)
from repro.mem import IndexKind, TxnStatus
from repro.softcore import SoftcoreConfig
from repro.workloads import (
    TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload, tpcc,
)

from .metrics import GOODPUT_RATE, LATENCY_RATE, RATES
from .spans import instrumented

__all__ = ["POINTS", "Burst", "Point", "REFERENCE_SECONDS"]

#: the ``--seconds`` the frozen burst counts below are sized for
REFERENCE_SECONDS = 10.0


def compiled_softcore() -> SoftcoreConfig:
    """The compiled tier where the tree still has one (ROADMAP item 1
    deletes the twin; the benchmark must not need editing then)."""
    try:
        return SoftcoreConfig(compiled=True)
    except TypeError:
        return SoftcoreConfig()


@dataclass
class Burst:
    """One timed unit of the run phase: a batch of transactions (or one
    offered rate) against one of the point's databases."""

    kind: str
    specs: list
    db: int = 0
    #: which end-to-end figures this burst feeds
    in_tps: bool = True
    in_latency: bool = True
    in_failed: bool = True
    rate_tps: float = 0.0
    #: filled by run_burst where the workload has more to report
    extra: dict = field(default_factory=dict)


class Point:
    """Base: one workload at one seed."""

    name = ""
    #: printed under the workload's results
    note = ""

    def __init__(self, seed: int, seconds: float = REFERENCE_SECONDS,
                 scale: float = 1.0):
        self.seed = crc32(f"{seed}:{self.name}".encode())
        self.seconds = seconds
        self.scale = scale
        self.dbs = []
        self.workloads = []
        self.rows = 0

    # -- sizing -------------------------------------------------------------
    def sized(self, n: int, floor: int = 1) -> int:
        """A table or burst size under the tests' multiplier."""
        return max(floor, round(n * self.scale))

    def bursts_for(self, n: int, floor: int = 1) -> int:
        """A burst (or request) count under ``--seconds``."""
        return max(floor, round(n * self.seconds / REFERENCE_SECONDS))

    # -- set-up ---------------------------------------------------------------
    def installs(self):
        """``(BionicConfig, workload, rows)`` per database."""
        raise NotImplementedError

    def setup(self, spans, profiler=None) -> None:
        self.dbs, self.workloads, self.rows = [], [], 0
        for config, workload, rows in self.installs():
            with spans.span("build"):
                db = BionicDB(config)
            with instrumented(
                    spans, db, profiler, profiled=("load_many",),
                    define_table=lambda s: f"define[{s.name}]",
                    register_procedure=lambda p, *a, **k: f"register[{p}]",
                    load_many="load"):
                self.install(db, workload)
            self.dbs.append(db)
            self.workloads.append(workload)
            self.rows += rows

    def install(self, db, workload) -> None:
        workload.install(db)

    def teardown(self) -> None:
        self.dbs, self.workloads = [], []

    # -- run --------------------------------------------------------------------
    def generate(self) -> list:
        raise NotImplementedError

    def traced_subset(self, bursts: list) -> list:
        """The first quarter of the bursts of each kind."""
        seen, keep = Counter(), []
        quota = {k: -(-n // 4) for k, n in
                 Counter(b.kind for b in bursts).items()}
        for burst in bursts:
            if seen[burst.kind] < quota[burst.kind]:
                keep.append(burst)
            seen[burst.kind] += 1
        return keep

    def run_burst(self, burst: Burst) -> list:
        """Run one burst to completion; return its blocks in offer order."""
        workload, db = self.workloads[burst.db], self.dbs[burst.db]
        _report, blocks = workload.submit_all(db, burst.specs)
        return blocks

    # -- checks -------------------------------------------------------------------
    def check(self, bursts: list, blocks: list) -> list:
        """Problems found in the outputs, one string per failed item."""
        raise NotImplementedError


class YcsbCPaper(Point):
    name = "ycsb_c_paper"
    ROWS_PER_PARTITION = 300_000
    BURSTS, TXNS = 11, 1000
    SAMPLE = 32                 # read-back keys per burst
    #: what a read-back must return, None = the loaded payload; a test
    #: overrides it to prove the check can fail
    expected_payload = None

    def installs(self):
        rows = self.sized(self.ROWS_PER_PARTITION, 64)
        workload = YcsbWorkload(YcsbConfig(records_per_partition=rows,
                                           seed=self.seed))
        yield (BionicConfig(softcore=compiled_softcore()), workload,
               workload.config.total_records)

    def generate(self):
        workload = self.workloads[0]
        return [Burst("read", workload.make_read_txns(self.sized(self.TXNS, 8)))
                for _ in range(self.bursts_for(self.BURSTS, 2))]

    def check(self, bursts, blocks):
        db, problems = self.dbs[0], []
        expected = [self.expected_payload
                    or self.workloads[0].config.payload]
        for b, (burst, burst_blocks) in enumerate(zip(bursts, blocks)):
            for i, block in enumerate(burst_blocks):
                if any(out is None for out in block.outputs()):
                    problems.append(f"burst {b} txn {i}: null output")
            rng = random.Random(self.seed + b)
            for spec in rng.sample(burst.specs,
                                   min(self.SAMPLE, len(burst.specs))):
                key = rng.choice(spec.keys)
                row = db.lookup(0, key)
                if row is None or row.key != key or row.fields != expected:
                    problems.append(f"burst {b}: key {key} read back {row!r}")
        return problems


class TpccNp(Point):
    name = "tpcc_np"
    BURSTS, TXNS = 9, 200

    def installs(self):
        base = TpccConfig()
        workload = TpccWorkload(TpccConfig(
            customers_per_district=self.sized(base.customers_per_district, 30),
            items=self.sized(base.items, 200), seed=self.seed))
        cfg = workload.config
        rows = (cfg.items * (1 + cfg.n_warehouses)
                + cfg.n_warehouses * (1 + cfg.districts_per_warehouse
                                      * (1 + cfg.customers_per_district)))
        yield BionicConfig(), workload, rows

    def generate(self):
        workload = self.workloads[0]
        return [Burst("mix", workload.make_mix(self.sized(self.TXNS, 20)))
                for _ in range(self.bursts_for(self.BURSTS, 2))]

    def run_burst(self, burst):
        _report, blocks = self.workloads[0].submit_all(
            self.dbs[0], burst.specs, retry=True)
        return blocks

    def check(self, bursts, blocks):
        S, db, problems = tpcc.schema, self.dbs[0], []
        paid, orders = Counter(), {}
        for burst, burst_blocks in zip(bursts, blocks):
            for spec, block in zip(burst.specs, burst_blocks):
                if block.header.status is not TxnStatus.COMMITTED:
                    continue
                if spec.kind == "payment":
                    paid[spec.keys[0]] += spec.keys[5]
                else:
                    w, d, c, ol_cnt = spec.keys[:4]
                    orders.setdefault((w, d), Counter())[(c, ol_cnt)] += 1
        cfg = self.workloads[0].config
        for w in range(1, cfg.n_warehouses + 1):
            ytd = db.lookup(S.WAREHOUSE, S.warehouse_key(w)).fields[S.W_FIELD_YTD]
            if ytd != paid[w]:
                problems.append(f"warehouse {w}: W_YTD {ytd} != paid {paid[w]}")
            for d in range(1, cfg.districts_per_warehouse + 1):
                placed = orders.get((w, d), Counter())
                n_orders = sum(placed.values())
                next_o = db.lookup(S.DISTRICT, S.district_key(w, d)
                                   ).fields[S.D_FIELD_NEXT_O_ID]
                if next_o - 1 != n_orders:
                    problems.append(f"district {w}.{d}: D_NEXT_O_ID-1 = "
                                    f"{next_o - 1} != {n_orders} NewOrders")
                stored = Counter()
                for o in range(1, n_orders + 1):
                    row = db.lookup(S.ORDERS, S.orders_key(w, d, o))
                    if row is None:
                        problems.append(f"district {w}.{d}: order {o} missing")
                    else:
                        stored[(row.fields[S.O_FIELD_C_ID],
                                row.fields[S.O_FIELD_OL_CNT])] += 1
                for missing in (placed - stored).elements():
                    problems.append(f"district {w}.{d}: no ORDERS row for "
                                    f"(customer, ol_cnt) {missing}")
        return problems


class OrderedIndex(Point):
    name = "ordered_index"
    ROWS_PER_PARTITION = 30_000
    POINT_BURSTS, POINT_TXNS = 3, 250
    SCAN_BURSTS, SCAN_TXNS = 3, 1000
    KINDS = (("skiplist", IndexKind.SKIPLIST), ("bptree", IndexKind.BPTREE))

    def installs(self):
        rows = self.sized(self.ROWS_PER_PARTITION, 256)
        for _label, index_kind in self.KINDS:
            # the same seed for both tables: one stream, two indexes
            workload = YcsbWorkload(YcsbConfig(
                records_per_partition=rows, index_kind=index_kind,
                seed=self.seed))
            self.scan_length = workload.config.scan_length
            yield BionicConfig(), workload, workload.config.total_records

    def generate(self):
        bursts = []
        n_point, n_scan = self.sized(self.POINT_TXNS, 8), self.sized(self.SCAN_TXNS, 8)
        for db, (label, index_kind) in enumerate(self.KINDS):
            workload = self.workloads[db]
            make_scans = (workload.make_scan_txns
                          if index_kind == IndexKind.SKIPLIST
                          else workload.make_range_txns)
            bursts += [Burst(f"{label}.point", workload.make_read_txns(n_point), db)
                       for _ in range(self.bursts_for(self.POINT_BURSTS))]
            bursts += [Burst(f"{label}.scan", make_scans(n_scan), db)
                       for _ in range(self.bursts_for(self.SCAN_BURSTS))]
        return bursts

    def check(self, bursts, blocks):
        problems = []
        seen = {}       # (operation, burst ordinal) -> what the skiplist saw
        ordinal = Counter()
        for burst, burst_blocks in zip(bursts, blocks):
            label, operation = burst.kind.split(".")
            n = ordinal[burst.kind]
            ordinal[burst.kind] += 1
            if operation == "scan":
                result = [block.outputs()[0] for block in burst_blocks]
                for i, count in enumerate(result):
                    if count != self.scan_length:
                        problems.append(f"{burst.kind} #{n} txn {i}: scan "
                                        f"returned {count} rows")
            else:
                result = [[out is not None for out in block.outputs()]
                          for block in burst_blocks]
            other = seen.setdefault((operation, n), result)
            for i, (a, b) in enumerate(zip(other, result)):
                if a != b:
                    problems.append(f"{operation} #{n} txn {i}: skiplist "
                                    f"{a} != {label} {b}")
        return problems


class ServeMultisite(Point):
    name = "serve_multisite"
    note = ("open loop; arrivals are scheduled in simulated time, so "
            "generator lag is zero by construction")
    ROWS_PER_PARTITION = 30_000
    #: requests per rate: the samples go where the end-to-end latency is
    #: read (p99 keeps 30 samples beyond it at 200 k)
    REQUESTS = {"100k": 1000, "200k": 3000, "300k": 1500, "400k": 1500}
    UPDATE_FRACTION = 0.5       # 8 reads + 8 updates per transaction

    def installs(self):
        rows = self.sized(self.ROWS_PER_PARTITION, 1024)
        workload = YcsbWorkload(YcsbConfig(
            records_per_partition=rows, remote_fraction=0.75, seed=self.seed))
        yield (BionicConfig(softcore=compiled_softcore()), workload,
               workload.config.total_records)

    def install(self, db, workload):
        workload.install(db)
        # the mixed procedure is registered on first use; do it inside set-up
        workload.make_mixed_txns(1, self.UPDATE_FRACTION, install_into=db)

    def generate(self):
        workload = self.workloads[0]
        bursts = []
        for label, rate in RATES:
            n = self.bursts_for(self.sized(self.REQUESTS[label]), 40)
            specs = self._without_replacement(
                workload.make_mixed_txns(n, self.UPDATE_FRACTION), label)
            bursts.append(Burst(f"r{label}", specs, rate_tps=rate,
                                in_tps=label == GOODPUT_RATE,
                                in_latency=label == LATENCY_RATE,
                                in_failed=label != GOODPUT_RATE))
        return bursts

    def traced_subset(self, bursts):
        return [b for b in bursts if b.kind == f"r{LATENCY_RATE}"]

    def _without_replacement(self, specs, label):
        """Redraw every key, keeping its partition, so that no two
        requests of one rate share a key: timestamp ordering then has
        no cause to abort and no operation of this workload fails."""
        per_part = self.workloads[0].config.records_per_partition
        rng = random.Random(self.seed + crc32(label.encode()))
        unused = {}
        out = []
        for spec in specs:
            keys = []
            for key in spec.keys:
                part = key // per_part
                if part not in unused:
                    unused[part] = list(range(part * per_part,
                                              (part + 1) * per_part))
                    rng.shuffle(unused[part])
                keys.append(unused[part].pop())
            keys = tuple(keys)
            out.append(replace(spec, keys=keys,
                               inputs=keys + spec.inputs[len(keys):]))
        return out

    def run_burst(self, burst):
        workload, db = self.workloads[0], self.dbs[0]
        layout = workload.mixed_layout()
        blocks = []

        def factory(i):
            spec = burst.specs[i]
            block = db.new_block(spec.proc_id, list(spec.inputs),
                                 layout=layout, worker=spec.home)
            blocks.append(block)
            return block, spec.home

        frontend = FrontEnd(db, FrontendConfig(
            admission=AdmissionConfig(max_backlog=256),
            scheduler=SchedulerConfig(max_inflight_per_worker=8)))
        # the arrival schedule is part of the workload, not of the seed:
        # Poisson sampling noise in 3 000 arrivals moves p99 by more
        # across seeds than any bound worth gating on
        frontend.session(factory, SessionConfig(
            name=burst.kind, arrival="open", rate_tps=burst.rate_tps,
            n_requests=len(burst.specs), seed=crc32(burst.kind.encode())))
        try:
            burst.extra["report"] = frontend.run()
        finally:
            frontend.detach()
        return blocks

    def check(self, bursts, blocks):
        db, problems = self.dbs[0], []

        def writes(spec):
            values = spec.inputs[len(spec.keys):]
            return zip(spec.keys[len(spec.keys) - len(values):], values)

        committed = []
        # every key any request tried to update starts as loaded; one an
        # aborted request wrote must still (or again) read as the model says
        model = {}
        for burst, burst_blocks in zip(bursts, blocks):
            if not burst.extra["report"].conserved:
                problems.append(f"{burst.kind}: outcomes not conserved")
            for spec, block in zip(burst.specs, burst_blocks):
                model.update(dict.fromkeys(
                    (key for key, _value in writes(spec)),
                    self.workloads[0].config.payload))
                if block.header.status is TxnStatus.COMMITTED:
                    committed.append((block.header.commit_ts, spec))
        # replay commits in timestamp order on the plain dict
        for _ts, spec in sorted(committed, key=lambda pair: pair[0]):
            model.update(writes(spec))
        for key, value in model.items():
            row = db.lookup(0, key)
            if row is None or row.fields[0] != value:
                problems.append(f"key {key}: holds "
                                f"{row.fields[0] if row else None!r}, replay "
                                f"of commits gives {value!r}")
        return problems


POINTS = {cls.name: cls for cls in
          (YcsbCPaper, TpccNp, OrderedIndex, ServeMultisite)}
