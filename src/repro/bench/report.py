"""Benchmark reporting: paper-style series and paper-vs-measured rows.

Every experiment returns a :class:`FigureReport` with one or more
series; printing it emits the same rows/axes the paper's figure or
table reports, alongside the paper's approximate values where the text
states them, so EXPERIMENTS.md can be regenerated from bench output.

The paper measures at two layers (§5), and each has one point runner
here: :func:`index_kv_throughput` drives bare index pipelines under a
client-side in-flight cap (Figs 10a, 11a–c), :func:`machine_tput` runs
a YCSB or TPC-C stream on a whole machine (Figs 9, 10b–d, 12, 13).  The
Silo baseline it is compared with has one too, :func:`silo_tput`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import BionicConfig, BionicDB
from ..index.bptree.pipeline import BPTreePipeline
from ..index.common import DbRequest
from ..index.hash.pipeline import HashIndexPipeline
from ..index.skiplist.pipeline import SkiplistPipeline
from ..isa import Opcode
from ..sim import FPGA_MHZ, ClockDomain, DramModel, Engine, Event, Heap

__all__ = ["Series", "FigureReport", "format_quantity", "drive_closed_loop",
           "bare_dram", "bare_pipelines", "index_kv_throughput",
           "machine_tput", "silo_tput", "DEFAULT_INFLIGHT_AXIS"]

#: the client-side in-flight caps the index figures (10a, 11a-c) sweep
DEFAULT_INFLIGHT_AXIS = (1, 4, 8, 12, 16, 20, 24)


def bare_dram() -> Tuple[Engine, ClockDomain, DramModel]:
    """A new engine, the machine's clock and its DRAM over a new heap:
    what an experiment on one component, outside a machine, builds on."""
    engine = Engine()
    clock = ClockDomain(engine, FPGA_MHZ)
    return engine, clock, DramModel(engine, clock, Heap())


def bare_pipelines(kind: str, n_workers: int, total_in_flight: int,
                   **kw) -> Tuple[Engine, DramModel, list]:
    """``n_workers`` index pipelines of one kind ("hash", "skiplist"
    or "bptree") on one :func:`bare_dram`: the §5.5 method of driving
    the coprocessors directly.  Each is the class a partition worker
    builds and holds the whole client-side in-flight cap; ``kw`` goes
    to every constructor."""
    engine, clock, dram = bare_dram()
    kw["max_in_flight"] = max(64, total_in_flight)
    if kind == "hash":
        cls, name = HashIndexPipeline, "hash"
    elif kind == "skiplist":
        cls, name = SkiplistPipeline, "sl"
    else:
        cls, name = BPTreePipeline, "bptree"
    return engine, dram, [cls(engine, clock, dram, f"w{w}.{name}", **kw)
                          for w in range(n_workers)]


def drive_closed_loop(engine: Engine, n_ops: int, total_in_flight: int,
                      submit_one: Callable) -> List[tuple]:
    """The §5.5 closed-loop index client: at most ``total_in_flight``
    requests outstanding.  ``submit_one(i, on_complete)`` builds and
    submits request ``i`` once it holds a token (so RNG draws happen in
    issue order); runs the engine dry and returns the ``(request,
    result)`` completions in completion order.

    Each submit comes one ready-deque hop after the previous one while
    a token is free, else one hop after the completion that frees it."""
    free = [total_in_flight]
    parked: List[Event] = []     # the client, while no token is free
    done: List[tuple] = []

    def on_complete(req, result):
        if parked:
            parked.pop().succeed()      # the token passes to the client
        else:
            free[0] += 1
        done.append((req, result))

    def client():
        for i in range(n_ops):
            if free[0]:
                free[0] -= 1
                yield 0
            else:
                parked.append(engine.event())
                yield parked[0]
            submit_one(i, on_complete)

    engine.start(client())
    engine.run()
    assert len(done) == n_ops
    return done


def index_kv_throughput(kind: str, op: str, total_in_flight: int, n_ops: int,
                        n_workers: int = 4, n_keys: int = 4000,
                        seed: int = 13, key_cells: bool = False,
                        scan_len: int = 50, **shape) -> float:
    """Aggregate ops/sec of :func:`bare_pipelines` under the
    :func:`drive_closed_loop` client (the §5.5 KV method), requests
    round-robin over the pipelines; ``shape`` goes to each.

    ``op`` is "insert" (keys ``n_keys``, ``n_keys + 1``, ... in order),
    "search" or "scan" (``scan_len`` rows from a random start) over
    ``n_keys`` preloaded rows.  Keys are drawn from ``Random(seed)`` at
    issue, or, with ``key_cells``, all written to heap cells before the
    run (the bulk transaction block) and fetched by the pipeline."""
    engine, dram, pipes = bare_pipelines(kind, n_workers, total_in_flight,
                                         **shape)
    heap = dram.heap
    rng = random.Random(seed)
    if op != "insert":
        for pipe in pipes:
            pipe.bulk_load_many(range(n_keys), [("v",)] * n_keys)

    def key(i):
        if op == "insert":
            return n_keys + i
        return rng.randrange(n_keys if op == "search"
                             else max(1, n_keys - scan_len))

    cells = []
    for i in range(n_ops if key_cells else 0):
        cells.append(heap.alloc())
        dram.direct_write(cells[-1],
                          (key(i), ["v"]) if op == "insert" else key(i))

    def submit_one(i, on_complete):
        req = DbRequest(op=Opcode[op.upper()], table_id=0, ts=1, txn_id=i,
                        on_complete=on_complete)
        if key_cells:
            req.key_addr = cells[i]
        else:
            req.key_value = key(i)
            if op == "insert":
                req.insert_payload = ["v"]
        if op == "scan":
            req.scan_count = scan_len
            req.scan_limit = scan_len + 8
            req.scan_out_addr = heap.alloc(scan_len + 8)
        pipes[i % n_workers].submit(req)

    drive_closed_loop(engine, n_ops, total_in_flight, submit_one)
    return n_ops / (engine.now * 1e-9)


def machine_tput(workload, make_specs: Callable,
                 config: Optional[BionicConfig] = None,
                 in_flight: Optional[int] = None, **install) -> float:
    """Throughput of one stream on a whole machine: ``workload`` is
    installed on a new ``BionicDB(config)`` (``install`` goes to its
    ``install``), the total in-flight budget set when ``in_flight`` is
    given, and ``make_specs(workload)`` submitted at once and run dry."""
    db = BionicDB(config)
    workload.install(db, **install)
    if in_flight is not None:
        db.set_total_in_flight(in_flight)
    report, _ = workload.submit_all(db, make_specs(workload))
    return report.throughput_tps


def silo_tput(runner, specs) -> float:
    """Throughput of one stream on the Silo baseline: ``runner`` (a
    ``SiloYcsb`` or ``SiloTpcc``) is installed and runs ``specs``."""
    runner.install()
    return runner.run(specs).throughput_tps


def format_quantity(value: float, unit: str) -> str:
    if unit in ("kTps", "kOps"):
        return f"{value / 1e3:10.1f} {unit}"
    if unit in ("mTps", "Mops"):
        return f"{value / 1e6:10.3f} {unit}"
    if unit == "ns":
        return f"{value:10.1f} ns"
    if unit == "W":
        return f"{value:10.2f} W"
    return f"{value:10.3f} {unit}"


@dataclass
class Series:
    """One line of a figure: y values over the shared x axis."""

    name: str
    ys: List[float] = field(default_factory=list)

    def add(self, y: float) -> None:
        self.ys.append(y)


@dataclass
class FigureReport:
    fig_id: str
    title: str
    x_label: str
    xs: List = field(default_factory=list)
    unit: str = "kTps"
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: free-form paper anchors, e.g. {"peak search": "7 Mops"}
    paper_expectations: Dict[str, str] = field(default_factory=dict)

    def new_series(self, name: str) -> Series:
        s = Series(name)
        self.series.append(s)
        return s

    def note(self, text: str) -> None:
        self.notes.append(text)

    def value(self, series_name: str, x) -> float:
        idx = self.xs.index(x)
        for s in self.series:
            if s.name == series_name:
                return s.ys[idx]
        raise KeyError(series_name)

    def render(self) -> str:
        lines: List[str] = []
        lines.append("=" * 72)
        lines.append(f"{self.fig_id}: {self.title}")
        lines.append("=" * 72)
        header = f"{self.x_label:>14s} | " + " | ".join(
            f"{s.name:>18s}" for s in self.series)
        lines.append(header)
        lines.append("-" * len(header))
        for i, x in enumerate(self.xs):
            cells = []
            for s in self.series:
                y = s.ys[i] if i < len(s.ys) else float("nan")
                cells.append(format_quantity(y, self.unit).strip().rjust(18))
            lines.append(f"{str(x):>14s} | " + " | ".join(cells))
        if self.paper_expectations:
            lines.append("paper expects:")
            for what, expect in self.paper_expectations.items():
                lines.append(f"  - {what}: {expect}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> "FigureReport":
        print()
        print(self.render())
        return self
