"""Golden fingerprints: a change to the simulator's host cost must not
move what it simulates.

What is pinned is the set of *simulated observables* of a seeded
scenario — ``Engine.now`` at the end, commit and abort counts, and a
hash over every per-transaction completion timestamp
(:data:`OBSERVABLES`), checked in below as :data:`GOLDEN_SMOKE`.

``bptree_range_smoke``'s observables have never been edited; its
``events_fired`` ceiling was lowered (4 292 -> 3 937) when the B+ tree
pipeline moved onto the shared stage framework.  ``ycsb_smoke`` and
``tpcc_smoke`` were captured on the heap-only event loop the first perf
PR replaced and stood unedited until the §4.5 batch former began
comparing keys: both streams hold transactions of one worker that write
a row another one of its batch touches (20 RMW transactions over 2 000
rows; TPC-C's warehouse and district rows), and those now run in
consecutive batches instead of one of them aborting — 57 commits and 3
aborts became 60 and 0, 63 retried aborts became none — so the two
entries were re-captured once, with that change.  What keeps them
anchored to history is ``tests/test_batch_former.py``: a stream with no
such pair fires the events and draws the timestamps it did before.

``events_fired`` is *not* an observable: it counts host work items, and
two event graphs that compute the same simulation may differ in how
many firings they need (docs/performance.md measures that they do).  It
is kept next to the observables as a **ceiling** — a run may fire fewer
events than the captured count, never more — so same-instant hops that
do no simulated work cannot creep back in unnoticed.  When a change
lowers it, re-capture the ceiling here (never an observable).

The softcore once had two executors, an instruction interpreter and
the generated code of :mod:`repro.softcore.compiled`, and
:data:`GOLDEN_MODES` pins the two modes only the interpreter ran —
dynamic scheduling and tracing — over ``ycsb_smoke``.  Its values were
the interpreter's until the re-capture above and are the generated
code's since (same stream, same reason).

Scenarios are deterministic: fixed seeds, no wall-clock reads.  The
fingerprint is the paper-scale sweep's (:mod:`repro.perf.sweep`), so a
sweep point and a golden are compared on the same keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core import BionicConfig, BionicDB
from repro.mem.schema import IndexKind
from repro.perf.sweep import _fingerprint
from repro.softcore import SoftcoreConfig
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload

#: the fingerprint keys that must equal their golden values
OBSERVABLES: Tuple[str, ...] = ("now_ns", "committed", "aborted",
                                "commit_hash")

#: fingerprints of the smoke scenarios (history in the module
#: docstring).  ``events_fired`` is the ceiling: the count the current
#: event graph needs, re-captured whenever a change lowers it.
GOLDEN_SMOKE = {
    "ycsb_smoke": {
        "events_fired": 9221,
        "now_ns": 235344.0,
        "committed": 60,
        "aborted": 0,
        "commit_hash":
            "37be1a001ab4f808a5b4efd81f756b46a8a730dd57909b5dacc86d90b4214a7a",
    },
    "tpcc_smoke": {
        "events_fired": 9871,
        "now_ns": 308504.0,
        "committed": 24,
        "aborted": 0,
        "commit_hash":
            "5b38b2e8550362714ef140ec36b68c5dff5e326b7ba58eadf5d54052e70bd566",
    },
    "bptree_range_smoke": {
        "events_fired": 3937,
        "now_ns": 423312.0,
        "committed": 32,
        "aborted": 0,
        "commit_hash":
            "a0aa2f667110944e34715ca59cfc44a50f287b2195ac3e4ee2749d9f0cb6ed6f",
    },
}

#: ``ycsb_smoke`` in the two modes the deleted instruction interpreter
#: alone ran: ``dynamic`` is the fingerprint under
#: ``SoftcoreConfig(dynamic_scheduling=True)`` (``events_fired`` a
#: ceiling, as in :data:`GOLDEN_SMOKE`); ``trace_sha256`` is the
#: SHA-256 of ``Tracer(categories={"softcore", "txn"}).format()`` over
#: the default-config run (1 720 lines, none of them an ABORT), whose
#: own fingerprint is ``GOLDEN_SMOKE["ycsb_smoke"]``.
GOLDEN_MODES = {
    "dynamic": {
        "events_fired": 9221,
        "now_ns": 235664.0,
        "committed": 60,
        "aborted": 0,
        "commit_hash":
            "6e843355f287a99b587445b4647e886f22bd4cbc91170b04e3ca4fbc97efe915",
    },
    "trace_sha256":
        "b7eaa2b4a48d3ed3d88ea984de5a8bc0d20b4fcde7e10d72d77402fe33b1653a",
}


def agrees(got: Dict[str, object], golden: Dict[str, object]) -> bool:
    """Every observable equal, and no more firings than the ceiling."""
    return (all(got[key] == golden[key] for key in OBSERVABLES)
            and got["events_fired"] <= golden["events_fired"])


def ycsb_setup(softcore: Optional[SoftcoreConfig] = None, tracer=None):
    """Build the YCSB scenario; returns ``(db, run)`` where ``run()``
    executes the seeded transaction mix and returns its fingerprint.

    Split from the run phase so a test can observe the drain alone
    (``tests/test_quiet_drain.py``).  ``softcore`` and ``tracer``
    select the modes :data:`GOLDEN_MODES` pins.
    """
    n = 40
    wl = YcsbWorkload(YcsbConfig(records_per_partition=2000, n_partitions=2,
                                 reads_per_txn=8, seed=7))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer,
                               softcore=softcore or SoftcoreConfig()))
    wl.install(db)
    specs = wl.make_read_txns(n) + wl.make_rmw_txns(n // 2)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs)
        return _fingerprint(db, report, blocks)

    return db, run


def ycsb_scenario(softcore: Optional[SoftcoreConfig] = None,
                  tracer=None) -> Dict[str, object]:
    """Seeded YCSB mix (reads + RMWs) on a 2-worker machine."""
    _db, run = ycsb_setup(softcore, tracer)
    return run()


def tpcc_setup():
    """Build the TPC-C scenario; returns ``(db, run)`` (see ycsb_setup)."""
    n = 24
    wl = TpccWorkload(TpccConfig(n_partitions=2, customers_per_district=40,
                                 items=400, seed=11))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_mix(n)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs, retry=True)
        return _fingerprint(db, report, blocks)

    return db, run


def tpcc_scenario() -> Dict[str, object]:
    """Seeded TPC-C NewOrder+Payment mix with retry-to-commit."""
    _db, run = tpcc_setup()
    return run()


def bptree_setup():
    """YCSB over a B+ tree index: point reads plus RANGE_SCANs.

    Exercises the batched level-wise B+ tree coprocessor and the
    RANGE_SCAN path end-to-end.
    """
    n = 16
    wl = YcsbWorkload(YcsbConfig(records_per_partition=1200, n_partitions=2,
                                 reads_per_txn=4, scan_length=24, seed=13,
                                 index_kind=IndexKind.BPTREE))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_read_txns(n) + wl.make_range_txns(n)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs)
        return _fingerprint(db, report, blocks)

    return db, run


def bptree_scenario() -> Dict[str, object]:
    """Seeded B+ tree reads + range scans on a 2-worker machine."""
    _db, run = bptree_setup()
    return run()


#: the smoke scenarios, keyed as in :data:`GOLDEN_SMOKE`
SCENARIOS: Dict[str, Callable] = {
    "ycsb_smoke": ycsb_scenario,
    "tpcc_smoke": tpcc_scenario,
    "bptree_range_smoke": bptree_scenario,
}

#: their set-up phases: ``build()`` returns ``(db, run)``
SETUPS: Dict[str, Callable] = {
    "ycsb_smoke": ycsb_setup,
    "tpcc_smoke": tpcc_setup,
    "bptree_range_smoke": bptree_setup,
}
