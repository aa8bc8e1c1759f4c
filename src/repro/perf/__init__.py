"""Host-performance harness for the simulator.

``python -m repro.perf`` measures how fast the host can turn the
simulation's crank — engine microbenchmarks, end-to-end simulated-ns
per host-second — and proves, via the cycle-equivalence checker, that
the hot-path engine (:mod:`repro.sim.engine`) produces bit-identical
simulated timing to the pre-overhaul reference implementation kept in
:mod:`repro.perf.refengine`.  Results land in
``BENCH_sim.json``; the speedup ratios are machine-independent and are
what CI regresses against.  ``python -m repro.perf sweep`` farms
paper-scale points across host processes (:mod:`repro.perf.sweep`).
See ``docs/performance.md``.
"""

from .equivalence import (
    GOLDEN_INTERPRETER,
    GOLDEN_SMOKE,
    SCENARIOS,
    bptree_scenario,
    bptree_setup,
    equivalence_failures,
    run_equivalence,
    tpcc_scenario,
    tpcc_setup,
    ycsb_scenario,
    ycsb_setup,
)
from .microbench import run_microbenchmarks
from .refengine import ReferenceEngine
from .simspeed import run_simspeed
from .sweep import POINTS, host_metadata, run_point, run_sweep

__all__ = [
    "GOLDEN_INTERPRETER",
    "GOLDEN_SMOKE",
    "POINTS",
    "SCENARIOS",
    "ReferenceEngine",
    "bptree_scenario",
    "bptree_setup",
    "equivalence_failures",
    "host_metadata",
    "run_equivalence",
    "run_microbenchmarks",
    "run_point",
    "run_simspeed",
    "run_sweep",
    "tpcc_scenario",
    "tpcc_setup",
    "ycsb_scenario",
    "ycsb_setup",
]
