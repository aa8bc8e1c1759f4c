"""Host-performance harness for the simulator.

``python -m repro.perf`` measures how fast the host can turn the
simulation's crank — engine microbenchmarks, end-to-end simulated-ns
per host-second — and checks, via :mod:`repro.perf.equivalence`, that
the simulated observables of three seeded scenarios still equal the
checked-in golden values (and that the event count has not risen).
Results land in ``BENCH_sim.json``; the rates in it are absolute and
only mean something next to the host metadata stamped alongside.
``python -m repro.perf sweep`` farms paper-scale points across host
processes (:mod:`repro.perf.sweep`).  See ``docs/performance.md``.
"""

from .equivalence import (
    GOLDEN_INTERPRETER,
    GOLDEN_SMOKE,
    OBSERVABLES,
    SCENARIOS,
    agrees,
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
from .simspeed import run_simspeed
from .sweep import POINTS, host_metadata, run_point, run_sweep

__all__ = [
    "GOLDEN_INTERPRETER",
    "GOLDEN_SMOKE",
    "OBSERVABLES",
    "POINTS",
    "SCENARIOS",
    "agrees",
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
