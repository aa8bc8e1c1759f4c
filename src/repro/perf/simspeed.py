"""End-to-end simulation speed: simulated nanoseconds per host-second.

The sweeps that reproduce the paper's figures are budgeted in
host-seconds, so the number that matters is how much simulated time one
host-second buys on a realistic workload.  This bench times the seeded
YCSB, TPC-C and B+ tree smoke scenarios (the same ones the equivalence
checker replays) plus the Figure 9 YCSB smoke configuration.

The scenario timers measure the *run* phase only: building and loading
the database advances no simulated time, so folding it into a
simulated-ns-per-host-second figure would just dilute the number with
host work the simulation loop never sees.  The Figure 9 entry
deliberately times the whole `bionicdb_ycsb_tput` call — that is what a
sweep pays.

As in :mod:`repro.perf.microbench`, wall-clock reads only *measure*
host cost; all simulated behaviour is seeded and deterministic.  Timed
regions run under :func:`~repro.perf.microbench.quiesced_gc` so a
cyclic collection owed to heap state from *outside* the bench cannot
land in the timing window.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from ..bench.fig09 import bionicdb_ycsb_tput
from .equivalence import SETUPS as _SETUPS
from .microbench import quiesced_gc

__all__ = ["run_simspeed"]


def _time_scenario(setup: Callable, scale: int,
                   repeats: int) -> Dict[str, float]:
    best = None
    fingerprint = None
    for _ in range(max(1, repeats)):
        # fresh setup each repeat: the run phase mutates database state
        _db, run = setup(scale)
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            fp = run()
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if best is None or dt < best:
            best = dt
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            raise RuntimeError("scenario is non-deterministic across repeats")
    return {"host_seconds": best, "sim_ns": fingerprint["now_ns"],
            "events_fired": fingerprint["events_fired"]}


def _time_fig09(repeats: int) -> Dict[str, float]:
    best = None
    tput = None
    for _ in range(max(1, repeats)):
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            t = bionicdb_ycsb_tput(2, n_txns=60, records_per_partition=2000)
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if best is None or dt < best:
            best = dt
        if tput is None:
            tput = t
        elif t != tput:
            raise RuntimeError("fig09 smoke is non-deterministic across repeats")
    return {"host_seconds": best, "throughput_tps": tput}


def run_simspeed(smoke: bool = False, repeats: int = 3,
                 scenarios: Optional[Iterable[str]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Time the end-to-end scenarios.

    ``scenarios`` restricts the per-scenario timings to the named
    subset; the fig09 entry always runs.
    """
    scale = 1 if smoke else 4
    names = list(scenarios) if scenarios is not None else list(_SETUPS)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        timed = _time_scenario(_SETUPS[name], scale, repeats)
        out[name] = {
            "scale": scale,
            "repeats": max(1, repeats),
            "sim_ns": timed["sim_ns"],
            "events_fired": timed["events_fired"],
            "host_seconds": timed["host_seconds"],
            "sim_ns_per_host_sec": timed["sim_ns"] / timed["host_seconds"],
        }
    fig09 = _time_fig09(repeats)
    out["fig09_ycsb_smoke"] = {
        "repeats": max(1, repeats),
        "throughput_tps": fig09["throughput_tps"],
        "host_seconds": fig09["host_seconds"],
    }
    return out
