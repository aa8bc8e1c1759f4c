"""End-to-end simulation speed: simulated nanoseconds per host-second.

The sweeps that reproduce the paper's figures are budgeted in
host-seconds, so the number that matters is how much simulated time one
host-second buys on a realistic workload.  This bench times the seeded
YCSB and TPC-C smoke scenarios (the same ones the cycle-equivalence
checker replays) plus the Figure 9 YCSB smoke configuration, on both
the production engine and the pre-overhaul
:class:`~repro.perf.refengine.ReferenceEngine`.

The YCSB/TPC-C timers measure the *run* phase only: building and
loading the database advances no simulated time, so folding it into a
simulated-ns-per-host-second figure would just dilute the number with
engine-independent host work.  The Figure 9 entry deliberately times
the whole `bionicdb_ycsb_tput` call — that is what a sweep pays.

As in :mod:`repro.perf.microbench`, wall-clock reads only *measure*
host cost; all simulated behaviour is seeded and deterministic.  Timed
regions run under :func:`~repro.perf.microbench.quiesced_gc` so a
cyclic collection owed to heap state from *outside* the bench cannot
land in one engine's window and skew ``speedup_vs_reference``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from ..bench.fig09 import bionicdb_ycsb_tput
from .equivalence import SETUPS as _SETUPS
from .microbench import quiesced_gc
from .refengine import ReferenceEngine

__all__ = ["run_simspeed"]


def _time_scenario(setup: Callable, engine_factory: Optional[Callable],
                   scale: int, repeats: int) -> Dict[str, float]:
    best = None
    fingerprint = None
    for _ in range(max(1, repeats)):
        # fresh setup each repeat: the run phase mutates database state
        _db, run = setup(engine_factory, scale)
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


def _time_fig09(engine_factory: Optional[Callable],
                repeats: int) -> Dict[str, float]:
    best = None
    tput = None
    for _ in range(max(1, repeats)):
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            t = bionicdb_ycsb_tput(2, n_txns=60, records_per_partition=2000,
                                   engine_factory=engine_factory)
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
    """Time the end-to-end scenarios on both engines.

    ``scenarios`` restricts the per-scenario timings to the named
    subset; the fig09 entry always runs.
    """
    scale = 1 if smoke else 4
    names = list(scenarios) if scenarios is not None else list(_SETUPS)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        setup = _SETUPS[name]
        fast = _time_scenario(setup, None, scale, repeats)
        ref = _time_scenario(setup, ReferenceEngine, scale, repeats)
        if (fast["sim_ns"], fast["events_fired"]) != \
                (ref["sim_ns"], ref["events_fired"]):
            raise RuntimeError(
                f"simspeed {name}: simulated timing diverged between "
                f"engines (fast={fast} reference={ref})")
        out[name] = {
            "scale": scale,
            "repeats": max(1, repeats),
            "sim_ns": fast["sim_ns"],
            "host_seconds": fast["host_seconds"],
            "sim_ns_per_host_sec": fast["sim_ns"] / fast["host_seconds"],
            "reference_host_seconds": ref["host_seconds"],
            "speedup_vs_reference":
                ref["host_seconds"] / fast["host_seconds"],
        }
    fast = _time_fig09(None, repeats)
    ref = _time_fig09(ReferenceEngine, repeats)
    if fast["throughput_tps"] != ref["throughput_tps"]:
        raise RuntimeError(
            f"fig09 smoke: simulated throughput diverged between engines "
            f"(fast={fast['throughput_tps']} ref={ref['throughput_tps']})")
    out["fig09_ycsb_smoke"] = {
        "repeats": max(1, repeats),
        "throughput_tps": fast["throughput_tps"],
        "host_seconds": fast["host_seconds"],
        "reference_host_seconds": ref["host_seconds"],
        "speedup_vs_reference": ref["host_seconds"] / fast["host_seconds"],
    }
    return out
