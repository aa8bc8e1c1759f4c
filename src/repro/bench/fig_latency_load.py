"""Latency under load through the network front-end (hockey stick).

The paper's §5 methodology pre-populates input transaction blocks and
reports saturated throughput, which hides the latency-vs-load curve an
online service lives on.  With :mod:`repro.frontend` every request now
walks a NIC, an admission controller and a dispatch scheduler, so we
can sweep offered load through saturation and past it:

* **admission off** — the classic open-loop hockey stick: past the
  knee the backlog (and therefore p99) grows with every extra offered
  transaction, without bound as the run length grows.
* **admission on** — a token bucket sized just under saturation plus a
  small backlog bound sheds the excess at the door; p99 stays pinned
  near its at-capacity value and goodput holds at the bucket rate.

``measure_latency_load`` returns the raw numbers (the hockey-stick
benchmark asserts the acceptance criteria on them); ``latency_load``
fills the ``ext-frontend`` row's :class:`FigureReport` with them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core import BionicConfig, BionicDB
from ..frontend import (
    AdmissionConfig, FrontEnd, FrontendConfig, SchedulerConfig, SessionConfig,
)
from ..workloads import YcsbConfig, YcsbWorkload
from .report import FigureReport, machine_tput

__all__ = ["measure_latency_load", "latency_load"]


def _fresh():
    db = BionicDB(BionicConfig())
    workload = YcsbWorkload(YcsbConfig(records_per_partition=2000))
    workload.install(db)
    return db, workload


def _frontend_config(admission: bool, saturated: float) -> FrontendConfig:
    return FrontendConfig(
        admission=(AdmissionConfig(rate_tps=0.9 * saturated, burst=64,
                                   max_backlog=64)
                   if admission else AdmissionConfig()),
        scheduler=SchedulerConfig(max_inflight_per_worker=8),
    )


def _run_at(load: float, saturated: float, n_txns: int,
            admission: bool) -> Dict[str, float]:
    db, workload = _fresh()
    specs = workload.make_read_txns(n_txns)
    frontend = FrontEnd(db, _frontend_config(admission, saturated))

    def factory(i, _specs=specs, _w=workload, _db=db):
        spec = _specs[i % len(_specs)]
        block = _db.new_block(spec.proc_id, list(spec.inputs),
                              layout=_w.read_layout(len(spec.keys)),
                              worker=spec.home)
        return block, spec.home

    frontend.session(factory, SessionConfig(
        name=f"load-{load:g}x", arrival="open",
        rate_tps=load * saturated, n_requests=n_txns, seed=11))
    rep = frontend.run()
    frontend.detach()
    return {
        "load": load,
        "p50_us": rep.percentile_ns(50) / 1e3,
        "p99_us": rep.percentile_ns(99) / 1e3,
        "goodput_tps": rep.goodput_tps,
        "rejected": rep.rejected,
        "timed_out": rep.timed_out,
        "committed": rep.committed,
    }


def measure_latency_load(loads: Sequence[float] = (0.25, 0.5, 0.75,
                                                   1.0, 1.25, 1.5),
                         n_txns: int = 1500) -> Dict[str, object]:
    """Sweep offered load with and without admission control.

    Returns ``{"saturated_tps": ..., "on": [row...], "off": [row...]}``
    where each row is the dict produced by one open-loop run.
    """
    # peak throughput from a closed-loop burst (paper methodology)
    saturated = machine_tput(
        YcsbWorkload(YcsbConfig(records_per_partition=2000)),
        lambda w: w.make_read_txns(min(n_txns, 400)))
    rows_on: List[Dict[str, float]] = []
    rows_off: List[Dict[str, float]] = []
    for load in loads:
        rows_on.append(_run_at(load, saturated, n_txns, admission=True))
        rows_off.append(_run_at(load, saturated, n_txns, admission=False))
    return {"saturated_tps": saturated, "on": rows_on, "off": rows_off}


def latency_load(report: FigureReport, n: int) -> None:
    """Extension: YCSB-C p99 latency vs offered load (``report.xs``,
    ``n`` requests per run), with and without front-end admission
    control (the hockey-stick experiment)."""
    loads = report.xs
    data = measure_latency_load(loads, n)
    saturated = data["saturated_tps"]
    on, off = report.series
    for row_on, row_off in zip(data["on"], data["off"]):
        on.add(row_on["p99_us"])
        off.add(row_off["p99_us"])
    report.note(f"saturated closed-loop throughput: {saturated / 1e3:.1f} "
                f"kTps; admission = token bucket at 0.9x that rate, "
                f"backlog bound 64")
    peak = max(r["goodput_tps"] for r in data["on"])
    last_on, last_off = data["on"][-1], data["off"][-1]
    report.note(f"at {loads[-1]:g}x load: admission-on goodput "
                f"{last_on['goodput_tps'] / 1e3:.1f} kTps "
                f"({last_on['rejected']} shed), admission-off p99 "
                f"{last_off['p99_us']:.0f} us vs {last_on['p99_us']:.0f} us "
                f"with admission (peak goodput {peak / 1e3:.1f} kTps)")
