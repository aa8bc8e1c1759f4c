"""Graceful degradation at 2x overload: the network front-end.

Drives a BionicDB at twice its saturated throughput through the
serving path (NIC -> admission control -> weighted-fair dispatch),
twice:

* admission OFF — the open-loop backlog grows without bound, latency
  climbs the hockey stick, and late commits blow the SLO;
* admission ON — a token bucket just under saturation plus a backlog
  bound sheds the excess at the door; shed requests retry with backoff
  against their original deadline, the admitted ones are dispatched
  weighted-fair (a request already past its deadline is shed, not
  served late), and goodput holds near peak.

Exits non-zero unless both runs conserve outcomes and admission ON
meets its SLO on a larger share of the offered work than admission OFF.

Run:  python examples/frontend_demo.py
"""

from repro.core import BionicConfig, BionicDB
from repro.frontend import (
    AdmissionConfig, FrontEnd, FrontendConfig, SchedulerConfig, SessionConfig,
)
from repro.isa import Gp, ProcedureBuilder
from repro.mem import TableSchema

N_KEYS = 400


def build_db() -> BionicDB:
    db = BionicDB(BionicConfig(n_workers=2))
    db.define_table(TableSchema(0, "kv", hash_buckets=1024))
    b = ProcedureBuilder("get")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    db.register_procedure(1, b.build())
    for k in range(N_KEYS):
        db.load(0, k, [f"v{k}"])
    return db


def make_factory(db):
    def factory(i):
        key = (i * 17) % N_KEYS
        home = db.schemas.table(0).route(key, db.config.n_workers)
        block = db.new_block(1, [key, None], worker=home)
        return block, home
    return factory


def saturated_tps() -> float:
    """Closed-loop burst: the machine's peak service rate."""
    db = build_db()
    fe = FrontEnd(db, FrontendConfig.passthrough())
    fe.session(make_factory(db), SessionConfig(
        name="probe", arrival="closed", concurrency=32, n_requests=1000))
    rep = fe.run()
    fe.detach()
    return rep.throughput_tps


def overload_run(saturated: float, admission: bool):
    db = build_db()
    fe = FrontEnd(db, FrontendConfig(
        admission=(AdmissionConfig(rate_tps=0.9 * saturated, burst=64,
                                   max_backlog=64)
                   if admission else AdmissionConfig()),
        scheduler=SchedulerConfig(max_inflight_per_worker=8)))
    # two tenants, both offering 1x saturation (2x total) at weights 2
    # and 1; SLO = 150 us end to end, 3 retries on shed requests
    for name, weight, seed in (("premium", 2.0, 101),
                               ("best-effort", 1.0, 202)):
        fe.session(make_factory(db), SessionConfig(
            name=name, arrival="open", rate_tps=saturated,
            n_requests=1500, weight=weight, deadline_ns=150_000.0,
            max_retries=3, retry_backoff_ns=30_000.0, seed=seed))
    rep = fe.run()
    fe.detach()
    return rep


def main() -> None:
    saturated = saturated_tps()
    print(f"saturated throughput: {saturated / 1e3:.0f} kTps "
          f"-> offering 2x that ({2 * saturated / 1e3:.0f} kTps) "
          f"across two tenants\n")
    met = {}
    for admission in (False, True):
        label = "admission ON" if admission else "admission OFF"
        rep = overload_run(saturated, admission)
        print(f"--- {label} " + "-" * (58 - len(label)))
        print(rep.render())
        met[admission] = rep.deadline_met / rep.offered * 100
        print(f"  => {met[admission]:.0f}% of offered work met its 150 us "
              f"SLO; goodput {rep.goodput_tps / 1e3:.0f} kTps, "
              f"p99 {rep.percentile_ns(99) / 1e3:.0f} us\n")
        if not rep.conserved:
            raise SystemExit(f"{label}: outcomes are not conserved")
    if met[True] <= met[False]:
        raise SystemExit("admission ON met its SLO on no larger a share of "
                         "offered work than admission OFF")


if __name__ == "__main__":
    main()
