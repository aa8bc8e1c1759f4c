"""Open-loop Poisson clients: one session through a pass-through front-end."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.frontend import FrontEnd, FrontendConfig, SessionConfig
from repro.workloads import YcsbConfig, YcsbWorkload


def build():
    db = BionicDB(BionicConfig())
    workload = YcsbWorkload(YcsbConfig(records_per_partition=1500))
    workload.install(db)
    return db, workload


def make_factory(db, workload, specs):
    def make_txn(i):
        spec = specs[i]
        block = db.new_block(spec.proc_id, list(spec.inputs),
                             layout=workload.read_layout(len(spec.keys)),
                             worker=spec.home)
        return block, spec.home
    return make_txn


def run_open_loop(db, factory, n_txns, offered_tps, seed=1):
    frontend = FrontEnd(db, FrontendConfig.passthrough())
    frontend.session(factory, SessionConfig(
        name="open-loop", rate_tps=offered_tps, n_requests=n_txns,
        seed=seed))
    return frontend.run()


class TestOpenLoop:
    def test_all_arrivals_complete(self):
        db, workload = build()
        specs = workload.make_read_txns(50)
        report = run_open_loop(db, make_factory(db, workload, specs), 50,
                               offered_tps=50_000)
        assert report.committed == 50 and report.conserved
        assert len(report.sessions[0].latencies_ns) == 50
        assert report.mean_latency_ns > 0

    def test_achieved_tracks_offered_below_saturation(self):
        db, workload = build()
        specs = workload.make_read_txns(80)
        report = run_open_loop(db, make_factory(db, workload, specs), 80,
                               offered_tps=100_000)
        assert 0.5 < report.throughput_tps / 100_000 < 2.0

    def test_latency_rises_under_heavier_load(self):
        def p99_at(rate):
            db, workload = build()
            specs = workload.make_read_txns(80)
            report = run_open_loop(db, make_factory(db, workload, specs),
                                   80, offered_tps=rate, seed=3)
            return report.percentile_ns(99)

        assert p99_at(350_000) > p99_at(40_000)

    def test_bad_rate_rejected(self):
        db, _workload = build()
        with pytest.raises(ValueError):
            run_open_loop(db, lambda i: (None, 0), 1, offered_tps=0)

    def test_percentile_validation(self):
        db, workload = build()
        specs = workload.make_read_txns(10)
        report = run_open_loop(db, make_factory(db, workload, specs), 10,
                               offered_tps=50_000)
        with pytest.raises(ValueError):
            report.percentile_ns(101)
