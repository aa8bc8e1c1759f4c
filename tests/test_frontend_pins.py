"""Seven front-end scenarios, pinned to the last simulated nanosecond.

Each scenario drives a small machine through one corner of the serving
path — link and RX ring, admission, weighted-fair dispatch and its
windows, closed and open arrivals, retries with jitter and NIC
faults — and keeps as literals:

* a digest of every request's ``(session, index, outcome, reason,
  created_at_ns, done_at_ns, attempts, status, commit_ts)``;
* the drained ``engine.now``;
* a digest of ``repr(FrontendReport)`` (it carries every committed
  latency, so the literal would not fit on a page);
* a digest of every ``frontend.*`` counter.

A change to the serving path that moves any same-instant order, any
RNG draw or any wake-up instant shows up here.  To re-derive a pin,
``python tests/test_frontend_pins.py`` prints the observations of the
current tree.
"""

import hashlib

import pytest

from repro.faults import FaultPlan, NIC_CORRUPT, NIC_DROP, NIC_DUPLICATE
from repro.frontend import (
    AdmissionConfig, FrontEnd, FrontendConfig, NicConfig, SchedulerConfig,
    SessionConfig,
)

from test_frontend import make_db, make_factory


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _passthrough_two_sessions():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig.passthrough())
    fe.session(make_factory(db), SessionConfig(
        name="a", arrival="open", rate_tps=900_000.0, n_requests=40, seed=4))
    fe.session(make_factory(db), SessionConfig(
        name="b", arrival="open", rate_tps=600_000.0, n_requests=25,
        seed=9))
    return db, fe


def _default_nic_backlog_deadlines():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig(
        admission=AdmissionConfig(max_backlog=16)))
    fe.session(make_factory(db), SessionConfig(
        name="slo", arrival="open", rate_tps=3_000_000.0, n_requests=120,
        deadline_ns=12_000.0, seed=5))
    return db, fe


def _rx_ring_retries_jitter():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig(
        nic=NicConfig(rx_queue_depth=4, rx_process_ns=500.0),
        admission=AdmissionConfig()))
    fe.session(make_factory(db), SessionConfig(
        name="jitter", arrival="open", rate_tps=4_000_000.0, n_requests=80,
        max_retries=3, retry_backoff_ns=5_000.0, retry_jitter=0.5, seed=6))
    fe.session(make_factory(db), SessionConfig(
        name="late", arrival="open", rate_tps=4_000_000.0, n_requests=30,
        max_retries=2, retry_backoff_ns=0.0, start_ns=7_000.0, seed=7))
    return db, fe


def _closed_think():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig())
    fe.session(make_factory(db), SessionConfig(
        name="closed", arrival="closed", concurrency=3, n_requests=45,
        think_ns=2_000.0, seed=8))
    return db, fe


def _closed_no_think_offset():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig.passthrough())
    fe.session(make_factory(db), SessionConfig(
        name="tight", arrival="closed", concurrency=4, n_requests=40,
        start_ns=3_000.0, seed=10))
    return db, fe


def _weighted_fair_window_1():
    db = make_db()
    fe = FrontEnd(db, FrontendConfig(
        scheduler=SchedulerConfig(max_inflight_per_worker=1)))
    fe.session(make_factory(db), SessionConfig(
        name="heavy", arrival="open", rate_tps=2_500_000.0, n_requests=50,
        weight=2.0, seed=13))
    fe.session(make_factory(db), SessionConfig(
        name="light", arrival="open", rate_tps=2_500_000.0, n_requests=50,
        seed=14))
    return db, fe


def _nic_faults_retries():
    db = make_db()
    plan = FaultPlan(seed=3)
    plan.arm(NIC_DROP, prob=0.1, times=None)
    plan.arm(NIC_CORRUPT, prob=0.05, times=None)
    plan.arm(NIC_DUPLICATE, prob=0.1, times=None)
    fe = FrontEnd(db, FrontendConfig(
        nic=NicConfig(rx_queue_depth=8, rx_process_ns=200.0)), faults=plan)
    fe.session(make_factory(db), SessionConfig(
        name="lossy", arrival="open", rate_tps=1_500_000.0, n_requests=90,
        max_retries=4, retry_backoff_ns=3_000.0, retry_jitter=0.25, seed=15))
    return db, fe


SCENARIOS = {
    "passthrough_two_sessions": _passthrough_two_sessions,
    "default_nic_backlog_deadlines": _default_nic_backlog_deadlines,
    "rx_ring_retries_jitter": _rx_ring_retries_jitter,
    "closed_think": _closed_think,
    "closed_no_think_offset": _closed_no_think_offset,
    "weighted_fair_window_1": _weighted_fair_window_1,
    "nic_faults_retries": _nic_faults_retries,
}


def observe(name):
    db, fe = SCENARIOS[name]()
    report = fe.run()
    fe.detach()
    assert report.conserved
    rows = []
    for sess in fe.sessions:
        for req in sess.requests:
            header = req.block.header
            rows.append((sess.id, req.index, req.outcome, req.reason,
                         req.created_at_ns, req.block.done_at_ns,
                         req.attempts, header.status.value,
                         header.commit_ts))
    counters = sorted(db.stats.by_prefix("frontend.").items())
    return {
        "requests": _digest(repr(rows)),
        "now": db.engine.now,
        "report": _digest(repr(report)),
        "counters": _digest(repr(counters)),
    }


PINNED = {
    "passthrough_two_sessions": {
        "requests": "4603bdcc27e7bb82", "now": 47187.16715164358,
        "report": "d32feffbced51b38", "counters": "e7ff32fd2b0f1f74"},
    "default_nic_backlog_deadlines": {
        "requests": "c1459cc8211029c8", "now": 60863.2,
        "report": "692fbcc09c0c4e80", "counters": "0ee93bc36160774a"},
    "rx_ring_retries_jitter": {
        "requests": "39bcb4305027eb40", "now": 64715.2,
        "report": "465df3faf139a2b9", "counters": "9b73b5e655f79a44"},
    "closed_think": {
        "requests": "2242ca82b36b3dc3", "now": 93622.32508601497,
        "report": "fc1659099ab387ee", "counters": "b715a39b400a25cf"},
    "closed_no_think_offset": {
        "requests": "a42582ab06615f4a", "now": 46296.0,
        "report": "af779e139040475c", "counters": "98f9b6eeda0bb058"},
    "weighted_fair_window_1": {
        "requests": "a7e8cb45151be35d", "now": 163047.2,
        "report": "32aa245dc91199f5", "counters": "08656dd25959ba3d"},
    "nic_faults_retries": {
        "requests": "5c186872c7fc80e7", "now": 77933.84557899632,
        "report": "2280eae484e0418c", "counters": "6bb40c81d3b13b6e"},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_pinned(name):
    assert observe(name) == PINNED[name]


if __name__ == "__main__":
    for name in SCENARIOS:
        print(f"    {name!r}: {observe(name)!r},")
