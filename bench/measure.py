"""Run one point and turn what was observed into the declared metrics.

Everything is read from outside the program: spans around public
calls, ``db.stats.snapshot()``, ``db.engine.events_fired`` /
``db.engine.now``, block headers and ``FrontendReport``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import math
import re
import resource
import statistics
from collections import Counter
from time import perf_counter

from repro.mem import TxnStatus

from . import attribution
from .metrics import PER_LAYER, SLO_P99_US, names
from .spans import GcWatch, Spans, instrumented

__all__ = ["run_point", "nearest_rank", "rel_iqr", "SETUP_REPEATS"]

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

_WORKER_PREFIX = re.compile(r"^(worker|w)\d+\.")


def nearest_rank(sorted_values, p: float) -> float:
    # repro.sim.stats has the same three lines, outside the import surface
    # this benchmark keeps to
    return sorted_values[max(1, math.ceil(len(sorted_values) * p / 100)) - 1]


def rel_iqr(values):
    """Quartile distance as a share of the median; None below 2 values."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def per(total, count) -> float:
    return total / count if count else 0.0


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def counters(dbs) -> Counter:
    """Public counters summed over workers and databases."""
    out = Counter()
    for db in dbs:
        out["events"] += db.engine.events_fired
        for key, value in db.stats.snapshot().items():
            out[_WORKER_PREFIX.sub("", key)] += value
    return out


def run_point(point, traced: bool = False, trace_path=None) -> dict:
    """Set up, generate, run, check and tear down ``point``.

    Untraced, the set-up is then repeated so ``setup_s`` is a median.
    Traced, the run is cut to a quarter of the bursts, ``load`` and
    ``drain`` run under cProfile, and only per-layer numbers are kept.
    """
    spans, watch = Spans(), GcWatch()
    load_profile = cProfile.Profile() if traced else None
    drain_profile = cProfile.Profile() if traced else None
    digest = hashlib.sha256()
    outcomes, latencies = [], []
    rss_start = maxrss_bytes()

    with watch, spans.span("point"):
        watch.phase = "setup"
        with spans.span("setup") as setup_span:
            point.setup(spans, load_profile)
        rss_loaded = maxrss_bytes()
        watch.phase = None
        with spans.span("gen"):
            bursts = point.generate()
        if traced:
            bursts = point.traced_subset(bursts)

        watch.phase = "run"
        before = counters(point.dbs)
        blocks = []
        with spans.span("run") as run_span:
            for b, burst in enumerate(bursts):
                db = point.dbs[burst.db]
                sim_start = db.engine.now
                with spans.span("burst", burst=b) as burst_span, \
                        instrumented(spans, db, drain_profile,
                                     profiled=("run",), new_block="new_block",
                                     submit="submit", run="drain"):
                    burst_blocks = point.run_burst(burst)
                    with spans.span("report"):
                        lat = _report(b, burst_blocks, sim_start, digest)
                row = spans.rows[burst_span]
                outcomes.append({
                    "kind": burst.kind, "host_s": row[2] - row[1],
                    "offered": len(burst.specs), "committed": len(lat),
                    "elapsed_ns": db.engine.now - sim_start})
                if burst.in_latency:
                    latencies += lat
                blocks.append(burst_blocks)
        watch.phase = None
        delta = counters(point.dbs)
        delta.subtract(before)

        with spans.span("check"):
            problems = point.check(bursts, blocks)
        with spans.span("teardown"):
            point.teardown()
            del blocks, burst_blocks, db
            gc.collect()

    setup_samples = [spans.total("setup")]
    if not traced:
        for _ in range(SETUP_REPEATS - 1):
            start = perf_counter()
            point.setup(Spans())
            setup_samples.append(perf_counter() - start)
            point.teardown()
            gc.collect()

    counted = [o for b, o in zip(bursts, outcomes) if b.in_failed]
    attempted = sum(o["offered"] for o in counted)
    failed = (sum(o["offered"] - o["committed"] for o in counted)
              + len(problems))
    latencies.sort()
    run_s = sum(o["host_s"] for o in outcomes)
    gen_s, teardown_s = spans.total("gen"), spans.total("teardown")
    setup_s = statistics.median(setup_samples)
    end_to_end = {
        "setup_s": setup_s,
        "run_s": run_s,
        "point_s": setup_s + gen_s + run_s + teardown_s,
        "peak_rss_mb": maxrss_bytes() / 2**20,
        "sim_tps": _sim_tps([o for b, o in zip(bursts, outcomes)
                             if b.in_tps]),
        "sim_p50_us": nearest_rank(latencies, 50) / 1e3,
        "sim_p99_us": nearest_rank(latencies, 99) / 1e3,
    }

    layers = _layer_metrics(point, spans, setup_span, run_span, watch, delta,
                            bursts, outcomes,
                            rss_loaded - rss_start)
    if traced:
        layers.update({f"trace.share.{k}": v for k, v in
                       attribution.run_shares(drain_profile).items()})
        layers.update({f"trace.load_share.{k}": v for k, v in
                       attribution.load_shares(load_profile).items()})
        if trace_path is not None:
            spans.write_chrome_trace(trace_path)

    return {
        "workload": point.name, "derived_seed": point.seed,
        "seconds": point.seconds, "scale": point.scale, "traced": traced,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "spread": {"setup_s": rel_iqr(setup_samples),
                   "run_s": _run_spread(outcomes)},
        "setup_samples": setup_samples,
        "bursts": outcomes,
        "latency_samples": len(latencies),
        "attempted": attempted, "failed": failed,
        "problems": problems[:10],
        "correct": failed == 0,
        "sim_fingerprint": digest.hexdigest(),
        "self_times": _self_time_by_name(spans),
    }


def _report(b, blocks, sim_start, digest) -> list:
    """Fold one burst's outcomes into the fingerprint; return the
    simulated latencies (ns) of its committed transactions, measured
    from when each was due: its arrival instant behind a front-end,
    the burst's start otherwise."""
    latencies = []
    for i, block in enumerate(blocks):
        header = block.header
        digest.update(f"{b},{i},{header.status.value},{header.commit_ts},"
                      f"{block.done_at_ns!r};".encode())
        if header.status is TxnStatus.COMMITTED:
            due = (block.created_at_ns if block.created_at_ns is not None
                   else sim_start)
            latencies.append(block.done_at_ns - due)
    return latencies


def _sim_tps(outcomes) -> float:
    return per(sum(o["committed"] for o in outcomes),
               sum(o["elapsed_ns"] for o in outcomes) * 1e-9)


def _of_kind(outcomes, prefix):
    return [o for o in outcomes if o["kind"].startswith(prefix)]


def _run_spread(outcomes):
    """Relative quartile spread of ``run_s`` estimated inside one run:
    per burst kind, the quartile distance of its bursts' host times,
    combined as independent errors of a sum.  None when no kind has
    two bursts to compare (``serve_multisite``: one burst per rate)."""
    variance, known = 0.0, False
    for kind in {o["kind"] for o in outcomes}:
        times = [o["host_s"] for o in outcomes if o["kind"] == kind]
        if len(times) >= 2:
            q1, _q2, q3 = statistics.quantiles(times, n=4)
            variance += len(times) * (q3 - q1) ** 2
            known = True
    total = sum(o["host_s"] for o in outcomes)
    return math.sqrt(variance) / total if known and total else None


def _self_time_by_name(spans) -> dict:
    """Self time summed per span name, ``[n]`` suffixes folded."""
    out = Counter()
    for row, own in zip(spans.rows, spans.self_times()):
        out[row[0].partition("[")[0]] += own
    return dict(out)


def _layer_metrics(point, spans, setup_span, run_span, watch, c, bursts,
                   outcomes, load_rss_bytes) -> dict:
    """Every span- and count-kind metric; trace-kind ones default to 0."""
    out = dict.fromkeys(names(PER_LAYER), 0.0)
    txns = c["committed"]
    attempts = txns + c["aborted"]
    registers = spans.durations("register[", setup_span)
    load_s = spans.total("load", setup_span)
    drain_s = spans.total("drain", run_span)
    out.update({
        "core.build_s": spans.total("build", setup_span),
        "core.register_s": sum(registers),
        "core.register_ms_per_proc": per(sum(registers) * 1e3, len(registers)),
        "core.load_s": load_s,
        "core.load_us_per_row": per(load_s * 1e6, point.rows),
        "core.load_rss_bytes_per_row": per(load_rss_bytes, point.rows),
        "gc.setup_s": watch.seconds.get("setup", 0.0),
        "gc.run_s": watch.seconds.get("run", 0.0),
        "gc.gen2_collections": watch.gen2_collections,
        "workloads.gen_s": spans.total("gen"),
        "core.new_block_us": statistics.fmean(
            spans.durations("new_block", run_span)) * 1e6,
        "core.submit_us": statistics.fmean(
            spans.durations("submit", run_span)) * 1e6,
        "core.drain_s": drain_s,
        "core.teardown_s": spans.total("teardown"),
        "sim.engine.events_per_txn": per(c["events"], txns),
        "sim.engine.host_us_per_event": per(drain_s * 1e6, c["events"]),
        "sim.memory.dram_reads_per_txn": per(c["dram.reads"], txns),
        "sim.memory.dram_writes_per_txn": per(c["dram.writes"], txns),
        "softcore.instr_per_txn": per(c["instructions"], txns),
        "softcore.db_instr_per_txn": per(c["db_instructions"], txns),
        "softcore.txns_per_batch": per(attempts, c["batches"]),
        "index.hash.ops_per_txn": per(c["hash.completed"], txns),
        "index.hash.errors": c["hash.errors"],
        "comm.msgs_per_txn": per(c["comm.messages"], txns),
        "dora.remote_db_instr_share": per(c["remote_db_instructions"],
                                          c["db_instructions"]),
        "txn.abort_share": per(c["aborted"], attempts),
        "txn.attempts_per_commit": per(attempts, txns),
    })
    for index in ("skiplist", "bptree"):
        mine = _of_kind(outcomes, f"{index}.")
        host_s = sum(o["host_s"] for o in mine)
        out.update({
            f"index.{index}.run_s": host_s,
            f"index.{index}.host_us_per_op":
                per(host_s * 1e6, c[f"{index}.completed"]),
            f"index.{index}.point_sim_tps":
                _sim_tps(_of_kind(outcomes, f"{index}.point")),
            f"index.{index}.scan_sim_tps":
                _sim_tps(_of_kind(outcomes, f"{index}.scan")),
            f"index.{index}.errors": c[f"{index}.errors"],
        })
    out["index.bptree.node_fetches_per_op"] = per(c["bptree.node_fetches"],
                                                  c["bptree.completed"])
    out["index.bptree.waves"] = c["bptree.waves"]

    served = [(b, o) for b, o in zip(bursts, outcomes) if "report" in b.extra]
    best = 0.0
    for burst, _o in served:
        report, rate = burst.extra["report"], burst.kind
        p99_us = report.percentile_ns(99) / 1e3
        shed = report.rejected + report.timed_out
        out.update({
            f"frontend.p50_us.{rate}": report.percentile_ns(50) / 1e3,
            f"frontend.p99_us.{rate}": p99_us,
            f"frontend.goodput_tps.{rate}": report.goodput_tps,
            f"frontend.shed_share.{rate}": per(shed, report.offered),
        })
        if p99_us <= SLO_P99_US and not shed:
            best = max(best, burst.rate_tps)
    if served:
        out["frontend.nic_dropped"] = c["frontend.nic.rx_dropped"]
        out["frontend.max_rate_tps"] = best
        out["frontend.host_us_per_req"] = per(
            sum(o["host_s"] for _b, o in served) * 1e6,
            sum(o["offered"] for _b, o in served))
    return out
