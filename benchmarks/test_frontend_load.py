"""Latency-under-load through the network front-end (hockey stick).

This test asserts the experiment's acceptance criteria, not just that
it runs:

* with admission control, p99 at 1.5x saturation stays within 10x of
  p99 at 0.5x load, and goodput at 1.5x stays within 15% of peak;
* without admission control, the open-loop backlog shows up as p99
  growing far past the admission-on curve at the same offered load.
"""

from repro.bench.fig_latency_load import measure_latency_load


def _row(rows, load):
    return next(r for r in rows if r["load"] == load)


def test_hockey_stick_acceptance():
    data = measure_latency_load(loads=(0.5, 1.0, 1.5), n_txns=800)
    on, off = data["on"], data["off"]

    # admission on: the curve stays on the flat part of the stick
    p99_low = _row(on, 0.5)["p99_us"]
    p99_over = _row(on, 1.5)["p99_us"]
    assert p99_over <= 10 * p99_low, (
        f"admission-on p99 blew up under overload: "
        f"{p99_over:.0f}us vs {p99_low:.0f}us at half load")

    peak = max(r["goodput_tps"] for r in on)
    goodput_over = _row(on, 1.5)["goodput_tps"]
    assert goodput_over >= 0.85 * peak, (
        f"admission-on goodput collapsed: {goodput_over:.0f} vs "
        f"peak {peak:.0f}")
    assert _row(on, 1.5)["rejected"] > 0     # the excess was shed, not served

    # admission off: unbounded queueing — the same overload lands in
    # the dispatch backlog and p99 keeps growing with offered load
    off_over = _row(off, 1.5)["p99_us"]
    assert off_over > 2 * p99_over, (
        f"without admission p99 should exceed the admission-on curve: "
        f"{off_over:.0f}us vs {p99_over:.0f}us")
    assert _row(off, 1.5)["p99_us"] > _row(off, 1.0)["p99_us"] > p99_low

    # conservation held everywhere
    for row in on + off:
        assert (row["committed"] + row["rejected"] + row["timed_out"]
                <= 800)
