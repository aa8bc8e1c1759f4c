"""Unit tests for the bench harness: reports, CLI plumbing."""

import pytest

from repro.bench.report import FigureReport, Series, format_quantity


class TestFormatQuantity:
    def test_units(self):
        assert format_quantity(450_000, "kTps").strip() == "450.0 kTps"
        assert format_quantity(8_500_000, "Mops").strip() == "8.500 Mops"
        assert format_quantity(48.0, "ns").strip() == "48.0 ns"
        assert format_quantity(11.54, "W").strip() == "11.54 W"


class TestFigureReport:
    def _report(self):
        r = FigureReport("Fig X", "demo", x_label="n", unit="kTps")
        r.xs = [1, 2, 4]
        a = r.new_series("A")
        b = r.new_series("B")
        for x in r.xs:
            a.add(x * 1000.0)
            b.add(x * 500.0)
        return r

    def test_value_lookup(self):
        r = self._report()
        assert r.value("A", 2) == 2000.0
        assert r.value("B", 4) == 2000.0
        with pytest.raises(KeyError):
            r.value("C", 1)
        with pytest.raises(ValueError):
            r.value("A", 99)

    def test_render_contains_rows_and_expectations(self):
        r = self._report()
        r.paper_expectations["peak"] = "~4 kTps"
        r.note("a note")
        text = r.render()
        assert "Fig X" in text and "peak" in text and "a note" in text
        assert text.count("\n") >= 6

    def test_show_returns_self(self, capsys):
        r = self._report()
        assert r.show() is r
        assert "Fig X" in capsys.readouterr().out


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9a" in out and "ext-cluster" in out

    def test_unknown_experiment_errors(self):
        from repro.bench.__main__ import main
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_quick_sizes_shrink_the_runners_defaults(self):
        """A full run uses each runner's defaults, so the registry holds
        only the smaller ``--quick`` sizes."""
        import inspect
        from repro.bench.__main__ import EXPERIMENTS
        for name, entry in EXPERIMENTS.items():
            fn, quick_kw = entry
            params = inspect.signature(fn).parameters
            for arg, value in quick_kw.items():
                assert arg in params, (name, arg)
                assert value < params[arg].default, (name, arg)

    def test_runs_one_and_writes_output(self, tmp_path, capsys):
        from repro.bench.__main__ import main
        out_file = tmp_path / "r.md"
        assert main(["table3", "-o", str(out_file)]) == 0
        assert "Table 3" in capsys.readouterr().out
        assert "Table 3" in out_file.read_text()


class TestClosedLoopDriver:
    """Every direct-to-pipeline figure runs on ``drive_closed_loop``;
    these are the values each hand-written client loop produced, held
    bit-equal (requests are still built after the token is acquired, so
    RNG draws and event order did not move)."""

    def test_completions_come_back_in_completion_order(self):
        from repro.bench.report import drive_closed_loop
        from repro.sim import Engine
        engine = Engine()
        in_flight = []

        def submit_one(i, on_complete):
            in_flight.append(i)
            assert len(in_flight) <= 2
            delay = 30 if i == 0 else 10

            def finish(i):
                in_flight.remove(i)
                on_complete(i, engine.now)
            engine.call_fn_at(engine.now + delay, finish, i)

        done = drive_closed_loop(engine, 4, 2, submit_one)
        assert [req for req, _t in done] == [1, 2, 0, 3]
        assert [t for _req, t in done] == [10, 20, 30, 30]

    def test_figure_points_are_bit_equal(self):
        from repro.bench.ablations import (
            _conflicted_search_tput, run_hazard_prevention_cost,
        )
        from repro.bench.fig10 import kv_throughput
        from repro.bench.fig_index3 import (
            index_kv_throughput, range_scan_sweep_point,
        )
        assert kv_throughput("search", 16, 400) == 5535872.453498671
        assert kv_throughput("insert", 8, 400) == 3213780.6916056043
        assert index_kv_throughput("skiplist", "scan", 8, 120) == \
            43090.32306251543
        assert index_kv_throughput("skiplist", "insert", 4, 120) == \
            680333.8171262699
        assert index_kv_throughput("bptree", "search", 16, 200) == \
            2615883.6454954483
        assert range_scan_sweep_point("bptree", 20, n_ops=60) == \
            (101153.14586283633, 0)
        assert _conflicted_search_tput(2, n_ops=200) == 313185.0923896023
        assert run_hazard_prevention_cost(200).series[0].ys == \
            [2032189.8878231181, 2199542.495161006]


class TestFiguresMeasureTheMachine:
    """The figures that drive index pipelines directly must measure the
    pipelines a machine's partition workers run: every charge, port
    interval and count equal.  The charges are class constants, so a
    pipeline built with no arguments must match a worker's as well; a
    figure measuring a cheaper scanner would report a faster Figure 11c."""

    @staticmethod
    def _shape(pipe) -> dict:
        ns = pipe.clock.ns
        shape = {
            "ns_per_cycle": pipe.clock.ns_per_cycle,
            "dram_latency_ns": pipe.dram.latency_ns,
            "dram_channels": pipe.dram.channels,
            "stage_ns": list(pipe._delay),
            "charges_ns": {name: ns(getattr(pipe, name)) for name in dir(pipe)
                           if name.endswith("_cycles")},
            "derived_ns": {k: v for k, v in vars(pipe).items()
                           if k.endswith("_ns")},
            "issue_ns": (pipe.read_port.issue_interval_ns,
                         pipe.write_port.issue_interval_ns),
        }
        for count in ("n_stages", "n_scanners", "n_traverse_stages",
                      "max_height", "fanout", "wave_size"):
            if hasattr(pipe, count):
                shape[count] = getattr(pipe, count)
        return shape

    @pytest.mark.parametrize("kind", ["hash", "skiplist", "bptree"])
    def test_bare_pipelines_match_a_workers(self, kind):
        from repro.bench.report import bare_dram, bare_pipelines
        from repro.core import BionicDB
        _engine, _dram, (driven, *_rest) = bare_pipelines(kind, 2, 16)
        worker = BionicDB().workers[0]
        machine = {"hash": worker.hash_pipe, "skiplist": worker.skiplist_pipe,
                   "bptree": worker.bptree_pipe}[kind]
        assert type(driven) is type(machine)
        assert self._shape(driven) == self._shape(machine)
        engine, clock, dram = bare_dram()
        default = type(machine)(engine, clock, dram, "default")
        assert self._shape(default) == self._shape(machine)
        if kind != "hash":
            assert default._emit_ns == driven._emit_ns == 145 * 8.0


class TestMachinePoints:
    """The whole-machine figure points (YCSB / TPC-C streams on a
    ``BionicDB``, Figs 9, 10b-d, 12, 13, the line-buffer ablation and
    the front end's saturated point), held bit-equal at small sizes to
    the values their hand-built runners returned."""

    def test_machine_points_are_bit_equal(self):
        from repro.bench.ablations import run_line_buffer_ablation
        from repro.bench.report import machine_tput
        from repro.core import BionicConfig
        from repro.softcore import SoftcoreConfig
        from repro.workloads import (
            TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
        )

        def ycsb(records=5000, **kw):
            return YcsbWorkload(YcsbConfig(records_per_partition=records,
                                           **kw))

        def tpcc(**kw):
            return TpccWorkload(TpccConfig(items=2000,
                                           customers_per_district=100, **kw))

        def reads(n, **kw):
            return lambda w: w.make_read_txns(n, **kw)

        def mix(n, **kw):
            return lambda w: w.make_mix(n, **kw)

        def interleaving(on):
            return BionicConfig(softcore=SoftcoreConfig(interleaving=on))

        two = BionicConfig(n_workers=2)
        assert machine_tput(ycsb(n_partitions=2), reads(40), two) == \
            196664.5689112649
        assert machine_tput(tpcc(n_partitions=2), mix(40), two) == \
            74687.06121351536
        assert machine_tput(tpcc(), mix(40, neworder_fraction=1.0),
                            in_flight=8) == 50291.185966747464
        assert machine_tput(ycsb(), reads(40), in_flight=8) == \
            200136.0925429292
        assert machine_tput(ycsb(reads_per_txn=4), reads(40, reads_per_txn=4),
                            interleaving(False), procedures={4}) == \
            890154.8869503293
        assert machine_tput(tpcc(), mix(40, neworder_fraction=0.0),
                            interleaving(True)) == 412507.2188763303
        assert machine_tput(ycsb(remote_fraction=0.75), reads(40)) == \
            368459.8378776713
        assert machine_tput(ycsb(2000), reads(40)) == 374055.5098376599
        assert run_line_buffer_ablation(40).series[0].ys == \
            [412507.2188763303, 299958.0058791769]
