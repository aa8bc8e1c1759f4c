"""Table 3 (message-passing latency), Table 4 (resources), §5.8 (power)."""

from __future__ import annotations

from typing import Optional

from ..comm.channels import Crossbar, RequestPacket, ResponsePacket
from ..comm.software_mp import software_mp_table
from ..core import BionicConfig, BionicDB
from ..sim import FPGA_MHZ, ClockDomain, Engine
from ..sim.power import CpuPowerModel, FpgaPowerModel
from .report import FigureReport

__all__ = ["run_table3", "run_table4", "run_power",
           "measure_onchip_roundtrip_ns"]

#: Table 4's published per-module rows (4 workers on a Virtex-5 LX330).
PAPER_TABLE4 = {
    "Hash": (12_932, 14_504, 24),
    "Skiplist": (27_300, 35_968, 36),
    "Softcore": (7_080, 8_796, 12),
    "Catalogue": (1_484, 1_964, 8),
    "Communication": (2_482, 3_191, 8),
    "Memory arbiters": (1_192, 5_800, 0),
}


def measure_onchip_roundtrip_ns() -> float:
    """Measure a request/response pair on the simulated crossbar."""
    engine = Engine()
    xbar = Crossbar(engine, ClockDomain(engine, FPGA_MHZ), 2)
    times = {}

    def remote(pkt: RequestPacket) -> None:
        xbar.send_response(ResponsePacket(src_worker=1,
                                          dst_worker=pkt.src_worker,
                                          cp_index=0, result=None))

    def initiator(_pkt: ResponsePacket) -> None:
        times["rt"] = engine.now

    xbar.attach(0, on_request=None, on_response=initiator)
    xbar.attach(1, on_request=remote, on_response=None)
    xbar.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                    request=None))
    engine.run()
    return times["rt"]


def run_table3() -> FigureReport:
    report = FigureReport(
        "Table 3", "Latencies of message-passing methods",
        x_label="primitive", unit="ns",
        paper_expectations={
            "On-chip MP": "24 ns primitive / 48 ns per pair",
            "L3 cache": "20 ns / 40 ns",
            "DDR3": "80 ns / 320 ns",
        })
    measured_rt = measure_onchip_roundtrip_ns()
    report.xs = []
    prim = report.new_series("primitive")
    total = report.new_series("total roundtrip")
    for row in software_mp_table():
        report.xs.append(row.name)
        prim.add(row.primitive_latency_ns)
        total.add(row.roundtrip_latency_ns)
    report.note(f"measured on-chip roundtrip in the simulator: "
                f"{measured_rt:.1f} ns")
    return report


def run_table4(config: Optional[BionicConfig] = None) -> FigureReport:
    report = FigureReport(
        "Table 4", "Resource utilization of BionicDB with 4 workers",
        x_label="module", unit="count",
        paper_expectations={
            "utilization": "~70% of the Virtex-5 LX330 (FF/LUT/BRAM)",
            "skiplist share": "~50% of BionicDB's own logic",
            "BionicDB total": "~53k FFs / ~70k LUTs over 4 workers",
        })
    db = BionicDB(config or BionicConfig(n_workers=4))
    ledger = db.resource_ledger()
    report.xs = []
    ff = report.new_series("FF")
    lut = report.new_series("LUT")
    bram = report.new_series("BRAM")
    for row in ledger.table():
        report.xs.append(row["module"])
        ff.add(float(row["ff"]))
        lut.add(float(row["lut"]))
        bram.add(float(row["bram"]))
    for module, (pff, plut, pbram) in PAPER_TABLE4.items():
        report.note(f"paper {module}: FF {pff} LUT {plut} BRAM {pbram}")
    return report


def run_power(config: Optional[BionicConfig] = None,
              cpu_cores: int = 24) -> FigureReport:
    report = FigureReport(
        "Power (§5.8)", "Estimated power: BionicDB vs Xeon baseline",
        x_label="system", unit="W",
        paper_expectations={
            "BionicDB (XPE estimate)": "~11.5 W",
            "4x Xeon E7 4807 TDP": "380 W",
            "headline": "an order of magnitude power saving",
        })
    db = BionicDB(config or BionicConfig(n_workers=4))
    fpga = db.power_report()
    cpu = CpuPowerModel()
    report.xs = ["BionicDB (FPGA)", f"Xeon x{cpu.chips_for(cpu_cores)} chips"]
    series = report.new_series("power")
    series.add(fpga.total_w)
    series.add(cpu.estimate_w(cpu_cores))
    report.note(f"FPGA breakdown: static {fpga.static_w:.2f} W, logic "
                f"{fpga.logic_dynamic_w:.2f} W, BRAM {fpga.bram_dynamic_w:.2f} W, "
                f"I/O+memory {fpga.io_and_memory_w:.2f} W")
    ratio = cpu.estimate_w(cpu_cores) / fpga.total_w
    report.note(f"power ratio: {ratio:.1f}x in BionicDB's favour")
    return report
