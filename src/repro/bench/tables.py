"""Table 3 (message-passing latency), Table 4 (resources), §5.8 (power):
the fills of their rows in :mod:`.experiments`, which have no size."""

from __future__ import annotations

from ..comm.channels import Crossbar, RequestPacket, ResponsePacket
from ..comm.software_mp import software_mp_table
from ..core import BionicConfig, BionicDB
from ..sim import FPGA_MHZ, ClockDomain, Engine
from ..sim.power import CpuPowerModel
from .report import FigureReport

__all__ = ["table3", "table4", "power", "measure_onchip_roundtrip_ns"]

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


def table3(report: FigureReport, _n: None) -> None:
    measured_rt = measure_onchip_roundtrip_ns()
    prim, total = report.series
    for row in software_mp_table():
        report.xs.append(row.name)
        prim.add(row.primitive_latency_ns)
        total.add(row.roundtrip_latency_ns)
    report.note(f"measured on-chip roundtrip in the simulator: "
                f"{measured_rt:.1f} ns")


def table4(report: FigureReport, _n: None) -> None:
    ledger = BionicDB(BionicConfig(n_workers=4)).resource_ledger()
    ff, lut, bram = report.series
    for row in ledger.table():
        report.xs.append(row["module"])
        ff.add(float(row["ff"]))
        lut.add(float(row["lut"]))
        bram.add(float(row["bram"]))
    for module, (pff, plut, pbram) in PAPER_TABLE4.items():
        report.note(f"paper {module}: FF {pff} LUT {plut} BRAM {pbram}")


def power(report: FigureReport, _n: None) -> None:
    """BionicDB's 4 workers against the Xeon chips of Silo's 24 cores."""
    cpu_cores = 24
    fpga = BionicDB(BionicConfig(n_workers=4)).power_report()
    cpu = CpuPowerModel()
    report.xs = ["BionicDB (FPGA)", f"Xeon x{cpu.chips_for(cpu_cores)} chips"]
    series, = report.series
    series.add(fpga.total_w)
    series.add(cpu.estimate_w(cpu_cores))
    report.note(f"FPGA breakdown: static {fpga.static_w:.2f} W, logic "
                f"{fpga.logic_dynamic_w:.2f} W, BRAM {fpga.bram_dynamic_w:.2f} W, "
                f"I/O+memory {fpga.io_and_memory_w:.2f} W")
    ratio = cpu.estimate_w(cpu_cores) / fpga.total_w
    report.note(f"power ratio: {ratio:.1f}x in BionicDB's favour")
