"""FPGA resource ledger — reproduces Table 4 of the paper.

Every simulated hardware module registers its flip-flop (FF), look-up
table (LUT) and block-RAM (BRAM) consumption here.  Default per-module
figures are derived from Table 4 (which reports totals for a 4-worker
BionicDB on a Virtex-5 LX330) divided into per-worker and per-scalable-
component shares, so configurations with extra Traverse stages, deeper
skiplist pipelines or additional scanners are costed consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["ResourceVector", "ResourceLedger", "VIRTEX5_LX330",
           "ULTRASCALE_PLUS", "HC2_INFRASTRUCTURE", "F1_SHELL", "DEVICES",
           "per_worker_costs"]


@dataclass(frozen=True)
class ResourceVector:
    """A (FF, LUT, BRAM) triple; supports + and integer *."""

    ff: int = 0
    lut: int = 0
    bram: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.ff + other.ff, self.lut + other.lut,
                              self.bram + other.bram)

    def __mul__(self, n: int) -> "ResourceVector":
        return ResourceVector(self.ff * n, self.lut * n, self.bram * n)

    __rmul__ = __mul__

    def fits_in(self, device: "ResourceVector") -> bool:
        return self.ff <= device.ff and self.lut <= device.lut and self.bram <= device.bram


#: The target device of the paper: Xilinx Virtex-5 LX330.
VIRTEX5_LX330 = ResourceVector(ff=207_360, lut=207_360, bram=288)

#: A datacenter-grade device (Virtex Ultrascale+ VU9P class, as in AWS
#: F1) — the §5.2/§7 scale-up target "that could accommodate tens or
#: hundreds of BionicDB workers".
ULTRASCALE_PLUS = ResourceVector(ff=2_364_480, lut=1_182_240, bram=2_160)

#: Convey HC-2 platform infrastructure (host interface, crossbar memory
#: interconnect, vendor processor) — consumed but unused by BionicDB.
HC2_INFRASTRUCTURE = ResourceVector(ff=98_507, lut=76_639, bram=103)

#: An F1-style shell (DMA, PCIe, DDR controllers) for the scale-up study.
F1_SHELL = ResourceVector(ff=250_000, lut=180_000, bram=300)

DEVICES = {
    "virtex5": (VIRTEX5_LX330, HC2_INFRASTRUCTURE),
    "ultrascale_plus": (ULTRASCALE_PLUS, F1_SHELL),
}


def per_worker_costs() -> Dict[str, ResourceVector]:
    """Per-worker module costs, decomposed from Table 4 (4 workers).

    Table 4 totals (4 workers): hash 12,932/14,504/24; skiplist
    27,300/35,968/36; softcore 7,080/8,796/12; catalogue 1,484/1,964/8;
    communication 2,482/3,191/8; memory arbiters 1,192/5,800/0.
    Scalable sub-components (extra Traverse stages, skiplist stages,
    scanners) carry their own vectors so ablation configs are costed.
    """
    return {
        # hash pipeline: 5 fixed stages + lock table; one Traverse stage
        # included in the per-worker base, extras cost hash.traverse.
        "hash.base": ResourceVector(ff=2783, lut=3126, bram=5),
        "hash.traverse": ResourceVector(ff=450, lut=500, bram=1),
        # skiplist: base control + per-stage + per-scanner
        "skiplist.base": ResourceVector(ff=925, lut=1292, bram=0),
        "skiplist.stage": ResourceVector(ff=650, lut=850, bram=1),
        "skiplist.scanner": ResourceVector(ff=700, lut=900, bram=1),
        # B+ tree: base control (wave former + node cache tags) + per-stage
        "bptree.base": ResourceVector(ff=1040, lut=1380, bram=1),
        "bptree.stage": ResourceVector(ff=720, lut=940, bram=2),
        "softcore": ResourceVector(ff=1770, lut=2199, bram=3),
        "catalogue": ResourceVector(ff=371, lut=491, bram=2),
        "communication": ResourceVector(ff=620, lut=798, bram=2),
        "memory_arbiter": ResourceVector(ff=298, lut=1450, bram=0),
    }


@dataclass
class ResourceLedger:
    """Accumulates module instances and checks device fit."""

    device: ResourceVector = VIRTEX5_LX330
    platform: ResourceVector = HC2_INFRASTRUCTURE
    entries: List = field(default_factory=list)  # (module, instance, vec)

    def add(self, module: str, vec: ResourceVector, instance: str = "") -> None:
        self.entries.append((module, instance, vec))

    def module_total(self, module: str) -> ResourceVector:
        total = ResourceVector()
        for mod, _inst, vec in self.entries:
            if mod == module:
                total = total + vec
        return total

    def modules(self) -> List[str]:
        seen: List[str] = []
        for mod, _inst, _vec in self.entries:
            if mod not in seen:
                seen.append(mod)
        return seen

    @property
    def design_total(self) -> ResourceVector:
        total = ResourceVector()
        for _mod, _inst, vec in self.entries:
            total = total + vec
        return total + self.platform

    def utilization(self) -> Dict[str, float]:
        t = self.design_total
        return {
            "ff": t.ff / self.device.ff,
            "lut": t.lut / self.device.lut,
            "bram": t.bram / self.device.bram,
        }

    def fits(self) -> bool:
        return self.design_total.fits_in(self.device)

    def table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table 4 of the paper."""
        rows: List[Dict[str, object]] = []
        for mod in self.modules():
            vec = self.module_total(mod)
            rows.append({"module": mod, "ff": vec.ff, "lut": vec.lut, "bram": vec.bram})
        name = ("HC-2 modules" if self.platform is HC2_INFRASTRUCTURE
                else "Platform shell")
        rows.append({"module": name, "ff": self.platform.ff,
                     "lut": self.platform.lut, "bram": self.platform.bram})
        total = self.design_total
        rows.append({"module": "Total", "ff": total.ff, "lut": total.lut,
                     "bram": total.bram})
        util = self.utilization()
        rows.append({"module": "Utilization", "ff": round(util["ff"], 3),
                     "lut": round(util["lut"], 3), "bram": round(util["bram"], 3)})
        return rows
