"""Power models — reproduces §5.8 of the paper.

The paper's FPGA number (≈11.5 W) comes from the Xilinx Power Estimator
(XPE), itself an analytic model over resource counts and activity.  We
mirror that: static device power plus activity-weighted dynamic power
per consumed FF/LUT/BRAM plus a fixed memory-interface/I/O term.  The
coefficients are calibrated so the paper's default 4-worker design on a
Virtex-5 LX330 lands at ≈11.5 W.

The CPU side uses the thermal design power ledger the paper uses: one
Xeon E7 4807 chip is 95 W TDP and hosts six cores; four chips = 380 W.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resources import ResourceLedger, ResourceVector

__all__ = ["FpgaPowerModel", "CpuPowerModel", "PowerReport"]


@dataclass(frozen=True)
class PowerReport:
    static_w: float
    logic_dynamic_w: float
    bram_dynamic_w: float
    io_and_memory_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.logic_dynamic_w + self.bram_dynamic_w + self.io_and_memory_w


class FpgaPowerModel:
    """XPE-style estimate for a Virtex-5 class device (65 nm)."""

    static_w = 3.2
    lut_dynamic_w = 19.0e-6
    ff_dynamic_w = 10.0e-6
    bram_dynamic_w_per_block = 8.0e-3
    io_and_memory_w = 2.45
    reference_activity = 0.125

    def estimate(self, ledger: ResourceLedger, activity: float | None = None) -> PowerReport:
        """Estimate total power for the design in ``ledger``.

        ``activity`` is the average toggle rate; XPE-style estimates are
        linear in it.  Defaults to the reference activity used for the
        headline 11.5 W figure.
        """
        act = self.reference_activity if activity is None else activity
        scale = act / self.reference_activity
        total: ResourceVector = ledger.design_total
        logic = (total.lut * self.lut_dynamic_w + total.ff * self.ff_dynamic_w) * scale
        bram = total.bram * self.bram_dynamic_w_per_block * scale
        return PowerReport(
            static_w=self.static_w,
            logic_dynamic_w=logic,
            bram_dynamic_w=bram,
            io_and_memory_w=self.io_and_memory_w,
        )


class CpuPowerModel:
    """TDP ledger for the Xeon E7 4807 baseline (6 cores / 95 W / chip)."""

    tdp_per_chip_w = 95.0
    cores_per_chip = 6

    def chips_for(self, cores: int) -> int:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        return -(-cores // self.cores_per_chip)  # ceil division

    def estimate_w(self, cores: int) -> float:
        return self.chips_for(cores) * self.tdp_per_chip_w
