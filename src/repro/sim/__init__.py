"""Discrete-event simulation substrate for the BionicDB reproduction."""

from .clock import FPGA_MHZ, ClockDomain
from .engine import Engine, Event, SimulationError, collector_quiesced
from .memory import Bram, DramModel, Heap, MemoryPort, LINE_BYTES
from .power import CpuPowerModel, FpgaPowerModel, PowerReport
from .resources import (
    HC2_INFRASTRUCTURE,
    ResourceLedger,
    ResourceVector,
    VIRTEX5_LX330,
    per_worker_costs,
)
from .stats import Counter, StatsRegistry, nearest_rank
from .sync import Inbox, TokenPool
from .trace import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "Engine", "Event", "SimulationError",
    "ClockDomain", "FPGA_MHZ",
    "Bram", "DramModel", "Heap", "MemoryPort", "LINE_BYTES",
    "collector_quiesced",
    "CpuPowerModel", "FpgaPowerModel", "PowerReport",
    "HC2_INFRASTRUCTURE", "ResourceLedger", "ResourceVector",
    "VIRTEX5_LX330", "per_worker_costs",
    "Counter", "StatsRegistry", "nearest_rank",
    "Inbox", "TokenPool",
    "NULL_TRACER", "TraceEvent", "Tracer",
]
