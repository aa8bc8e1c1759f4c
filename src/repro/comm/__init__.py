"""On-chip message passing and the software-messaging latency model."""

from .channels import Crossbar, Fabric, RequestPacket, ResponsePacket
from .ring import RingInterconnect
from .software_mp import (
    DDR3_MP, L3_MP, MessagingPrimitive, ONCHIP_MP, software_mp_table,
)

__all__ = [
    "Crossbar", "Fabric", "RequestPacket", "ResponsePacket",
    "RingInterconnect",
    "DDR3_MP", "L3_MP", "MessagingPrimitive", "ONCHIP_MP",
    "software_mp_table",
]
