"""Softcore register files.

256 general-purpose (GP) and 256 coprocessor (CP) registers are
implemented on BRAM rather than flip-flops for resource efficiency
(§4.3).  CP registers receive DB instruction results asynchronously;
a RET instruction blocks until the register is valid, then copies the
result into a GP register.

Transaction interleaving allocates each batched transaction an
exclusive register range; instructions are renamed by adding the base
register address (§4.5) — :meth:`RegisterFile.view` returns such a
renamed window.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..isa.instructions import Opcode
from ..sim.engine import Engine, Event
from ..txn.cc import DbResult
from .timing import N_REGISTERS

__all__ = ["RegisterFile", "CpRegisterFile", "RegisterError"]


class RegisterError(RuntimeError):
    pass


class RegisterFile:
    """The GP register file."""

    def __init__(self):
        self._regs: List[Any] = [0] * N_REGISTERS

    def read(self, idx: int) -> Any:
        if not 0 <= idx < N_REGISTERS:
            raise RegisterError(f"GP register {idx} out of range")
        return self._regs[idx]

    def write(self, idx: int, value: Any) -> None:
        if not 0 <= idx < N_REGISTERS:
            raise RegisterError(f"GP register {idx} out of range")
        self._regs[idx] = value

    def clear_range(self, base: int, count: int) -> None:
        for i in range(base, base + count):
            self._regs[i] = 0


class _CpSlot:
    __slots__ = ("op", "result", "valid", "waiter")

    def __init__(self) -> None:
        self.op: Optional[Opcode] = None
        self.result: Optional[DbResult] = None
        self.valid = False
        self.waiter: Optional[Event] = None


class CpRegisterFile:
    """The CP register file with asynchronous writeback + RET waits."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._slots = [_CpSlot() for _ in range(N_REGISTERS)]

    def mark_pending(self, idx: int, op: Opcode) -> None:
        """Called at Dispatch: the register now awaits a result."""
        slot = self._slot(idx)
        slot.op = op
        slot.result = None
        slot.valid = False

    def write_back(self, idx: int, result: DbResult) -> None:
        """Asynchronous result delivery from a coprocessor or channel."""
        slot = self._slot(idx)
        slot.result = result
        slot.valid = True
        if slot.waiter is not None:
            waiter, slot.waiter = slot.waiter, None
            waiter.succeed((slot.op, result))

    def wait_valid(self, idx: int) -> Event:
        """RET: an event firing with (op, result) once the slot is valid."""
        slot = self._slot(idx)
        ev = Event(self.engine)
        if slot.valid:
            ev.succeed((slot.op, slot.result))
        else:
            if slot.waiter is not None:
                raise RegisterError(f"two RETs waiting on CP register {idx}")
            slot.waiter = ev
        return ev

    def peek(self, idx: int) -> Tuple[Optional[Opcode], Optional[DbResult]]:
        slot = self._slot(idx)
        return slot.op, slot.result

    def is_valid(self, idx: int) -> bool:
        return self._slot(idx).valid

    def clear_range(self, base: int, count: int) -> None:
        for i in range(base, base + count):
            slot = self._slots[i]
            slot.op = None
            slot.result = None
            slot.valid = False
            slot.waiter = None

    def _slot(self, idx: int) -> _CpSlot:
        if not 0 <= idx < N_REGISTERS:
            raise RegisterError(f"CP register {idx} out of range")
        return self._slots[idx]
