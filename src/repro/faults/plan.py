"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is the single source of randomness and the single
decision point for every injected failure in a run.  Layers that can
fail (durable storage, the NIC, the cluster interconnect, the engine)
take an optional ``faults`` argument; when it is ``None`` — the default
everywhere — the hooks are a single ``is None`` test and the system
behaves bit-for-bit as before.  When a plan is armed, each *injection
site* asks the plan at every opportunity whether the fault fires, and
draws any fault parameters (torn-write byte offset, flipped bit index,
stall length) from the plan's RNG, so a failing run is reproducible
from its seed alone.

Sites are string constants (:data:`SITES`); triggers are predicates
over the opportunity count at that site, simulated time, or a
per-opportunity probability.  The plan also records every fault it
fired (``fired_log``) so a drill report can say exactly what was
injected where.

Crash faults additionally flip the plan's ``crashed`` latch: a crashed
machine's durable files must not accept writes from ``finally`` blocks
and other cleanup paths that run while the exception unwinds, so every
durable hook re-raises :class:`~repro.errors.SimulatedCrash` once the
latch is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import random

from ..errors import FaultError, SimulatedCrash

__all__ = [
    "FaultPlan", "Trigger", "SITES",
    "TORN_APPEND", "APPEND_BIT_FLIP",
    "CRASH_BEFORE_RENAME", "CRASH_AFTER_RENAME",
    "NIC_DROP", "NIC_DUPLICATE", "NIC_CORRUPT",
    "LINK_DROP", "LINK_STALL", "LINK_PARTITION",
    "MACHINE_CRASH",
    "HEARTBEAT_LOSS", "NODE_DEATH", "STALE_EPOCH_SUBMIT",
]

# -- injection sites ---------------------------------------------------------
#: an incremental frame append is cut at an arbitrary byte, then crash
TORN_APPEND = "durable.torn_append"
#: an incremental frame append has one bit flipped, then crash
APPEND_BIT_FLIP = "durable.append_bit_flip"
#: crash after the tmp file is written but before os.replace
CRASH_BEFORE_RENAME = "durable.crash_before_rename"
#: crash immediately after os.replace lands the new artifact
CRASH_AFTER_RENAME = "durable.crash_after_rename"
#: packet lost on the wire (never reaches the RX ring)
NIC_DROP = "nic.drop"
#: packet delivered twice into the RX ring
NIC_DUPLICATE = "nic.duplicate"
#: packet corrupted in flight; the RX checksum discards it
NIC_CORRUPT = "nic.corrupt"
#: inter-node message lost on the cluster interconnect
LINK_DROP = "interconnect.drop"
#: inter-node message stalled by a drawn extra delay
LINK_STALL = "interconnect.stall"
#: a directed node pair loses connectivity for a drawn duration; every
#: message on the cut lanes (either direction) is lost until it heals
LINK_PARTITION = "interconnect.partition"
#: whole-machine crash at an engine event count (see Engine.crash_at_fired)
MACHINE_CRASH = "machine.crash"
#: a heartbeat message is silently dropped (failure-detector food)
HEARTBEAT_LOSS = "cluster.heartbeat_loss"
#: a whole cluster node dies (its partitions must fail over)
NODE_DEATH = "cluster.node_death"
#: a client submits a transaction tagged with a stale ownership epoch
STALE_EPOCH_SUBMIT = "cluster.stale_epoch_submit"

SITES = frozenset({
    TORN_APPEND, APPEND_BIT_FLIP, CRASH_BEFORE_RENAME, CRASH_AFTER_RENAME,
    NIC_DROP, NIC_DUPLICATE, NIC_CORRUPT,
    LINK_DROP, LINK_STALL, LINK_PARTITION,
    MACHINE_CRASH,
    HEARTBEAT_LOSS, NODE_DEATH, STALE_EPOCH_SUBMIT,
})


@dataclass
class Trigger:
    """When a site's fault fires.

    Exactly one of ``nth`` (fire on the Nth opportunity at the site,
    1-based) or ``prob`` (fire per-opportunity with this probability)
    selects opportunities; ``after_ns`` additionally arms the trigger
    only once simulated time reaches it, and ``times`` bounds how often
    it may fire (``None`` = unbounded).
    """

    nth: Optional[int] = None
    prob: float = 0.0
    after_ns: Optional[float] = None
    times: Optional[int] = 1
    #: remaining fire budget (mutated as the trigger fires)
    remaining: Optional[int] = field(default=None, init=False)

    def __post_init__(self):
        if (self.nth is None) == (self.prob <= 0.0):
            raise FaultError("a trigger needs exactly one of nth / prob",
                             nth=self.nth, prob=self.prob)
        if self.nth is not None and self.nth < 1:
            raise FaultError("nth is 1-based", nth=self.nth)
        if not 0.0 <= self.prob <= 1.0:
            raise FaultError("prob must be in [0, 1]", prob=self.prob)
        if self.times is not None and self.times < 1:
            raise FaultError("times must be >= 1 (or None)", times=self.times)
        self.remaining = self.times


class FaultPlan:
    """A seeded schedule of injected failures.

    ::

        plan = FaultPlan(seed=7)
        plan.arm(TORN_APPEND, nth=3)          # 3rd append is torn
        plan.arm(NIC_DROP, prob=0.01)         # 1% wire loss
        log = CommandLog(path, faults=plan)   # thread through the layers
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self._triggers: Dict[str, List[Trigger]] = {}
        self._opportunities: Dict[str, int] = {}
        #: every fault fired: (site, opportunity#, sim-time-ns)
        self.fired_log: List[Tuple[str, int, float]] = []
        #: latched once a crash fault fires anywhere
        self.crashed = False
        self.crash_site: Optional[str] = None

    # -- configuration -------------------------------------------------------
    def arm(self, site: str, *, nth: Optional[int] = None, prob: float = 0.0,
            after_ns: Optional[float] = None,
            times: Optional[int] = 1) -> "FaultPlan":
        """Arm one trigger at ``site``; returns self for chaining."""
        if site not in SITES:
            raise FaultError("unknown injection site", site=site,
                             known=sorted(SITES))
        self._triggers.setdefault(site, []).append(
            Trigger(nth=nth, prob=prob, after_ns=after_ns, times=times))
        return self

    def armed(self, site: str) -> bool:
        return bool(self._triggers.get(site))

    # -- the decision point --------------------------------------------------
    def fires(self, site: str, now_ns: float = 0.0) -> bool:
        """Count one opportunity at ``site`` and decide whether a fault
        fires there.  Deterministic given the plan and the opportunity
        sequence: the RNG is consumed only by probabilistic triggers."""
        count = self._opportunities.get(site, 0) + 1
        self._opportunities[site] = count
        for trig in self._triggers.get(site, ()):
            if trig.remaining is not None and trig.remaining <= 0:
                continue
            if trig.after_ns is not None and now_ns < trig.after_ns:
                continue
            if trig.nth is not None:
                hit = count == trig.nth
            else:
                hit = self.rng.random() < trig.prob
            if hit:
                if trig.remaining is not None:
                    trig.remaining -= 1
                self.fired_log.append((site, count, now_ns))
                return True
        return False

    def opportunities(self, site: str) -> int:
        """How many times ``site`` has been consulted."""
        return self._opportunities.get(site, 0)

    # -- fault parameters ----------------------------------------------------
    def draw(self) -> float:
        """A uniform [0, 1) draw for a fault parameter."""
        return self.rng.random()

    def draw_int(self, lo: int, hi: int) -> int:
        """A uniform integer in [lo, hi] for a fault parameter."""
        return self.rng.randint(lo, hi)

    # -- crash latch ---------------------------------------------------------
    def crash(self, site: str, **details) -> SimulatedCrash:
        """Latch the crashed state and build the exception to raise."""
        if not self.crashed:
            self.crashed = True
            self.crash_site = site
        return SimulatedCrash(f"injected crash at {site}",
                              site=site, seed=self.seed, **details)

    def check_alive(self) -> None:
        """Durable hooks call this first: a crashed machine's disk does
        not accept writes from unwinding cleanup code."""
        if self.crashed:
            raise SimulatedCrash("machine already crashed",
                                 site=self.crash_site, seed=self.seed)

    # -- reporting -----------------------------------------------------------
    def describe(self) -> str:
        if not self.fired_log:
            return f"FaultPlan(seed={self.seed}): no faults fired"
        lines = [f"FaultPlan(seed={self.seed}): {len(self.fired_log)} fired"]
        lines.extend(f"  {site} (opportunity {n}, t={t:.0f}ns)"
                     for site, n, t in self.fired_log)
        return "\n".join(lines)
