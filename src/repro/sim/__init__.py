"""Discrete-event simulation engine.

A small, self-contained process-based DES kernel in the style of SimPy:
:class:`Environment` owns a simulated clock and an event heap, and
*processes* are Python generators that ``yield`` events (timeouts, other
processes, resource requests) to suspend until those events fire.

Every other subsystem in :mod:`repro` (page cache, vCPUs, userspace
handler threads) is written as processes over this engine, which is what
lets us measure end-to-end function invocation latency and system-wide
memory over simulated time.  Block devices, the hottest path, serve each
request with callbacks on the events a process would wait on instead
(see :mod:`repro.storage.device`).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
