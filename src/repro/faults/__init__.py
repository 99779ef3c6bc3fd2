"""The fault plane: deterministic fault injection for every layer.

A serverless platform restoring thousands of snapshots lives on its
error paths — media errors, tail-latency device degradation, torn
snapshot pages, BPF attach failures, map exhaustion.  This package
provides one seeded :class:`FaultSchedule` whose per-layer injectors
plug into the storage device, the file store, and the eBPF runtime, so
that a whole chaos run is reproducible from a single RNG seed:

* :class:`DeviceFaultInjector` — transient vs. persistent media errors
  and latency-spike / degraded-mode service-time multipliers on
  :class:`~repro.storage.device.BlockDevice`;
* :class:`FileStoreFaultInjector` — torn/corrupt snapshot pages
  surfacing as :class:`~repro.storage.filestore.TornPageError`;
* :class:`EbpfFaultInjector` — program attach/verify failures and map
  capacity exhaustion;
* :class:`MemFaultInjector` — reclaim stalls delaying kswapd wakeups
  on the :mod:`repro.mm.reclaim` memory-pressure plane;
* :class:`NodeFaultInjector` — whole-node crashes consumed by the
  cluster plane (:mod:`repro.cluster`), which fails the node's
  in-flight requests and re-routes their retries to survivors;
* :class:`RemoteFetchInjector` — remote-object-store fetch EIOs and
  latency stalls consumed by the snapstore (:mod:`repro.snapstore`),
  which retries with backoff and degrades to a surviving tier;
* :class:`SweepFaultInjector` — faults for the *harness itself*:
  SIGKILLed sweep workers, cells hanging past their deadline, and torn
  result-store writes, consumed by the supervising executor in
  :mod:`repro.harness.sweep`.

The degradation machinery that *consumes* faults lives with each layer
(page-cache retry/backoff, SnapBPF's demand-paging fallback, node-level
deadlines and cold-start retries); :class:`RetryPolicy` here is the
shared knob for bounded exponential backoff.  :class:`ChaosSpec` (with
the standard :data:`DEFAULT_CHAOS` mix) describes one chaos cell's
serving phase; nested in a ``ScenarioSpec`` it runs through the same
sweep runner and result store as every other cell.
"""

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    DEFAULT_CHAOS,
    ChaosSpec,
    FaultConfig,
    FaultSchedule,
    FaultStats,
)
from repro.faults.injectors import (
    PERSISTENT,
    TRANSIENT,
    DeviceFaultDecision,
    DeviceFaultInjector,
    EbpfFaultInjector,
    FileStoreFaultInjector,
    MemFaultInjector,
    NodeFaultInjector,
    RemoteFetchDecision,
    RemoteFetchInjector,
)
from repro.faults.sweep import (
    SweepFaultInjector,
    WorkerCrashError,
    WorkerFault,
    apply_worker_fault,
)

__all__ = [
    "ChaosSpec",
    "DEFAULT_CHAOS",
    "DeviceFaultDecision",
    "DeviceFaultInjector",
    "EbpfFaultInjector",
    "FaultConfig",
    "FaultSchedule",
    "FaultStats",
    "FileStoreFaultInjector",
    "MemFaultInjector",
    "NodeFaultInjector",
    "PERSISTENT",
    "RemoteFetchDecision",
    "RemoteFetchInjector",
    "RetryPolicy",
    "SweepFaultInjector",
    "TRANSIENT",
    "WorkerCrashError",
    "WorkerFault",
    "apply_worker_fault",
]
