"""repro — a full-system reproduction of *SnapBPF: Exploiting eBPF for
Serverless Snapshot Prefetching* (HotStorage '25) on a simulated
Linux/KVM/firecracker stack.

Public API tour
---------------

Run a paper experiment in three lines::

    from repro import ScenarioSpec, run_scenario
    result = run_scenario(ScenarioSpec("bert", "snapbpf", n_instances=10))
    print(result.mean_e2e, result.peak_memory_gib)

Layers (bottom-up):

* :mod:`repro.sim` — discrete-event simulation engine
* :mod:`repro.storage` — SSD/HDD models + file store
* :mod:`repro.ebpf` — miniature eBPF (ISA, verifier, interpreter, maps,
  kprobes, kfuncs)
* :mod:`repro.mm` — page cache, readahead, VMAs, faults, userfaultfd
* :mod:`repro.kvm`, :mod:`repro.guest` — nested paging + guest kernel
* :mod:`repro.vmm` — snapshots and microVMs
* :mod:`repro.core` — **SnapBPF itself**
* :mod:`repro.baselines` — REAP, Faast, FaaSnap, Linux-RA/NoRA
* :mod:`repro.workloads` — the 13 evaluated function models
* :mod:`repro.harness` — scenario runner + figure/table regeneration
* :mod:`repro.cluster` — multi-node fleet: gateway routing, autoscaling,
  node-crash chaos
"""

from repro.baselines import FaaSnap, Faast, LinuxNoRA, LinuxRA, REAP
from repro.baselines.base import Approach, approach_registry
from repro.cluster import ClusterSpec
from repro.core import PVPTEsOnly, SnapBPF
from repro.faults import ChaosSpec, FaultConfig, FaultSchedule, RetryPolicy
from repro.harness.chaos import run_chaos_scenario
from repro.harness.experiment import ResultCache, make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner
from repro.metrics.results import ScenarioResult
from repro.mm.kernel import Kernel
from repro.platform import FaaSNode, poisson_arrivals
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vmm import FunctionSnapshot, MicroVM, build_snapshot
from repro.workloads import (
    FUNCTIONS,
    FunctionProfile,
    generate_trace,
    profile_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "Approach",
    "ChaosSpec",
    "ClusterSpec",
    "FaaSNode",
    "FaaSnap",
    "Faast",
    "FaultConfig",
    "FaultSchedule",
    "FunctionProfile",
    "FunctionSnapshot",
    "FUNCTIONS",
    "GIB",
    "KIB",
    "Kernel",
    "LinuxNoRA",
    "LinuxRA",
    "MIB",
    "MicroVM",
    "PAGE_SIZE",
    "PVPTEsOnly",
    "REAP",
    "ResultCache",
    "ResultStore",
    "RetryPolicy",
    "ScenarioResult",
    "ScenarioSpec",
    "SnapBPF",
    "SweepRunner",
    "approach_registry",
    "build_snapshot",
    "generate_trace",
    "make_kernel",
    "poisson_arrivals",
    "profile_by_name",
    "run_chaos_scenario",
    "run_scenario",
    "__version__",
]
