"""MicroVM: one restored function sandbox.

The prefetching approach under test constructs the MicroVM (it owns how
guest memory is mapped — snapshot mmap, uffd registration, per-region
working-set mappings) and then calls :meth:`MicroVM.invoke` to replay
the function trace.  End-to-end latency is measured from the moment the
approach starts restoring (spawn) to the moment the trace completes,
matching the paper's instrumented firecracker.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass

from repro.guest.kernel import GuestKernel
from repro.kvm.kvm import KVM
from repro.kvm.vcpu import VCpu
from repro.mm.kernel import Kernel
from repro.vmm.snapshot import FunctionSnapshot

#: Virtual page where every sandbox maps its guest memory.
GUEST_BASE_VPN = 1 << 24


@dataclass
class InvocationStats:
    """Per-sandbox results of one invocation."""

    vm_id: str
    e2e_seconds: float = 0.0
    setup_seconds: float = 0.0
    nested_faults: int = 0
    pv_faults: int = 0
    major_faults: int = 0
    minor_faults: int = 0
    uffd_faults: int = 0
    cow_faults: int = 0
    pages_touched: int = 0
    anon_bytes_at_end: int = 0
    #: E2E latency breakdown: useful compute, fault-handling CPU, and
    #: wall time stalled on I/O or userspace fault handlers.
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    stall_seconds: float = 0.0

    @property
    def breakdown(self) -> dict[str, float]:
        """setup / compute / overhead / stall, summing ~to e2e_seconds."""
        return {
            "setup": self.setup_seconds,
            "compute": self.compute_seconds,
            "fault_overhead": self.overhead_seconds,
            "stall": self.stall_seconds,
        }


class MicroVM:
    """One sandbox: host address space + EPT + guest kernel + vCPU."""

    _ids = itertools.count()

    def __init__(self, kernel: Kernel, snapshot: FunctionSnapshot,
                 pv_marking: bool = False, patched_cow: bool = True,
                 force_write_percent: int = 30,
                 vm_id: str | None = None):
        self.kernel = kernel
        self.snapshot = snapshot
        self.vm_id = vm_id or f"vm{next(self._ids)}"
        self.space = kernel.spawn_space(owner=self.vm_id)
        self.guest = GuestKernel(
            mem_pages=snapshot.mem_pages,
            free_spans=snapshot.meta.free_spans,
            pv_marking=pv_marking,
            zero_on_free=snapshot.meta.guest_zeroed,
        )
        self.kvm = KVM(
            space=self.space,
            guest_base_vpn=GUEST_BASE_VPN,
            mem_pages=snapshot.mem_pages,
            pv_enabled=pv_marking,
            patched_cow=patched_cow,
            force_write_percent=force_write_percent,
            # crc32, not hash(): str hashing is salted per process
            # (PYTHONHASHSEED), and identical runs must stay identical
            # across processes for the fault-plane determinism contract.
            vm_seed=zlib.crc32(self.vm_id.encode()) & 0xFFFF,
        )
        self.vcpu = VCpu(kernel.env, self.kvm, self.guest)
        #: Seconds the restoring approach spent before the vCPU started.
        self.setup_seconds = 0.0
        self._spawn_time = kernel.env.now

    # -- lifecycle --------------------------------------------------------------
    def invoke(self, trace):
        """Generator (DES process body): run the trace; returns stats."""
        start = self._spawn_time
        yield from self.vcpu.run_trace(trace)
        space = self.space
        return InvocationStats(
            vm_id=self.vm_id,
            e2e_seconds=self.kernel.env.now - start,
            setup_seconds=self.setup_seconds,
            nested_faults=self.kvm.stats_nested_faults,
            pv_faults=self.kvm.stats_pv_faults,
            major_faults=space.stats_major_faults,
            minor_faults=space.stats_minor_faults,
            uffd_faults=space.stats_uffd_faults,
            cow_faults=space.stats_cow_faults,
            pages_touched=self.vcpu.stats.pages_touched,
            anon_bytes_at_end=self.kernel.frames.owner_frames(self.vm_id)
            * 4096,
            compute_seconds=self.vcpu.stats.compute_seconds,
            overhead_seconds=self.vcpu.stats.overhead_seconds,
            stall_seconds=self.vcpu.stats.stall_seconds,
        )

    def teardown(self) -> None:
        """Destroy the sandbox, releasing all private memory."""
        self.space.teardown()
        self.kvm.ept.clear()

    # -- conveniences -------------------------------------------------------------
    @property
    def guest_base_vpn(self) -> int:
        return GUEST_BASE_VPN

    def guest_vpn(self, gfn: int) -> int:
        return GUEST_BASE_VPN + gfn
