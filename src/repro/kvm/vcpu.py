"""vCPU: replays a function invocation trace against the KVM layer.

The vCPU is a DES process.  It accumulates CPU time (compute gaps, fault
handling costs) and flushes it as simulated timeouts at a fine grain so
that asynchronous prefetchers race realistically with execution; actual
waiting (disk I/O, uffd round trips) happens through the fault-path
events yielded from within :meth:`repro.kvm.kvm.KVM.access`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.guest.kernel import GuestKernel
from repro.kvm.kvm import KVM
from repro.sim import Environment
from repro.units import USEC
from repro.workloads.trace import Alloc, Compute, Free, TouchRun

#: Accumulated CPU time is flushed once it exceeds this, keeping the
#: interleaving with background I/O honest without one event per page.
FLUSH_THRESHOLD = 100 * USEC


@dataclass
class VCpuStats:
    pages_touched: int = 0
    pages_allocated: int = 0
    #: Useful work: the function's own CPU time.
    compute_seconds: float = 0.0
    #: CPU consumed by fault handling (EPT + host fault path costs).
    overhead_seconds: float = 0.0
    #: Wall time blocked inside fault paths (disk I/O, uffd round
    #: trips) — the quantity prefetching exists to hide.
    stall_seconds: float = 0.0


class VCpu:
    """Single vCPU bound to one microVM."""

    def __init__(self, env: Environment, kvm: KVM, guest: GuestKernel):
        self.env = env
        self.kvm = kvm
        self.guest = guest
        self.stats = VCpuStats()

    def run_trace(self, trace):
        """Generator (DES process body): execute the trace to completion."""
        acc = 0.0
        stats = self.stats
        for op in trace:
            if isinstance(op, TouchRun):
                acc = yield from self._touch_range(
                    range(op.start, op.start + op.count), op.write,
                    op.per_page_compute, acc)
                stats.pages_touched += op.count
            elif isinstance(op, Compute):
                stats.compute_seconds += op.seconds
                yield self.env.timeout(acc + op.seconds)
                acc = 0.0
            elif isinstance(op, Alloc):
                gfns = self.guest.alloc_pages(op.tag, op.npages)
                acc = yield from self._touch_range(
                    gfns, True, op.per_page_compute, acc)
                stats.pages_allocated += op.npages
            elif isinstance(op, Free):
                self.guest.free_pages(op.tag)
            else:
                raise TypeError(f"unknown trace op {op!r}")
        if acc > 0:
            yield self.env.timeout(acc)

    def _touch_range(self, gfns, write: bool, per_page: float, acc: float):
        """Generator: access each gfn; returns the new CPU accumulator.

        The per-page sums run in locals and are written back to
        ``stats`` on exit, interrupted or not: the same additions in the
        same order as summing into ``stats`` directly."""
        kvm = self.kvm
        ept = kvm.ept
        env = self.env
        stats = self.stats
        compute = stats.compute_seconds
        overhead = stats.overhead_seconds
        stall = stats.stall_seconds
        try:
            for gfn in gfns:
                acc += per_page
                compute += per_page
                entry = ept.get(gfn)
                if entry is not None and (not write or entry.writable):
                    continue  # EPT hit: no overhead, stay on the fast path
                if acc > FLUSH_THRESHOLD:
                    yield env.timeout(acc)
                    acc = 0.0
                before = env.now
                cost = yield from kvm.nested_fault(gfn, write)
                stall += env.now - before
                acc += cost
                overhead += cost
        finally:
            stats.compute_seconds = compute
            stats.overhead_seconds = overhead
            stats.stall_seconds = stall
        return acc
