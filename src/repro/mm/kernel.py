"""The aggregate simulated host kernel.

One :class:`Kernel` is one machine: a DES environment, a block device
with a file store on it, a physical frame pool, the page cache wired to
the eBPF kprobe runtime, and factories for address spaces and
userfaultfds.  Approaches (SnapBPF and the baselines) and the VMM layer
are all built against this object.
"""

from __future__ import annotations

from repro.ebpf.interp import Interpreter
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.kprobe import KprobeManager
from repro.metrics.registry import MetricsRegistry
from repro.mm.address_space import AddressSpace
from repro.mm.costs import CostModel
from repro.mm.frames import FrameAllocator
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE, PageCache
from repro.mm.reclaim import HOOK_MM_EVICT, register_evict_hint
from repro.mm.userfaultfd import Uffd
from repro.sim import Environment
from repro.storage.device import BlockDevice
from repro.storage.filestore import FileStore
from repro.storage.ssd import SSDevice
from repro.trace import Tracer
from repro.units import GIB, PAGE_SIZE


class Kernel:
    """A simulated Linux host (paper testbed: 2-socket EPYC, 256 GiB)."""

    def __init__(self, env: Environment | None = None,
                 device: BlockDevice | None = None,
                 ram_bytes: int = 256 * GIB,
                 costs: CostModel | None = None,
                 tracer: Tracer | None = None):
        self.env = env or Environment()
        #: Trace plane: one tracer per machine, shared by every subsystem
        #: through the duck-typed ``env.tracer`` / ``interpreter.tracer``
        #: hooks.  Disabled until ``kernel.tracer.enable()``.
        # ``is None``, not ``or``: a Tracer with no spans yet is falsy.
        self.tracer = tracer if tracer is not None else Tracer()
        self.env.tracer = self.tracer
        self.costs = costs or CostModel()
        self.device = device or SSDevice(self.env)
        #: Metrics plane: one registry per machine.  The device constructs
        #: its registry first (standalone devices need one too), so the
        #: kernel adopts it and hands the same instance to every other
        #: layer — the single source of truth the harness snapshots.
        self.metrics: MetricsRegistry = self.device.registry
        self.filestore = FileStore(self.env, self.device)
        self.frames = FrameAllocator(total_frames=ram_bytes // PAGE_SIZE)
        self.kfuncs = KfuncRegistry()
        self.interpreter = Interpreter(
            kfuncs=self.kfuncs,
            time_ns=lambda: int(self.env.now * 1e9))
        self.interpreter.tracer = self.tracer
        self.kprobes = KprobeManager(kfuncs=self.kfuncs,
                                     interpreter=self.interpreter)
        self.page_cache = PageCache(self.env, self.frames, self.filestore,
                                    self.kprobes,
                                    insert_cost=self.costs.cache_insert,
                                    registry=self.metrics,
                                    reclaim_page_cost=self.costs.reclaim_page)
        #: The memory-pressure plane (same object the page cache owns).
        #: Watermarks/kswapd stay off until ``reclaim.enable_watermarks()``.
        self.reclaim = self.page_cache.reclaim
        # The bpf_cached_pages() helper reads residency through this hook.
        self.interpreter.page_stats = self.page_cache
        register_evict_hint(self)
        #: The installed FaultSchedule, if any (see FaultSchedule.install).
        self.faults = None
        #: The installed SnapStore, if any (see install_snapstore).
        self.snapstore = None
        # Ring-buffer drop accounting for the span tracer, published
        # only once a span has actually been dropped so fault-free
        # snapshots keep their exact historical keys (identity contract).
        self.metrics.register_collector(self._trace_drop_counters)

    def _trace_drop_counters(self) -> dict[str, float]:
        dropped = self.tracer.dropped
        if not dropped:
            return {}
        return {"trace_spans_dropped_total": float(dropped)}

    # -- factories ---------------------------------------------------------------
    def spawn_space(self, owner: str | None = None) -> AddressSpace:
        return AddressSpace(self, owner=owner)

    def new_uffd(self) -> Uffd:
        return Uffd(self.env)

    # -- administration -------------------------------------------------------------
    def drop_caches(self) -> int:
        """Drop clean page cache between experiment rounds (cold starts)."""
        return self.page_cache.drop_caches()

    def memory_in_use_bytes(self) -> int:
        return self.frames.in_use * PAGE_SIZE

    def run(self, until=None):
        """Convenience passthrough to the DES engine."""
        return self.env.run(until)

    def close(self) -> None:
        """End the host's life: stop its simulation and drop the
        references that make it a reference cycle, so reference counting
        frees it once its owner lets go, instead of the cyclic garbage
        collector.

        Closes the environment (:meth:`Environment.close`: unfinished
        processes, kswapd and userfaultfd handlers among them, are
        stopped and scheduled events dropped), abandons the device's
        queued and held requests, and drops the registry's collectors
        (closures over their owners), the eBPF runtime's clock and
        residency hooks, every kfunc (each closes over the kernel or its
        reclaim controller), every attached kprobe program, and the
        reclaim controller's links to the page cache and the frame
        allocator.  Every registered metric, the frame counters and the
        page cache's contents stay readable.  A fleet's hosts share one
        environment, so close them only once the fleet is done.
        Idempotent.
        """
        self.env.close()
        self.device.close()
        self.metrics.clear_collectors()
        self.interpreter.time_ns = self.interpreter.page_stats = None
        for name in self.kfuncs.names():
            self.kfuncs.unregister(name)
        for hook in (HOOK_ADD_TO_PAGE_CACHE, HOOK_MM_EVICT):
            for program in self.kprobes.attached(hook):
                self.kprobes.detach(hook, program)
        self.frames.reclaimer = None
        self.reclaim.page_cache = None
