"""The SnapBPF restore approach (and the Figure 4 PV-only variant).

Record phase: attach the capture program to the ``add_to_page_cache_lru``
kprobe, restore a sandbox with readahead disabled and PV marking on, run
the function once, drain the offsets map, group + sort (§3.1), and store
the tiny metadata file — *no* working-set pages are serialized.

Invocation phase (Figure 1): read the grouped offsets from disk, load
them into an eBPF array map (the 1-2 ms overhead of §4), attach the
prefetch program, and trigger it by touching the first snapshot page.
The program drives ``page_cache_ra_unbounded`` through the kfunc, so the
working set lands in the shared page cache; PV PTE marking routes guest
allocations to anonymous memory with zero snapshot I/O; the patched KVM
keeps read faults from CoWing shared pages.
"""

from __future__ import annotations

from repro.baselines.base import Approach, register_approach
from repro.baselines.linux import LinuxRA
from repro.core.grouping import Group, group_offsets, groups_metadata_bytes
from repro.core.kfuncs import register_snapbpf_kfunc
from repro.core.progs import (
    build_capture_program,
    build_prefetch_program,
    load_groups,
    make_events_ringbuf,
    make_groups_map,
    make_state_map,
)
from repro.ebpf.kprobe import AttachError
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.mm.readahead import ReadaheadState
from repro.units import DEFAULT_READAHEAD_PAGES
from repro.vmm.microvm import GUEST_BASE_VPN, MicroVM
from repro.vmm.snapshot import build_snapshot
from repro.workloads.profile import FunctionProfile


@register_approach
class SnapBPF(Approach):
    """eBPF kernel-space capture and prefetch + PV PTE marking."""

    name = "snapbpf"
    mechanism = "eBPF"
    kernel_space = True
    serializes_ws_on_disk = False
    in_memory_dedup = True
    stateless_alloc_filtering = True
    requires_snapshot_prescan = False

    #: Readahead on the snapshot mapping during invocations.  SnapBPF
    #: drives its own prefetching, so speculative kernel readahead would
    #: only re-inflate the fetched set; keeping it off preserves the
    #: "leaner working sets, similar to REAP" behaviour of §4.
    ra_pages = 0

    def __init__(self, kernel, pv_marking: bool = True,
                 patched_cow: bool = True):
        super().__init__(kernel)
        self.pv_marking = pv_marking
        self.patched_cow = patched_cow
        register_snapbpf_kfunc(kernel)
        self.groups: list[Group] = []
        self._meta_file = None
        #: Per-sandbox offset-load (bpf map update) seconds — the §4
        #: "SnapBPF Overheads" measurement.
        self.map_load_seconds: dict[str, float] = {}
        self.captured_pages = 0
        #: Capture events lost to a full ring buffer (e.g. after a
        #: fault-plane capacity squeeze): those pages simply are not
        #: prefetched, the restore demand-pages them instead.
        self.capture_events_dropped = 0
        #: Fault plane: capture program attaches that failed during
        #: prepare (recording proceeds without eBPF capture).
        self.capture_attach_failures = 0
        #: Fault plane: spawns that degraded to plain demand paging with
        #: kernel readahead (Linux-baseline behaviour) because prefetch
        #: setup failed — metadata unreadable, groups map overflowed
        #: after a capacity squeeze, or the program would not attach.
        self.prefetch_fallbacks = 0
        # Degradation counters are plain attributes (result extras read
        # them directly); the registry sees them via a collector.
        # Multiple instances on one kernel sum, by collector semantics.
        kernel.metrics.register_collector(lambda: {
            "approach_captured_pages": self.captured_pages,
            "approach_capture_events_dropped": self.capture_events_dropped,
            "approach_capture_attach_failures": self.capture_attach_failures,
            "approach_prefetch_fallbacks": self.prefetch_fallbacks,
        })

    # -- record phase -------------------------------------------------------------
    def prepare(self, profile: FunctionProfile, record_trace):
        env = self.kernel.env
        costs = self.kernel.costs
        self.snapshot = build_snapshot(self.kernel, profile,
                                       suffix=f".{self.name}")
        events = make_events_ringbuf(
            f"events_{profile.name}",
            max_entries=self.kernel.kprobes.map_capacity(1 << 21))
        capture = build_capture_program(self.snapshot.file.ino, events)
        try:
            self.kernel.kprobes.attach(HOOK_ADD_TO_PAGE_CACHE, capture)
        except AttachError:
            # Degrade: record without eBPF capture.  The working set
            # comes out empty and every later spawn demand-pages.
            self.capture_attach_failures += 1
            capture = None
        yield env.timeout(costs.bpf_prog_attach)
        try:
            vm = MicroVM(self.kernel, self.snapshot,
                         pv_marking=self.pv_marking,
                         patched_cow=self.patched_cow,
                         vm_id=f"record-{self.name}-{profile.name}")
            vm.space.mmap(self.snapshot.mem_pages, file=self.snapshot.file,
                          at=GUEST_BASE_VPN, ra_pages=0, name="guest-mem")
            yield from self._run_record_vm(vm, record_trace)
        finally:
            if capture is not None:
                self.kernel.kprobes.detach(HOOK_ADD_TO_PAGE_CACHE, capture)

        # VMM consumes the event ring — records arrive in page-cache
        # insertion order — dedups to first access per offset, groups +
        # sorts, and stores the metadata.
        records = events.consume_u64s()
        yield env.timeout(len(records) * costs.bpf_ringbuf_consume)
        tracer = env.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(f"{self.name}:ring-drain", "record", env.now,
                           track="record", records=len(records),
                           dropped=events.dropped)
        first_access: dict[int, int] = {}
        for offset, access_ns in records:
            if offset not in first_access:
                first_access[offset] = access_ns
        self.captured_pages = len(first_access)
        self.capture_events_dropped += events.dropped
        self.groups = group_offsets(first_access.items())
        meta_bytes = groups_metadata_bytes(self.groups)
        self._meta_file = (self.kernel.filestore.create(
            f"{profile.name}.{self.name}.groups", meta_bytes)
            if meta_bytes > 0 else None)
        if self._meta_file is not None and self.kernel.snapstore is not None:
            self.kernel.snapstore.record_derived(self._meta_file)
        self.prepared = True

    # -- invocation phase ----------------------------------------------------------
    def spawn(self, profile: FunctionProfile, vm_id: str | None = None):
        snapshot = self._require_prepared()
        env = self.kernel.env
        costs = self.kernel.costs
        start = env.now
        vm = MicroVM(self.kernel, snapshot, pv_marking=self.pv_marking,
                     patched_cow=self.patched_cow, vm_id=vm_id)
        vm._spawn_time = start
        tracer = env.tracer
        tracing = tracer is not None and tracer.enabled
        vma = vm.space.mmap(snapshot.mem_pages, file=snapshot.file,
                            at=GUEST_BASE_VPN, ra_pages=self.ra_pages,
                            name="guest-mem")
        yield env.timeout(costs.mmap_region)
        if tracing:
            tracer.complete(f"{self.name}:mmap", "restore", start,
                            end=env.now, track=vm.vm_id)
        setup_start = env.now

        vm._snapbpf_prog = None  # for cleanup in post_invoke
        try:
            # (1) Read the grouped offsets from disk and load them into
            # the eBPF array map.
            if self._meta_file is not None:
                yield self.kernel.filestore.read_pages(
                    self._meta_file, 0, self._meta_file.size_pages)
            granted = self.kernel.kprobes.map_capacity(len(self.groups))
            groups_map = make_groups_map(f"groups_{vm.vm_id}", granted)
            state_map = make_state_map(f"state_{vm.vm_id}")
            load_groups(groups_map, self.groups)
            map_load = len(self.groups) * costs.bpf_map_update
            yield env.timeout(map_load)

            # (2) Attach the prefetch program (verified on attach).
            prog = build_prefetch_program(snapshot.file.ino, groups_map,
                                          state_map)
            self.kernel.kprobes.attach(HOOK_ADD_TO_PAGE_CACHE, prog)
            yield env.timeout(costs.bpf_prog_attach)
            vm._snapbpf_prog = prog
            self.map_load_seconds[vm.vm_id] = map_load
        except (ValueError, OSError):
            # Metadata unreadable, groups map squeezed below the group
            # count, or the prefetch program refused to attach: fall
            # back to plain demand paging with default kernel readahead
            # — the Linux-baseline ladder rung.  The sandbox still
            # completes; it just cold-starts the slow way.
            self.prefetch_fallbacks += 1
            vma.ra = ReadaheadState(DEFAULT_READAHEAD_PAGES)

        vm.setup_seconds = env.now - start
        if tracing:
            tracer.complete(f"{self.name}:prefetch-setup", "restore",
                            setup_start, end=env.now, track=vm.vm_id,
                            groups=len(self.groups),
                            fallback=vm._snapbpf_prog is None)

        # (3) Trigger prefetching by touching the first snapshot page.
        trigger_start = env.now
        trigger_cost = yield from vm.space.handle_fault(vm.guest_vpn(0),
                                                        False)
        yield env.timeout(trigger_cost)
        if tracing:
            tracer.complete(f"{self.name}:trigger", "restore",
                            trigger_start, end=env.now, track=vm.vm_id)
        return vm

    def post_invoke(self, vm: MicroVM) -> None:
        prog = getattr(vm, "_snapbpf_prog", None)
        if prog is not None and prog in self.kernel.kprobes.attached(
                HOOK_ADD_TO_PAGE_CACHE):
            self.kernel.kprobes.detach(HOOK_ADD_TO_PAGE_CACHE, prog)

    # -- info ---------------------------------------------------------------------------
    @property
    def metadata_bytes(self) -> int:
        """On-disk footprint of the prefetch metadata (vs. a WS *file*)."""
        return groups_metadata_bytes(self.groups)


@register_approach
class PVPTEsOnly(LinuxRA):
    """Figure 4's middle bar: default Linux readahead + PV PTE marking,
    without the eBPF prefetching mechanism."""

    name = "pv-ptes"
    mechanism = "mmap / demand paging + PV PTE marking"
    stateless_alloc_filtering = True
    pv_marking = True
