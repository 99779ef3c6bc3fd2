"""Vanilla firecracker restore: mmap the snapshot, demand-page it.

No working-set capture at all — the Figure 3b/3c baselines.  The only
knob is Linux readahead on the snapshot mapping: disabled (Linux-NoRA,
one synchronous 4 KiB read per major fault) or a window of ``ra_pages``
pages, by default the kernel's 128 KiB (Linux-RA).  Because faults
resolve through the page cache, these baselines *do* deduplicate across
sandboxes — they are just slow, paying a blocking fault chain for the
whole working set.
"""

from __future__ import annotations

from repro.baselines.base import Approach, register_approach
from repro.mm.kernel import Kernel
from repro.units import DEFAULT_READAHEAD_PAGES
from repro.vmm.microvm import GUEST_BASE_VPN, MicroVM
from repro.workloads.profile import FunctionProfile


class _LinuxBase(Approach):
    """Shared restore path over a readahead window of ``ra_pages``."""

    mechanism = "mmap / demand paging"
    serializes_ws_on_disk = False
    in_memory_dedup = True
    stateless_alloc_filtering = False
    requires_snapshot_prescan = False

    #: PV PTE marking off for the vanilla baselines (overridden by the
    #: SnapBPF breakdown variant in repro.core).
    pv_marking: bool = False

    def __init__(self, kernel: Kernel,
                 ra_pages: int = DEFAULT_READAHEAD_PAGES):
        super().__init__(kernel)
        self.ra_pages = ra_pages

    def spawn(self, profile: FunctionProfile, vm_id: str | None = None):
        snapshot = self._require_prepared()
        start = self.kernel.env.now
        vm = MicroVM(self.kernel, snapshot, pv_marking=self.pv_marking,
                     vm_id=vm_id)
        vm._spawn_time = start
        vm.space.mmap(snapshot.mem_pages, file=snapshot.file,
                      at=GUEST_BASE_VPN, ra_pages=self.ra_pages,
                      name="guest-mem")
        setup = self.kernel.costs.mmap_region
        vm.setup_seconds = setup
        yield self.kernel.env.timeout(setup)
        return vm


@register_approach
class LinuxNoRA(_LinuxBase):
    """Vanilla restore with readahead disabled."""

    name = "linux-nora"

    def __init__(self, kernel: Kernel):
        super().__init__(kernel, ra_pages=0)


@register_approach
class LinuxRA(_LinuxBase):
    """Vanilla restore with a readahead window, by default 128 KiB."""

    name = "linux-ra"
