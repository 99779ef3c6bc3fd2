"""Nested paging and nested fault handling.

The guest-physical address space is a linear window into the VMM's host
virtual address space (firecracker mmaps guest memory as one region, at
``guest_base_vpn``).  An EPT miss vm-exits into :meth:`KVM.nested_fault`,
which either:

* detects a PV-mirrored gPFN (paper §3.2) and installs fresh anonymous
  memory — mapping it under **both** the mirrored and the original gPFN,
  so later reuse of the freed-then-reallocated memory hits; or
* resolves the fault through the host page tables (mmap'd snapshot,
  uffd region, ...), then maps the EPT entry with the host page's
  effective permissions.

``patched_cow`` selects between the paper's patched KVM (write-map a
read fault only when the host page is already present and writable) and
the stock behaviour they debugged, where some read faults are forcibly
handled as writes — triggering CoW of shared page-cache pages and
destroying deduplication (§4, "Memory" paragraph; ablation A3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.guest.kernel import MIRROR_BIT, unmirror_gfn
from repro.mm.address_space import AddressSpace


@dataclass(frozen=True, slots=True)
class EptEntry:
    writable: bool


#: The only two EPT entries there are: every mapping shares one of them.
EPT_READ_ONLY = EptEntry(writable=False)
EPT_WRITABLE = EptEntry(writable=True)


def _force_write_hash(vm_seed: int, gfn: int) -> int:
    """Deterministic per-(vm, gfn) hash in [0, 100) for the CoW bug model."""
    x = (gfn * 0x9E3779B97F4A7C15 + vm_seed * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 31
    return x % 100


class KVM:
    """Per-VM hypervisor state (in-kernel part of one sandbox)."""

    def __init__(self, space: AddressSpace, guest_base_vpn: int,
                 mem_pages: int, pv_enabled: bool = False,
                 patched_cow: bool = True,
                 force_write_percent: int = 30,
                 vm_seed: int = 0):
        self.space = space
        self.kernel = space.kernel
        self.guest_base_vpn = guest_base_vpn
        self.mem_pages = mem_pages
        self.pv_enabled = pv_enabled
        self.patched_cow = patched_cow
        self.force_write_percent = force_write_percent
        self.vm_seed = vm_seed
        self.ept: dict[int, EptEntry] = {}
        self.stats_nested_faults = 0
        self.stats_pv_faults = 0
        self.stats_forced_writes = 0

    # -- address translation ------------------------------------------------------
    def host_vpn(self, gfn: int) -> int:
        real = unmirror_gfn(gfn)
        if real >= self.mem_pages:
            raise ValueError(f"gfn {gfn:#x} beyond guest memory "
                             f"({self.mem_pages} pages)")
        return self.guest_base_vpn + real

    # -- the access path (called per guest memory access) ---------------------------
    def access(self, gfn: int, is_write: bool):
        """Generator: one guest access; returns CPU seconds of overhead.

        EPT hits return immediately (and yield nothing); misses take the
        nested-fault slow path.
        """
        entry = self.ept.get(gfn)
        if entry is not None and (not is_write or entry.writable):
            return 0.0
        cost = yield from self.nested_fault(gfn, is_write)
        return cost

    def nested_fault(self, gfn: int, is_write: bool):
        """Generator: handle one EPT violation; returns CPU seconds."""
        self.stats_nested_faults += 1
        cost = self.kernel.costs.ept_fault

        if gfn & MIRROR_BIT:
            if not self.pv_enabled:
                raise RuntimeError(
                    "guest used a mirrored gPFN but host PV support is off")
            cost += self._pv_fault(gfn)
            return cost

        # host_vpn() for an unmirrored gfn, inlined on the fault path.
        if gfn >= self.mem_pages:
            raise ValueError(f"gfn {gfn:#x} beyond guest memory "
                             f"({self.mem_pages} pages)")
        vpn = self.guest_base_vpn + gfn
        space = self.space
        pt = space.pt
        effective_write = is_write
        if (not is_write and not self.patched_cow
                and _force_write_hash(self.vm_seed, gfn)
                < self.force_write_percent):
            # Stock-KVM misbehaviour: forcibly handle the read fault as a
            # write, CoWing shared page-cache pages into private memory.
            effective_write = True
            self.stats_forced_writes += 1

        cost += yield from space.handle_fault(vpn, effective_write)
        pte = pt.get(vpn)
        if pte is None:
            # uffd race: handler resolved a different page / VM teardown.
            cost += yield from space.handle_fault(vpn, effective_write)
            pte = pt.get(vpn)
            if pte is None:
                raise RuntimeError(f"host fault did not map vpn {vpn:#x}")
        if is_write and not pte.writable:
            cost += yield from space.handle_fault(vpn, True)
            pte = pt.get(vpn)

        # Patched KVM: opportunistically write-map read faults only when
        # the host page is already writable; stock KVM write-maps
        # whenever it (forcibly) write-faulted.
        self.ept[gfn] = EPT_WRITABLE if pte.writable else EPT_READ_ONLY
        return cost

    def _pv_fault(self, gfn: int) -> float:
        """PV PTE marking (§3.2): serve a mirrored-gPFN fault with
        anonymous memory and map both aliases."""
        self.stats_pv_faults += 1
        real = unmirror_gfn(gfn)
        vpn = self.host_vpn(real)
        cost = 0.0
        pte = self.space.pte(vpn)
        if pte is None or pte.frame.kind != "anon" or not pte.writable:
            # Replace whatever backs this guest page (possibly a shared
            # snapshot mapping) with fresh anonymous memory -- crucially
            # *without* any snapshot I/O.
            if pte is not None:
                # Unmap the old backing first (install_anon asserts empty).
                old = self.space.pt.pop(vpn)
                old.frame.mapcount -= 1
                if old.frame.kind == "anon" and old.frame.mapcount == 0:
                    self.kernel.frames.free(old.frame)
            cost += self.space.install_anon(vpn, content=0, writable=True)
        # Map the anonymous page under both gPFNs (paper Fig. 2, step 6).
        self.ept[gfn] = EPT_WRITABLE
        self.ept[real] = EPT_WRITABLE
        return cost
