"""Guest kernel: allocation entry points and the PV PTE-marking patch.

``alloc_pages`` is what the function's runtime calls for ephemeral memory
during an invocation.  With ``pv_marking`` enabled (the SnapBPF guest
patch, paper §3.2) the guest maps freshly allocated frames at a
*mirrored* guest PFN — the real PFN with a high bit set — so the host's
nested-fault handler can recognize "this is a new allocation, don't fetch
it from the snapshot".

``zero_on_free`` models FaaSnap's guest patch instead: pages are zeroed
when freed, so that free memory is detectable in the snapshot *content*
by a zero-page scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.guest.buddy import BuddyAllocator

#: Bit 40 of the guest PFN: far above any realistic microVM memory size
#: (2^40 pages = 4 PiB), mirroring the paper's MSB trick.
MIRROR_BIT = 1 << 40


def mirror_gfn(gfn: int) -> int:
    """The mirrored (PV-marked) alias of a guest PFN."""
    return gfn | MIRROR_BIT


def unmirror_gfn(gfn: int) -> int:
    return gfn & ~MIRROR_BIT


def is_mirrored(gfn: int) -> bool:
    return bool(gfn & MIRROR_BIT)


@dataclass
class GuestAllocation:
    """A live ephemeral allocation inside the guest."""

    tag: str
    pfns: list[int] = field(default_factory=list)


class GuestKernel:
    """Guest memory manager restored from a snapshot."""

    def __init__(self, mem_pages: int, free_spans,
                 pv_marking: bool = False, zero_on_free: bool = False):
        self.mem_pages = mem_pages
        self.pv_marking = pv_marking
        self.zero_on_free = zero_on_free
        self.buddy = BuddyAllocator(free_spans)
        self._live: dict[str, GuestAllocation] = {}
        self.pages_allocated = 0
        self.pages_freed = 0

    def alloc_pages(self, tag: str, npages: int) -> list[int]:
        """Allocate ephemeral guest memory; returns the gPFNs the guest
        will access — mirrored if the PV-marking patch is active."""
        if tag in self._live:
            raise ValueError(f"allocation tag {tag!r} already live")
        pfns = self.buddy.alloc_pages(npages)
        self._live[tag] = GuestAllocation(tag=tag, pfns=pfns)
        self.pages_allocated += npages
        if self.pv_marking:
            return [mirror_gfn(p) for p in pfns]
        return list(pfns)

    def free_pages(self, tag: str) -> int:
        """Free an allocation by tag; returns how many pages were freed."""
        alloc = self._live.pop(tag, None)
        if alloc is None:
            raise KeyError(f"no live allocation {tag!r}")
        self.buddy.free_pages_list(alloc.pfns)
        self.pages_freed += len(alloc.pfns)
        return len(alloc.pfns)

    @property
    def live_allocations(self) -> dict[str, GuestAllocation]:
        return dict(self._live)
