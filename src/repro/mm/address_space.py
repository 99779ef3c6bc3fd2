"""Virtual address spaces: VMAs, page tables, and the fault paths.

Each VMM process owns an :class:`AddressSpace`.  A restored sandbox's
guest memory is one VMA here: a ``MAP_PRIVATE`` mapping of the snapshot
file (the page-cache approaches), an anonymous VMA registered with a
userfaultfd (REAP/Faast), or per-region mappings of a working-set file
(FaaSnap).

Fault handling is written as DES generators: they yield only when real
waiting happens (disk I/O, uffd round trips), return the CPU seconds
consumed, and are composed into the vCPU loop with ``yield from`` so the
common all-cached case costs no simulation events at all.

The semantics that matter for the paper:

* a read fault on a private file mapping maps the page-cache frame
  read-only and **shared** (this is the deduplication SnapBPF exploits);
* a write fault (or a write to a read-only mapped page) copies the frame
  into per-space anonymous memory (CoW) — which is also how the KVM
  forced-write-mapping bug of §4 destroys deduplication;
* faults in uffd-registered VMAs always resolve to private anonymous
  frames installed by userspace.

A page-table entry is a ``(frame, writable)`` pair.  Copy-on-write needs
no flag of its own: only a private file mapping maps a page-cache (FILE)
frame read-only, so a read-only FILE entry is exactly a CoW entry.  A
shared file mapping maps its FILE frames writable, and every other
mapping maps ANON frames.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from repro.mm.frames import ANON, FILE, Frame
from repro.mm.readahead import ReadaheadState
from repro.storage.device import PRIO_READAHEAD
from repro.mm.userfaultfd import Uffd
from repro.storage.filestore import File
from repro.units import DEFAULT_READAHEAD_PAGES


class SegfaultError(RuntimeError):
    """Access outside any VMA."""


@dataclass(slots=True)
class VMA:
    """One mapped region of ``npages`` pages starting at page ``start``."""

    start: int
    npages: int
    file: File | None = None
    pgoff: int = 0
    private: bool = True
    uffd: Uffd | None = None
    ra: ReadaheadState = field(
        default_factory=lambda: ReadaheadState(DEFAULT_READAHEAD_PAGES))
    name: str = ""

    @property
    def end(self) -> int:
        return self.start + self.npages

    @property
    def is_anon(self) -> bool:
        return self.file is None

    def file_index(self, vpn: int) -> int:
        """File page index backing virtual page ``vpn``."""
        return self.pgoff + (vpn - self.start)

    def contains(self, vpn: int) -> bool:
        return self.start <= vpn < self.end


class AddressSpace:
    """Page table + VMA list for one process (VMM)."""

    _ids = itertools.count()

    def __init__(self, kernel, owner: str | None = None):
        self.kernel = kernel
        self.owner = owner or f"proc{next(self._ids)}"
        #: vpn -> (frame, writable); see the module docstring.
        self.pt: dict[int, tuple[Frame, bool]] = {}
        self._vmas: list[VMA] = []       # sorted by start
        self._starts: list[int] = []
        #: The VMA of the last fault: guest memory is usually one VMA, so
        #: this skips the bisect.  Valid because VMAs are only ever added
        #: (never moved or split) until teardown drops them all.
        self._last_vma: VMA | None = None
        self._next_va = 1 << 20          # bump allocator for mmap placement
        #: Set by teardown(): late installs from still-running prefetcher
        #: threads become no-ops instead of leaking frames.
        self.dead = False
        self.stats_minor_faults = 0
        self.stats_major_faults = 0
        self.stats_cow_faults = 0
        self.stats_uffd_faults = 0

    # -- VMA management ---------------------------------------------------------
    def mmap(self, npages: int, file: File | None = None, pgoff: int = 0,
             private: bool = True, uffd: Uffd | None = None,
             at: int | None = None, ra_pages: int = DEFAULT_READAHEAD_PAGES,
             name: str = "") -> VMA:
        """Create a mapping; returns the VMA.  CPU cost is the caller's to
        charge (``kernel.costs.mmap_region``)."""
        if npages <= 0:
            raise ValueError("mmap of zero pages")
        if file is not None and pgoff + npages > file.size_pages:
            raise ValueError(
                f"mapping [{pgoff}, {pgoff + npages}) beyond {file.name!r}")
        if at is None:
            at = self._next_va
            self._next_va += npages + 16  # guard gap
        else:
            self._next_va = max(self._next_va, at + npages + 16)
        vma = VMA(start=at, npages=npages, file=file, pgoff=pgoff,
                  private=private, uffd=uffd,
                  ra=ReadaheadState(ra_pages), name=name)
        pos = bisect.bisect_left(self._starts, at)
        if pos < len(self._vmas) and self._vmas[pos].start < vma.end:
            raise ValueError("overlapping mapping")
        if pos > 0 and self._vmas[pos - 1].end > at:
            raise ValueError("overlapping mapping")
        self._vmas.insert(pos, vma)
        self._starts.insert(pos, at)
        return vma

    def vma_at(self, vpn: int) -> VMA:
        pos = bisect.bisect_right(self._starts, vpn) - 1
        if pos >= 0 and self._vmas[pos].contains(vpn):
            return self._vmas[pos]
        raise SegfaultError(f"{self.owner}: no VMA maps page {vpn:#x}")

    @property
    def vmas(self) -> list[VMA]:
        return list(self._vmas)

    def teardown(self) -> None:
        """Process exit: drop all mappings, free private anonymous memory."""
        self.dead = True
        free = self.kernel.frames.free
        for frame, _writable in self.pt.values():
            frame.mapcount -= 1
            if frame.kind == ANON and frame.mapcount == 0:
                free(frame)
        self.pt.clear()
        self._vmas.clear()
        self._starts.clear()
        self._last_vma = None

    # -- direct installs (uffd copy, KVM PV path) -------------------------------
    def install_anon(self, vpn: int, content: int = 0,
                     writable: bool = True) -> float:
        """Map a fresh anonymous frame at ``vpn``; returns CPU cost.

        No-op on a dead space: a userfaultfd prefetcher racing with
        sandbox teardown must not resurrect mappings (and leak frames)."""
        costs = self.kernel.costs
        if self.dead:
            return 0.0
        if vpn in self.pt:
            raise ValueError(f"{self.owner}: page {vpn:#x} already mapped")
        frame = self.kernel.frames.alloc(ANON, content, self.owner)
        # _map() without its replace step: vpn was checked unmapped.
        frame.mapcount += 1
        self.pt[vpn] = (frame, writable)
        fill = (costs.zero_page if content == 0 else costs.memcpy_page)
        return fill + costs.pte_install

    def pte_present(self, vpn: int) -> bool:
        return vpn in self.pt

    def pte(self, vpn: int) -> tuple[Frame, bool] | None:
        """The ``(frame, writable)`` entry mapping ``vpn``, if any."""
        return self.pt.get(vpn)

    # -- the fault paths -----------------------------------------------------------
    def handle_fault(self, vpn: int, is_write: bool):
        """Generator: resolve a fault at ``vpn``; returns CPU seconds."""
        costs = self.kernel.costs
        cost = costs.fault_base

        pte = self.pt.get(vpn)
        if pte is not None:
            frame, writable = pte
            if is_write and not writable:
                if frame.kind == FILE:  # read-only FILE: copy-on-write
                    cost += self._cow(vpn, frame)
                else:
                    self.pt[vpn] = (frame, True)
                    cost += costs.pte_install
            self.stats_minor_faults += 1
            return cost

        vma = self._last_vma
        if vma is None or not vma.start <= vpn < vma.start + vma.npages:
            vma = self._last_vma = self.vma_at(vpn)
        if vma.uffd is not None:
            self.stats_uffd_faults += 1
            cost += costs.uffd_roundtrip
            wake = vma.uffd.notify(vpn, is_write)
            yield wake
            # The handler installed the mapping (or the VM is being torn
            # down).  A write fault on a read-only installed page falls
            # through to a follow-up fault; callers re-drive.
            return cost

        if vma.file is None:
            cost += self.install_anon(vpn, content=0, writable=True)
            self.stats_minor_faults += 1
            return cost

        # File-backed fault through the page cache.
        entry, filemap_cost, major = yield from self._filemap_fault(vma, vpn)
        cost += filemap_cost
        if major:
            self.stats_major_faults += 1
        else:
            self.stats_minor_faults += 1
        if is_write and vma.private:
            # Write to a private file mapping: CoW immediately at fault.
            frame = self.kernel.frames.alloc(ANON, entry.frame.content,
                                             self.owner)
            self._map(vpn, frame, True)
            cost += costs.memcpy_page + costs.pte_install
        else:
            # Read-only exactly when private: the CoW case.
            self._map(vpn, entry.frame, not vma.private)
            cost += costs.pte_install
        return cost

    def _filemap_fault(self, vma: VMA, vpn: int):
        """Generator: page-cache side of a file fault.

        Returns (entry, cost, was_major).  Implements sync readahead on
        miss, async readahead on PG_readahead marker hit, and waiting on
        pages locked under somebody else's I/O.
        """
        cache = self.kernel.page_cache
        costs = self.kernel.costs
        file = vma.file
        index = vma.pgoff + (vpn - vma.start)
        cost = costs.cache_lookup

        entry = cache.lookup(file.ino, index)
        if entry is not None and entry.uptodate:
            vma.ra.on_cache_hit(index)
            if entry.ra_marker:
                entry.ra_marker = False
                plan = vma.ra.on_marker_hit(index, file.size_pages)
                ra_cost, _ = cache.populate(file, plan.start, plan.count,
                                            marker=plan.marker,
                                            prio=PRIO_READAHEAD)
                cost += ra_cost
            return entry, cost, False

        if entry is not None:
            # Locked under I/O issued by another faulter/prefetcher.
            yield entry.io_event
            return entry, cost, True

        plan = vma.ra.on_cache_miss(index, file.size_pages)
        populate_cost, _ = cache.populate(file, plan.start, plan.count,
                                          marker=plan.marker)
        cost += populate_cost
        entry = cache.lookup(file.ino, index)
        if entry is None:  # pragma: no cover - populate guarantees presence
            raise RuntimeError("faulting page vanished after populate")
        if not entry.uptodate:
            yield entry.io_event
        return entry, cost, True

    # -- internals --------------------------------------------------------------------
    def _map(self, vpn: int, frame: Frame, writable: bool) -> None:
        existing = self.pt.get(vpn)
        if existing is not None:
            old = existing[0]
            old.mapcount -= 1
            if old.kind == ANON and old.mapcount == 0:
                self.kernel.frames.free(old)
        frame.mapcount += 1
        self.pt[vpn] = (frame, writable)

    def _cow(self, vpn: int, shared: Frame) -> float:
        """Copy-on-write: replace a shared file frame with a private copy."""
        costs = self.kernel.costs
        frame = self.kernel.frames.alloc(ANON, shared.content, self.owner)
        shared.mapcount -= 1
        frame.mapcount += 1
        self.pt[vpn] = (frame, True)
        self.stats_cow_faults += 1
        return costs.memcpy_page + costs.pte_install

    # -- mincore ------------------------------------------------------------------------
    def mincore(self, vma: VMA) -> list[bool]:
        """Per-page residency of a mapping, as mincore(2) reports it.

        For file-backed private mappings a page counts as resident if it
        is mapped here or resident in the page cache — the semantics
        FaaSnap's capture phase relies on.
        """
        pt = self.pt
        if vma.file is None:
            return [vpn in pt for vpn in range(vma.start, vma.end)]
        # One bulk page-cache residency query for the whole mapping, then
        # overlay the page-table presence.
        cached = self.kernel.page_cache.residency_bytes(
            vma.file.ino, vma.file_index(vma.start), vma.npages)
        return [byte != 0 or (vma.start + i) in pt
                for i, byte in enumerate(cached)]
