"""Host memory management: the Linux-like substrate SnapBPF hooks into.

The pieces mirror the kernel subsystems the paper manipulates:

* :mod:`repro.mm.frames` — physical frame allocator with anonymous /
  page-cache accounting (the source of the Figure 3c memory numbers),
* :mod:`repro.mm.page_cache` — the OS page cache, whose
  ``add_to_page_cache_lru()`` insertion path fires the kprobe SnapBPF
  attaches to, and whose ``page_cache_ra_unbounded()`` batch-read routine
  is what the ``snapbpf_prefetch`` kfunc wraps,
* :mod:`repro.mm.readahead` — Linux-style on-demand readahead state
  machine (default 128 KiB window, paper §4),
* :mod:`repro.mm.address_space` — VMAs, page tables, mmap, mincore,
* :mod:`repro.mm.fault` — the page fault paths (file-backed, anonymous,
  CoW, userfaultfd) written as DES generators,
* :mod:`repro.mm.userfaultfd` — userspace fault delegation used by the
  REAP/Faast baselines,
* :mod:`repro.mm.reclaim` — the memory-pressure plane: split
  active/inactive LRU lists, zone watermarks + kswapd, and the
  eBPF-pluggable eviction-policy attach point,
* :mod:`repro.mm.kernel` — the aggregate "host kernel" object that wires
  the above to a block device and the eBPF runtime.
"""

from repro.mm.address_space import VMA, AddressSpace
from repro.mm.costs import CostModel
from repro.mm.frames import Frame, FrameAllocator, OutOfMemory
from repro.mm.kernel import Kernel
from repro.mm.page_cache import CacheEntry, PageCache
from repro.mm.readahead import ReadaheadState
from repro.mm.reclaim import (
    HOOK_MM_EVICT,
    LruLists,
    ReclaimController,
    Watermarks,
    register_evict_hint,
)
from repro.mm.userfaultfd import Uffd, UffdMsg

__all__ = [
    "AddressSpace",
    "CacheEntry",
    "CostModel",
    "Frame",
    "FrameAllocator",
    "HOOK_MM_EVICT",
    "Kernel",
    "LruLists",
    "OutOfMemory",
    "PageCache",
    "ReadaheadState",
    "ReclaimController",
    "Uffd",
    "UffdMsg",
    "VMA",
    "Watermarks",
    "register_evict_hint",
]
