"""Binary buddy allocator over guest page frame numbers.

A faithful power-of-two buddy system: free blocks are kept per order,
allocation splits larger blocks, freeing coalesces with the buddy when
both halves are free.  Initialized from the spans of guest PFNs that
were free at snapshot time — the same information Faast's pre-scan
extracts from the snapshot's allocator metadata (which is why the
snapshot metadata exposes it; see :mod:`repro.vmm.snapshot`).
"""

from __future__ import annotations

MAX_ORDER = 10  # 4 MiB blocks, like Linux
_MAX_BLOCK = 1 << MAX_ORDER


class GuestOOM(MemoryError):
    """Guest allocator exhausted."""


class BuddyAllocator:
    """Buddy system over free PFNs given as ``(start, length)`` spans.

    Spans may come in any order and may touch, overlap or repeat; the
    free pool is their union.  Free blocks per order are kept in a
    membership set (for buddy coalescing checks) plus a LIFO stack with
    lazy deletion (for O(1) deterministic allocation even with many
    thousands of fragments).
    """

    def __init__(self, free_spans):
        self._free_sets: list[set[int]] = [set() for _ in range(MAX_ORDER + 1)]
        self._free_stacks: list[list[int]] = [[] for _ in range(MAX_ORDER + 1)]
        self._free_count = 0
        self._seed(free_spans)

    def _seed(self, free_spans) -> None:
        """Greedily build maximal aligned blocks from the spans' union.

        Touching or overlapping spans merge into maximal runs first: a
        block may straddle two spans, so carving each span on its own
        would give different blocks."""
        runs: list[list[int]] = []   # [start, end) in ascending order
        for start, length in sorted(free_spans):
            if length <= 0:
                continue
            end = start + length
            if runs and start <= runs[-1][1]:
                if end > runs[-1][1]:
                    runs[-1][1] = end
            else:
                runs.append([start, end])
        sets, stacks = self._free_sets, self._free_stacks
        for pos, end in runs:
            self._free_count += end - pos
            # Carve the run into maximal aligned power-of-two blocks:
            # each block takes the largest order that is at most
            # MAX_ORDER, fits in the rest of the run, and divides pos
            # (pos & -pos is its lowest set bit; 0 is aligned to all).
            while pos < end:
                order = min(MAX_ORDER, (end - pos).bit_length() - 1,
                            ((pos & -pos) or _MAX_BLOCK).bit_length() - 1)
                sets[order].add(pos)
                stacks[order].append(pos)
                pos += 1 << order

    def _push(self, order: int, pfn: int) -> None:
        self._free_sets[order].add(pfn)
        self._free_stacks[order].append(pfn)

    def _pop(self, order: int) -> int | None:
        """Pop a live block of exactly this order, skipping stale stack
        entries left behind by coalescing (lazy deletion)."""
        live = self._free_sets[order]
        stack = self._free_stacks[order]
        while stack:
            pfn = stack.pop()
            if pfn in live:
                live.remove(pfn)
                return pfn
        return None

    # -- interface ---------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self._free_count

    def alloc_block(self, order: int) -> int:
        """Allocate one 2**order block; returns its first PFN."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        for current in range(order, MAX_ORDER + 1):
            pfn = self._pop(current)
            if pfn is not None:
                # Split down to the requested order, freeing upper halves.
                while current > order:
                    current -= 1
                    self._push(current, pfn + (1 << current))
                self._free_count -= 1 << order
                return pfn
        raise GuestOOM(f"no free block of order {order}")

    def alloc_pages(self, npages: int) -> list[int]:
        """Allocate ``npages`` pages as a list of PFNs (greedy by order)."""
        if npages <= 0:
            raise ValueError("npages must be positive")
        if npages > self._free_count:
            raise GuestOOM(
                f"requested {npages} pages, {self._free_count} free")
        pfns: list[int] = []
        remaining = npages
        while remaining > 0:
            order = min(MAX_ORDER, remaining.bit_length() - 1)
            # Fall back to smaller orders under fragmentation.
            while order >= 0:
                try:
                    block = self.alloc_block(order)
                    break
                except GuestOOM:
                    order -= 1
            else:
                raise GuestOOM("fragmentation prevented allocation")
            pfns.extend(range(block, block + (1 << order)))
            remaining -= 1 << order
        return pfns

    def free_block(self, pfn: int, order: int) -> None:
        """Free one block, coalescing with free buddies."""
        if pfn & ((1 << order) - 1):
            raise ValueError(f"pfn {pfn} misaligned for order {order}")
        self._free_count += 1 << order
        while order < MAX_ORDER:
            buddy = pfn ^ (1 << order)
            if buddy not in self._free_sets[order]:
                break
            # Coalesce: remove the buddy from the live set (its stack
            # entry goes stale and is skipped lazily).
            self._free_sets[order].remove(buddy)
            pfn = min(pfn, buddy)
            order += 1
        self._push(order, pfn)

    def free_pages_list(self, pfns: list[int]) -> None:
        """Free individual pages (coalescing happens via free_block)."""
        for pfn in pfns:
            self.free_block(pfn, 0)

    def is_free(self, pfn: int) -> bool:
        """Whether ``pfn`` currently lies inside any free block."""
        for order, blocks in enumerate(self._free_sets):
            size = 1 << order
            base = pfn & ~(size - 1)
            if base in blocks:
                return True
        return False
