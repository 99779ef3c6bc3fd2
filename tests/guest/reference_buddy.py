"""Per-page buddy seeding, kept as a test-only reference.

:class:`~repro.guest.buddy.BuddyAllocator` used to be seeded from an
iterable of free PFNs: it built a set of them, sorted it and scanned it
page by page for contiguous runs.  It is now seeded from the snapshot's
``(start, length)`` free spans, merged into maximal runs.  This module
keeps the per-page seeding so ``test_buddy_seeding.py`` can build one
allocator each way and require identical free lists.
"""

from repro.guest.buddy import MAX_ORDER, BuddyAllocator


def seed_from_pfns(buddy: BuddyAllocator, pfns: list[int]) -> None:
    """Greedily build maximal aligned blocks from a sorted PFN list."""
    i = 0
    n = len(pfns)
    while i < n:
        start = pfns[i]
        # Longest contiguous run from i.
        j = i
        while j + 1 < n and pfns[j + 1] == pfns[j] + 1:
            j += 1
        run_len = j - i + 1
        # Carve the run into maximal aligned power-of-two blocks.
        pos = start
        remaining = run_len
        while remaining > 0:
            order = MAX_ORDER
            while order > 0 and ((pos & ((1 << order) - 1)) != 0
                                 or (1 << order) > remaining):
                order -= 1
            buddy._push(order, pos)
            buddy._free_count += 1 << order
            pos += 1 << order
            remaining -= 1 << order
        i = j + 1


def reference_buddy(free_pfns) -> BuddyAllocator:
    """An allocator seeded page by page from ``free_pfns``."""
    buddy = BuddyAllocator(())
    seed_from_pfns(buddy, sorted(set(free_pfns)))
    return buddy
