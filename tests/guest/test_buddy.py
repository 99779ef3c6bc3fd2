"""Buddy allocator: correctness + coalescing invariants.

The allocator is seeded from ``(start, length)`` spans of free PFNs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.buddy import MAX_ORDER, BuddyAllocator, GuestOOM


def test_seed_counts_pages():
    buddy = BuddyAllocator([(0, 1024)])
    assert buddy.free_pages == 1024


def test_seed_from_fragments():
    buddy = BuddyAllocator([(0, 8), (100, 4)])
    assert buddy.free_pages == 12


def test_alloc_block_alignment():
    buddy = BuddyAllocator([(0, 1024)])
    pfn = buddy.alloc_block(4)
    assert pfn % 16 == 0
    assert buddy.free_pages == 1024 - 16


def test_alloc_pages_exact_count_unique():
    buddy = BuddyAllocator([(0, 1024)])
    pfns = buddy.alloc_pages(100)
    assert len(pfns) == 100
    assert len(set(pfns)) == 100
    assert buddy.free_pages == 924


def test_allocated_pages_come_from_pool():
    spans = [(50, 50), (200, 100)]
    pool = [pfn for start, length in spans
            for pfn in range(start, start + length)]
    buddy = BuddyAllocator(spans)
    pfns = buddy.alloc_pages(120)
    assert set(pfns) <= set(pool)


def test_oom():
    buddy = BuddyAllocator([(0, 16)])
    with pytest.raises(GuestOOM):
        buddy.alloc_pages(17)
    with pytest.raises(GuestOOM):
        buddy.alloc_block(5)


def test_free_and_realloc():
    buddy = BuddyAllocator([(0, 64)])
    pfns = buddy.alloc_pages(64)
    assert buddy.free_pages == 0
    buddy.free_pages_list(pfns)
    assert buddy.free_pages == 64
    assert len(buddy.alloc_pages(64)) == 64


def test_coalescing_restores_large_blocks():
    buddy = BuddyAllocator([(0, 1 << MAX_ORDER)])
    pfns = buddy.alloc_pages(1 << MAX_ORDER)
    buddy.free_pages_list(pfns)
    # After freeing page-by-page, the full max-order block must coalesce.
    assert buddy.alloc_block(MAX_ORDER) == 0


def test_misaligned_free_rejected():
    buddy = BuddyAllocator([(0, 64)])
    buddy.alloc_pages(64)
    with pytest.raises(ValueError):
        buddy.free_block(3, 2)


def test_is_free():
    buddy = BuddyAllocator([(0, 64)])
    assert buddy.is_free(10)
    pfns = buddy.alloc_pages(64)
    assert not buddy.is_free(10)
    buddy.free_pages_list(pfns[:32])


def test_invalid_inputs():
    buddy = BuddyAllocator([(0, 64)])
    with pytest.raises(ValueError):
        buddy.alloc_pages(0)
    with pytest.raises(ValueError):
        buddy.alloc_block(MAX_ORDER + 1)


def test_deterministic_allocation_order():
    a = BuddyAllocator([(0, 512)]).alloc_pages(100)
    b = BuddyAllocator([(0, 512)]).alloc_pages(100)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(
    spans=st.lists(
        st.tuples(st.integers(0, 4000), st.integers(1, 64)),
        min_size=1, max_size=12),
    requests=st.lists(st.integers(1, 128), min_size=1, max_size=8),
)
def test_alloc_free_conservation(spans, requests):
    """Property: any alloc/free sequence conserves pages, never hands out
    a page twice, and only hands out seeded pages."""
    pool = set()
    for start, length in spans:
        pool.update(range(start, start + length))
    buddy = BuddyAllocator(spans)
    total = buddy.free_pages
    assert total == len(pool)

    live: set[int] = set()
    for want in requests:
        if want > buddy.free_pages:
            with pytest.raises(GuestOOM):
                buddy.alloc_pages(want)
            continue
        got = buddy.alloc_pages(want)
        assert len(got) == want
        got_set = set(got)
        assert len(got_set) == want
        assert not (got_set & live), "double allocation"
        assert got_set <= pool, "invented pages"
        live |= got_set
        assert buddy.free_pages == total - len(live)

    buddy.free_pages_list(sorted(live))
    assert buddy.free_pages == total


@settings(max_examples=30, deadline=None)
@given(seed_pages=st.integers(32, 512))
def test_full_drain_refill_cycle(seed_pages):
    buddy = BuddyAllocator([(0, seed_pages)])
    pfns = buddy.alloc_pages(seed_pages)
    assert sorted(pfns) == list(range(seed_pages))
    buddy.free_pages_list(pfns)
    assert buddy.free_pages == seed_pages
    again = buddy.alloc_pages(seed_pages)
    assert sorted(again) == list(range(seed_pages))
