"""Stateful buddy-allocator property: interleaved alloc/free sequences.

Complements the conservation test with a stateful workload that mirrors
what invocations actually do — allocate several tagged chunks, free some
mid-stream, allocate again from the recycled space.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.buddy import BuddyAllocator
from repro.guest.kernel import GuestKernel, unmirror_gfn


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 200)),
        st.tuples(st.just("free"), st.integers(0, 10)),
    ),
    min_size=1, max_size=30))
def test_interleaved_alloc_free(steps):
    guest = GuestKernel(mem_pages=4096, free_spans=[(1024, 2048)],
                        pv_marking=True)
    live: dict[str, set[int]] = {}
    counter = 0
    for op, arg in steps:
        if op == "alloc":
            if arg > guest.buddy.free_pages:
                continue
            counter += 1
            tag = f"t{counter}"
            gfns = guest.alloc_pages(tag, arg)
            pages = {unmirror_gfn(g) for g in gfns}
            assert len(pages) == arg
            for other in live.values():
                assert not (pages & other), "page handed out twice"
            assert all(1024 <= p < 3072 for p in pages)
            live[tag] = pages
        elif live:
            tag = list(live)[arg % len(live)]
            freed = guest.free_pages(tag)
            assert freed == len(live.pop(tag))
    # Free everything; the allocator must return to its initial size.
    for tag in list(live):
        guest.free_pages(tag)
    assert guest.buddy.free_pages == 2048
    assert guest.pages_allocated == guest.pages_freed


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20))
def test_fragmented_pool_exact_capacity(sizes):
    """Scattered 8-page fragments: capacity is exactly the seeded count
    regardless of request decomposition."""
    fragments = [(base, 8) for base in range(0, 4096, 64)]
    buddy = BuddyAllocator(fragments)
    total = buddy.free_pages
    assert total == sum(length for _start, length in fragments)
    got = 0
    for size in sizes:
        if size > buddy.free_pages:
            break
        got += len(buddy.alloc_pages(size))
    assert buddy.free_pages == total - got
