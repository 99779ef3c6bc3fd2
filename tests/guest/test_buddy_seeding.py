"""Span seeding ≡ the per-page reference.

``BuddyAllocator`` merges its ``(start, length)`` free spans into
maximal runs and carves each run into blocks; the reference
(``reference_buddy.py``) expands the spans into PFNs, builds a set,
sorts it and scans it page by page.  Both must push the same blocks in
the same order: every order's free set, every free stack (stale entries
included) and ``free_pages`` are compared, and then one alloc/free
sequence must hand out the same PFNs from both.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.guest.buddy import MAX_ORDER, BuddyAllocator, GuestOOM
from repro.workloads.profile import FUNCTIONS
from tests.guest.reference_buddy import reference_buddy

BLOCK = 1 << MAX_ORDER

starts = st.one_of(
    st.integers(0, 8 * BLOCK),                        # unaligned
    st.integers(0, 8 * 64).map(lambda k: k * 16),     # 16-page aligned
    st.integers(0, 8).map(lambda k: k * BLOCK))       # max-order aligned
lengths = st.one_of(
    st.integers(0, 40),
    st.integers(0, 3 * BLOCK),                        # runs past a block
    st.sampled_from([0, 1, 16, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK]))


@st.composite
def span_lists(draw) -> list[tuple[int, int]]:
    """Unsorted spans that may touch, overlap, repeat or be empty."""
    spans: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(0, 12))):
        how = (draw(st.sampled_from(
            ["fresh", "touch_after", "touch_before", "overlap", "repeat"]))
            if spans else "fresh")
        length = draw(lengths)
        if how == "fresh":
            start = draw(starts)
        else:
            base, base_len = draw(st.sampled_from(spans))
            if how == "touch_after":
                start = base + base_len
            elif how == "touch_before":
                start = max(0, base - length)
                length = base - start
            elif how == "overlap":
                start = draw(st.integers(base, base + max(base_len - 1, 0)))
            else:
                start, length = base, base_len
        spans.append((start, length))
    return draw(st.permutations(spans))


def expand(spans) -> list[int]:
    return [pfn for start, length in spans
            for pfn in range(start, start + length)]


def assert_same_free_lists(buddy: BuddyAllocator,
                           ref: BuddyAllocator) -> None:
    for order in range(MAX_ORDER + 1):
        assert buddy._free_sets[order] == ref._free_sets[order], order
        assert buddy._free_stacks[order] == ref._free_stacks[order], order
    assert buddy.free_pages == ref.free_pages


operations = st.lists(
    st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 2 * BLOCK)),
    max_size=25)


@settings(max_examples=200, deadline=None)
@given(spans=span_lists(), ops=operations)
# A block straddles two touching spans: carving each span on its own
# would push two 512-page blocks instead of one 1024-page block.
@example(spans=[(512, 512), (0, 512)], ops=[("alloc", BLOCK)])
# Overlapping spans whose union is one max-order block.
@example(spans=[(0, 600), (500, 524)], ops=[("alloc", BLOCK)])
def test_span_seeding_matches_per_page_reference(spans, ops):
    buddy = BuddyAllocator(spans)
    ref = reference_buddy(expand(spans))
    assert_same_free_lists(buddy, ref)

    live: list[list[int]] = []
    for op, arg in ops:
        if op == "alloc":
            if arg > ref.free_pages:
                with pytest.raises(GuestOOM):
                    ref.alloc_pages(arg)
                with pytest.raises(GuestOOM):
                    buddy.alloc_pages(arg)
                continue
            got = buddy.alloc_pages(arg)
            assert got == ref.alloc_pages(arg)
            live.append(got)
        elif live:
            pfns = live.pop(arg % len(live))
            buddy.free_pages_list(pfns)
            ref.free_pages_list(pfns)
        assert_same_free_lists(buddy, ref)


@pytest.mark.parametrize("profile", FUNCTIONS, ids=lambda p: p.name)
def test_snapshot_free_spans_seed_like_their_pages(profile):
    """Every function's snapshot layout: its free spans touch where a
    used span's tail was carved free, and must still seed the blocks
    the per-page scan finds."""
    spans = profile.free_spans
    assert_same_free_lists(BuddyAllocator(spans),
                           reference_buddy(expand(spans)))
