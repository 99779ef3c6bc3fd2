"""Guest kernel: allocation tags, PV mirror marking."""

import pytest

from repro.guest.kernel import (
    MIRROR_BIT,
    GuestKernel,
    is_mirrored,
    mirror_gfn,
    unmirror_gfn,
)


def make_guest(pv=False):
    return GuestKernel(mem_pages=1024, free_spans=[(512, 512)],
                       pv_marking=pv)


def test_mirror_helpers():
    assert mirror_gfn(5) == 5 | MIRROR_BIT
    assert unmirror_gfn(mirror_gfn(5)) == 5
    assert is_mirrored(mirror_gfn(5))
    assert not is_mirrored(5)


def test_alloc_without_pv_returns_plain_gfns():
    guest = make_guest(pv=False)
    gfns = guest.alloc_pages("a", 16)
    assert all(not is_mirrored(g) for g in gfns)
    assert all(512 <= g < 1024 for g in gfns)


def test_alloc_with_pv_returns_mirrored_gfns():
    guest = make_guest(pv=True)
    gfns = guest.alloc_pages("a", 16)
    assert all(is_mirrored(g) for g in gfns)
    assert all(512 <= unmirror_gfn(g) < 1024 for g in gfns)


def test_free_by_tag_and_reuse():
    guest = make_guest(pv=True)
    first = guest.alloc_pages("a", 256)
    assert guest.free_pages("a") == 256
    second = guest.alloc_pages("b", 256)
    # The buddy reuses the freed range (LIFO order).
    assert {unmirror_gfn(g) for g in second} == {unmirror_gfn(g)
                                                 for g in first}


def test_duplicate_tag_rejected():
    guest = make_guest()
    guest.alloc_pages("a", 4)
    with pytest.raises(ValueError):
        guest.alloc_pages("a", 4)


def test_free_unknown_tag_rejected():
    with pytest.raises(KeyError):
        make_guest().free_pages("ghost")


def test_counters():
    guest = make_guest()
    guest.alloc_pages("a", 8)
    guest.alloc_pages("b", 8)
    guest.free_pages("a")
    assert guest.pages_allocated == 16
    assert guest.pages_freed == 8
    assert list(guest.live_allocations) == ["b"]
