"""Frame allocator accounting — the basis of the Figure 3c numbers."""

import pytest

from repro.mm.frames import ANON, FILE, FrameAllocator, OutOfMemory
from repro.mm.kernel import Kernel
from repro.units import MIB, PAGE_SIZE


def test_alloc_kinds_counted_separately():
    frames = FrameAllocator(100)
    frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm0")
    frames.alloc(FILE)
    assert frames.counters.anon == 2
    assert frames.counters.file == 1
    assert frames.in_use == 3
    assert frames.free_frames == 97


def test_owner_attribution():
    frames = FrameAllocator(100)
    a = frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm1")
    assert frames.owner_frames("vm0") == 2
    assert frames.owner_frames("vm1") == 1
    frames.free(a)
    assert frames.owner_frames("vm0") == 1
    assert frames.owner_frames("nobody") == 0


def test_peak_tracking():
    frames = FrameAllocator(100)
    held = [frames.alloc(ANON) for _ in range(10)]
    for frame in held[:8]:
        frames.free(frame)
    assert frames.peak_frames == 10
    assert frames.in_use == 2
    frames.reset_peak()
    assert frames.peak_frames == 2
    assert frames.peak_bytes == 2 * PAGE_SIZE


def test_oom():
    frames = FrameAllocator(2)
    frames.alloc(ANON)
    frames.alloc(ANON)
    with pytest.raises(OutOfMemory):
        frames.alloc(ANON)


def test_free_mapped_frame_rejected():
    frames = FrameAllocator(10)
    frame = frames.alloc(FILE)
    frame.mapcount = 1
    with pytest.raises(ValueError):
        frames.free(frame)


def test_unique_pfns():
    frames = FrameAllocator(10)
    pfns = {frames.alloc(ANON).pfn for _ in range(5)}
    assert len(pfns) == 5


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        FrameAllocator(10).alloc("weird")


def test_positive_pool_required():
    with pytest.raises(ValueError):
        FrameAllocator(0)


def test_usage_snapshot_is_a_copy():
    frames = FrameAllocator(10)
    frames.alloc(ANON)
    usage = frames.usage()
    frames.alloc(ANON)
    assert usage.anon == 1
    assert usage.total_bytes == PAGE_SIZE


def test_double_free_rejected_while_other_frames_live():
    frames = FrameAllocator(10)
    frame = frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm0")
    frames.alloc(FILE)
    frames.free(frame)
    before = (frames.usage(), frames.in_use, frames.owner_frames("vm0"))
    with pytest.raises(ValueError, match="double free"):
        frames.free(frame)
    assert (frames.usage(), frames.in_use,
            frames.owner_frames("vm0")) == before


def test_in_use_and_peak_after_mixed_alloc_free():
    frames = FrameAllocator(100)
    held = [frames.alloc(ANON if i % 3 else FILE) for i in range(12)]
    for frame in held[::2]:
        frames.free(frame)
    held += [frames.alloc(FILE) for _ in range(3)]
    assert frames.in_use == frames.usage().total == 9
    assert frames.free_frames == 91
    assert frames.peak_frames == 12


def test_full_pool_without_watermarks_direct_reclaims_one_frame(env):
    kernel = Kernel(env=env, ram_bytes=16 * PAGE_SIZE)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 16)  # clean, unmapped pages
    env.run()
    assert kernel.frames.free_frames == 0
    frame = kernel.frames.alloc(ANON, owner="vm0")
    assert frame.kind == ANON
    assert kernel.metrics.get("reclaim_direct_total").value == 1
    assert kernel.metrics.get("reclaim_reclaimed_total").value == 1
    assert kernel.frames.free_frames == 0


def test_crossing_low_watermark_wakes_kswapd(env):
    kernel = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
    wm = kernel.reclaim.enable_watermarks()
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 64 - wm.low_frames)
    env.run()
    assert kernel.frames.free_frames == wm.low_frames
    assert kernel.metrics.get("reclaim_kswapd_wakeups_total").value == 0
    kernel.frames.alloc(ANON, owner="vm0")  # free sinks below low
    env.run()
    assert kernel.metrics.get("reclaim_kswapd_wakeups_total").value == 1
    assert kernel.frames.free_frames >= wm.high_frames
