"""The memory-pressure plane: split LRU, watermarks/kswapd, and the
ordering invariants the reclaim scan must uphold."""

import pytest

from repro.mm.frames import OutOfMemory
from repro.mm.kernel import Kernel
from repro.mm.reclaim import LruLists, Watermarks
from repro.units import MIB, PAGE_SIZE


class FakeEntry:
    def __init__(self):
        self.referenced = False
        self.active = False


# -- watermarks ---------------------------------------------------------------
def test_watermark_ordering_enforced():
    with pytest.raises(ValueError):
        Watermarks(min_frames=0, low_frames=1, high_frames=2)
    with pytest.raises(ValueError):
        Watermarks(min_frames=4, low_frames=3, high_frames=5)
    with pytest.raises(ValueError):
        Watermarks(min_frames=4, low_frames=6, high_frames=5)


def test_for_pool_defaults_scale_with_pool():
    small = Watermarks.for_pool(64)
    big = Watermarks.for_pool(1 << 20)
    for wm in (small, big):
        assert 0 < wm.min_frames <= wm.low_frames <= wm.high_frames
    assert big.min_frames > small.min_frames


# -- split LRU ----------------------------------------------------------------
def test_second_chance_promotion():
    lru = LruLists()
    entry = FakeEntry()
    lru.insert((1, 0), entry)
    assert lru.touch((1, 0)) == "referenced"
    assert entry.referenced
    assert lru.touch((1, 0)) == "promoted"
    assert (1, 0) in lru.active and (1, 0) not in lru.inactive
    assert lru.touch((1, 0)) == "active"
    lru.demote((1, 0))
    assert (1, 0) in lru.inactive and not entry.referenced
    assert lru.touch((9, 9)) is None


def test_rotate_moves_to_tail():
    lru = LruLists()
    for i in range(3):
        lru.insert((1, i), FakeEntry())
    lru.rotate((1, 0))
    assert list(lru.inactive) == [(1, 1), (1, 2), (1, 0)]
    lru.remove((1, 1))
    assert len(lru) == 2 and (1, 1) not in lru


# -- eviction order and invariants --------------------------------------------
def test_evictions_follow_lru_order(env):
    kernel = Kernel(env=env, ram_bytes=16 * PAGE_SIZE)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 16)
    env.run()
    kernel.page_cache.populate(file, 100, 4)
    env.run()
    assert kernel.reclaim.eviction_log == [(file.ino, i) for i in range(4)]
    assert kernel.metrics.get("reclaim_direct_total").value == 4
    assert kernel.metrics.get("reclaim_reclaimed_total").value == 4


def test_under_io_pages_never_evicted(env):
    kernel = Kernel(env=env, ram_bytes=8 * PAGE_SIZE)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 8)  # all locked until I/O lands
    with pytest.raises(OutOfMemory):
        kernel.page_cache.populate(file, 100, 1)
    env.run()
    assert kernel.reclaim.eviction_log == []
    assert all(kernel.page_cache.resident(file.ino, i) for i in range(8))


def test_mapped_pages_survive_direct_reclaim(env):
    kernel = Kernel(env=env, ram_bytes=16 * PAGE_SIZE)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 16)
    env.run()
    for i in range(8):
        kernel.page_cache.lookup(file.ino, i).frame.mapcount = 1
    kernel.page_cache.populate(file, 100, 8)
    env.run()
    evicted = {index for _ino, index in kernel.reclaim.eviction_log}
    assert evicted == set(range(8, 16))  # never a mapped page
    assert kernel.metrics.get("reclaim_activations_total").value >= 8
    for i in range(8):
        assert kernel.page_cache.resident(file.ino, i)
        kernel.page_cache.lookup(file.ino, i).frame.mapcount = 0


# -- kswapd -------------------------------------------------------------------
def test_kswapd_wakes_and_reclaims_to_high_watermark(env):
    kernel = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
    wm = kernel.reclaim.enable_watermarks()
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 59)
    env.run()
    wakeups = kernel.metrics.get("reclaim_kswapd_wakeups_total")
    assert wakeups.value == 0  # still above low
    kernel.page_cache.populate(file, 100, 1)  # free sinks below low
    env.run()
    metrics = kernel.metrics.snapshot()
    assert metrics["reclaim_kswapd_wakeups_total"] == 1
    assert kernel.frames.free_frames >= wm.high_frames
    assert metrics["reclaim_reclaimed_total"] >= 1
    # Background reclaim charges CPU time.
    assert metrics["reclaim_cpu_seconds_total"] > 0.0


def test_enable_watermarks_idempotent(env):
    kernel = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
    wm = kernel.reclaim.enable_watermarks()
    assert kernel.reclaim.enable_watermarks() is wm


# -- per-ino residency accounting ---------------------------------------------
def test_cached_pages_per_ino_accounting(env):
    kernel = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
    cache = kernel.page_cache
    f1 = kernel.filestore.create("a", MIB)
    f2 = kernel.filestore.create("b", MIB)
    cache.populate(f1, 0, 10)
    cache.populate(f2, 0, 5)
    env.run()
    assert cache.cached_pages(f1.ino) == 10
    assert cache.cached_pages(f2.ino) == 5
    assert cache.cached_pages() == 15
    assert cache.cached_pages(9999) == 0
    cache.forget(cache.lookup(f2.ino, 0))
    assert cache.cached_pages(f2.ino) == 4
    kernel.drop_caches()
    assert cache.cached_pages(f1.ino) == 0
    assert cache.cached_pages() == 0


# -- speculative fills under OOM ----------------------------------------------
def test_speculative_fill_aborts_on_oom_demand_raises(env):
    kernel = Kernel(env=env, ram_bytes=8 * PAGE_SIZE)
    cache = kernel.page_cache
    file = kernel.filestore.create("f", MIB)
    cache.populate(file, 0, 8)
    env.run()
    for i in range(8):
        cache.lookup(file.ino, i).frame.mapcount = 1

    # A readahead-class fill degrades to a no-op instead of raising.
    cost, entries = cache.populate(file, 100, 8, speculative=True)
    assert entries == []
    aborts = kernel.metrics.get("cache_ra_oom_aborts_total")
    assert aborts.value == 1
    assert cache.page_cache_ra_unbounded(file, 200, 8) == 0.0
    assert aborts.value == 2

    # The demand page of a speculative window still raises.
    with pytest.raises(OutOfMemory):
        cache.populate(file, 100, 8, speculative=True, required=100)

    # Once the pins go away the demand path retries and succeeds.
    for i in range(8):
        cache.lookup(file.ino, i).frame.mapcount = 0
    cache.populate(file, 100, 2)
    env.run()
    assert cache.resident(file.ino, 100)
    assert cache.resident(file.ino, 101)
