"""Page cache: insertion hook, population, locking, sharing, reclaim."""

import pytest

from repro.ebpf.asm import assemble, exit_, load, movi, store, ldmap, mov, alui, call
from repro.ebpf.insn import R0, R1, R2, R3, R4, R6, R7, R10
from repro.ebpf.maps import HashMap
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.units import MIB
from tests.conftest import drive


@pytest.fixture
def file(kernel):
    return kernel.filestore.create("snap", 4 * MIB)  # 1024 pages


class TestAdd:
    def test_add_inserts_locked_page(self, kernel, file):
        entry, cost = kernel.page_cache.add_to_page_cache_lru(file, 3)
        assert entry.locked and not entry.uptodate
        assert kernel.page_cache.lookup(file.ino, 3) is entry
        assert kernel.frames.counters.file == 1

    def test_double_add_rejected(self, kernel, file):
        kernel.page_cache.add_to_page_cache_lru(file, 3)
        with pytest.raises(ValueError):
            kernel.page_cache.add_to_page_cache_lru(file, 3)

    def test_add_fires_kprobe_with_ino_and_index(self, kernel, file):
        seen = HashMap("seen", key_size=8, value_size=8)
        prog = assemble("watch", [
            load(R6, R1, 0),
            load(R7, R1, 8),
            store(R10, -8, R7),
            store(R10, -16, R6),
            ldmap(R1, "seen"),
            mov(R2, R10), alui("add", R2, -8),
            mov(R3, R10), alui("add", R3, -16),
            movi(R4, 0),
            call(2),
            movi(R0, 0), exit_(),
        ], maps={"seen": seen})
        kernel.kprobes.attach(HOOK_ADD_TO_PAGE_CACHE, prog)
        kernel.page_cache.add_to_page_cache_lru(file, 17)
        assert seen.items_u64() == [(17, (file.ino,))]


class TestPopulate:
    def test_populate_reads_contiguous_run_as_one_request(self, kernel, file):
        kernel.page_cache.populate(file, 0, 32)
        kernel.env.run()
        assert kernel.metrics.get("device_requests_total").value == 1
        assert kernel.page_cache.resident(file.ino, 0)
        assert kernel.page_cache.resident(file.ino, 31)

    def test_populate_skips_present_pages(self, kernel, file):
        kernel.page_cache.populate(file, 0, 8)
        kernel.env.run()
        kernel.device.reset_stats()
        _cost, new = kernel.page_cache.populate(file, 0, 16)
        kernel.env.run()
        assert len(new) == 8
        # Only [8, 16) is read.
        assert kernel.metrics.get("device_requests_total").value == 1

    def test_populate_holes_issue_separate_requests(self, kernel, file):
        kernel.page_cache.populate(file, 4, 4)
        kernel.env.run()
        kernel.device.reset_stats()
        kernel.page_cache.populate(file, 0, 16)  # hole at [4, 8)
        kernel.env.run()
        # [0, 4) and [8, 16).
        assert kernel.metrics.get("device_requests_total").value == 2

    def test_content_tokens_filled_after_io(self, kernel, file):
        kernel.page_cache.populate(file, 5, 1)
        kernel.env.run()
        entry = kernel.page_cache.lookup(file.ino, 5)
        assert entry.frame.content == file.content(5)

    def test_populate_bounds_checked(self, kernel, file):
        with pytest.raises(IndexError):
            kernel.page_cache.populate(file, 0, file.size_pages + 1)

    def test_marker_set_on_requested_page(self, kernel, file):
        kernel.page_cache.populate(file, 0, 32, marker=24)
        kernel.env.run()
        assert kernel.page_cache.lookup(file.ino, 24).ra_marker


class TestWaiting:
    def test_waiters_wake_on_io_completion(self, kernel, file):
        cache = kernel.page_cache
        cache.populate(file, 0, 1)
        entry = cache.lookup(file.ino, 0)

        def waiter():
            yield entry.io_event
            return kernel.env.now

        woken = drive(kernel.env, waiter())
        assert woken > 0
        assert entry.uptodate

    def test_concurrent_readers_share_one_io(self, kernel, file):
        cache = kernel.page_cache

        def reader():
            cost = yield from cache.read_range(file, 0, 8)
            return cost

        kernel.env.process(reader())
        kernel.env.process(reader())
        kernel.env.run()
        assert kernel.metrics.get("device_requests_total").value == 1
        assert kernel.frames.counters.file == 8  # one copy, shared


class TestRaUnbounded:
    def test_clips_to_file(self, kernel, file):
        kernel.page_cache.page_cache_ra_unbounded(
            file, file.size_pages - 4, 100)
        kernel.env.run()
        assert kernel.page_cache.resident(file.ino, file.size_pages - 1)
        assert kernel.page_cache.cached_pages() == 4

    def test_out_of_range_is_noop(self, kernel, file):
        assert kernel.page_cache.page_cache_ra_unbounded(
            file, file.size_pages + 5, 10) == 0.0
        assert kernel.page_cache.cached_pages() == 0

    def test_async_does_not_block_caller(self, kernel, file):
        # Returns before any simulated time elapses.
        kernel.page_cache.page_cache_ra_unbounded(file, 0, 64)
        assert kernel.env.now == 0.0
        kernel.env.run()
        assert kernel.page_cache.resident(file.ino, 63)


class TestReclaim:
    def test_drop_caches_frees_unmapped(self, kernel, file):
        kernel.page_cache.populate(file, 0, 16)
        kernel.env.run()
        assert kernel.drop_caches() == 16
        assert kernel.frames.counters.file == 0

    def test_drop_caches_keeps_mapped(self, kernel, file):
        kernel.page_cache.populate(file, 0, 2)
        kernel.env.run()
        entry = kernel.page_cache.lookup(file.ino, 0)
        entry.frame.mapcount = 1
        assert kernel.drop_caches() == 1
        assert kernel.page_cache.resident(file.ino, 0)
        entry.frame.mapcount = 0

    def test_lru_eviction_under_pressure(self, env):
        from repro.mm.kernel import Kernel
        from repro.units import PAGE_SIZE
        small = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
        f = small.filestore.create("f", MIB)
        small.page_cache.populate(f, 0, 64)
        env.run()
        # Pool is full of cache pages; next insert must evict the LRU one.
        small.page_cache.populate(f, 100, 1)
        env.run()
        assert small.metrics.get("cache_evictions_total").value >= 1
        assert not small.page_cache.resident(f.ino, 0)  # LRU head gone

    def test_forget_requires_unmapped_uptodate(self, kernel, file):
        kernel.page_cache.populate(file, 0, 1)
        entry = kernel.page_cache.lookup(file.ino, 0)
        with pytest.raises(ValueError):
            kernel.page_cache.forget(entry)  # still under I/O
        kernel.env.run()
        kernel.page_cache.forget(entry)
        assert not kernel.page_cache.resident(file.ino, 0)


class TestStats:
    def test_adds_counted(self, kernel, file):
        kernel.page_cache.populate(file, 0, 10)
        kernel.env.run()
        assert kernel.metrics.get("cache_adds_total").value == 10

    def test_cached_pages_by_ino(self, kernel, file):
        other = kernel.filestore.create("other", MIB)
        kernel.page_cache.populate(file, 0, 4)
        kernel.page_cache.populate(other, 0, 2)
        kernel.env.run()
        assert kernel.page_cache.cached_pages(file.ino) == 4
        assert kernel.page_cache.cached_pages(other.ino) == 2
        assert kernel.page_cache.cached_pages() == 6
