"""File store: namespace, extents, content tokens, page-granular I/O."""

import pytest

from repro.storage.filestore import ZERO_PAGE, FileStore, default_token
from repro.storage.ssd import SSDevice
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def store(env):
    return FileStore(env, SSDevice(env))


class TestNamespace:
    def test_create_open(self, store):
        f = store.create("a.snap", MIB)
        assert store.open("a.snap") is f
        assert store.by_ino(f.ino) is f
        assert store.exists("a.snap")

    def test_duplicate_create_rejected(self, store):
        store.create("a", MIB)
        with pytest.raises(FileExistsError):
            store.create("a", MIB)

    def test_open_missing(self, store):
        with pytest.raises(FileNotFoundError):
            store.open("nope")
        with pytest.raises(FileNotFoundError):
            store.by_ino(999)

    def test_unlink(self, store):
        f = store.create("a", MIB)
        store.unlink("a")
        assert not store.exists("a")
        with pytest.raises(FileNotFoundError):
            store.by_ino(f.ino)

    def test_sizes(self, store):
        with pytest.raises(ValueError):
            store.create("zero", 0)
        f = store.create("odd", PAGE_SIZE + 1)
        assert f.size_pages == 2

    def test_device_full(self, store):
        with pytest.raises(OSError):
            store.create("huge", store.device.capacity_bytes + PAGE_SIZE)

    def test_contiguous_extents(self, store):
        f1 = store.create("a", MIB)
        f2 = store.create("b", MIB)
        assert f2.device_offset == f1.device_offset + MIB


class TestContent:
    def test_default_token_nonzero_and_unique(self, store):
        f1 = store.create("a", MIB)
        f2 = store.create("b", MIB)
        assert f1.content(0) != ZERO_PAGE
        assert f1.content(0) != f1.content(1)
        assert f1.content(0) != f2.content(0)
        assert f1.content(3) == default_token(f1.ino, 3)

    def test_set_content_and_zero_scan(self, store):
        f = store.create("a", MIB)
        f.set_content(5, ZERO_PAGE)
        f.set_content(9, ZERO_PAGE)
        f.set_content(7, 12345)
        assert f.zero_pages() == [5, 9]
        assert f.content(7) == 12345

    def test_out_of_range_page(self, store):
        f = store.create("a", MIB)
        with pytest.raises(IndexError):
            f.content(f.size_pages)
        with pytest.raises(IndexError):
            f.set_content(-1, 0)

    def test_run_contents_match_per_page_contents(self, store):
        f = store.create("a", MIB)
        f.set_content(5, ZERO_PAGE)
        f.set_content(7, 12345)
        assert f.contents(3, 8) == [f.content(p) for p in range(3, 11)]
        with pytest.raises(IndexError):
            f.contents(f.size_pages - 2, 3)
        with pytest.raises(IndexError):
            f.contents(-1, 2)


class TestIO:
    def test_read_pages_advances_time(self, store, env):
        f = store.create("a", MIB)
        store.read_pages(f, 0, 8)
        env.run()
        assert env.now > 0
        assert store.device.registry.get(
            "device_bytes_read_total").value == 8 * PAGE_SIZE

    def test_single_contiguous_request(self, store, env):
        f = store.create("a", MIB)
        store.read_pages(f, 4, 32)
        env.run()
        assert store.device.registry.get("device_requests_total").value == 1

    def test_bounds_checked(self, store):
        f = store.create("a", MIB)
        with pytest.raises(IndexError):
            store.read_pages(f, 0, f.size_pages + 1)
        with pytest.raises(IndexError):
            store.read_pages(f, -1, 1)
        with pytest.raises(ValueError):
            store.read_pages(f, 0, 0)

    def test_write_pages(self, store, env):
        f = store.create("a", MIB)
        store.write_pages(f, 0, 4)
        env.run()
        assert store.device.registry.get(
            "device_bytes_written_total").value == 4 * PAGE_SIZE

    def test_file_offsets_map_to_device_offsets(self, store, env):
        store.create("pad", MIB)
        f = store.create("a", MIB)
        ev = store.read_pages(f, 3, 1)
        env.run()
        assert ev.value.offset == f.device_offset + 3 * PAGE_SIZE
