"""Address spaces: mmap, fault paths, CoW, sharing, mincore, teardown."""

import pytest

from repro.mm.address_space import SegfaultError
from repro.units import MIB
from tests.conftest import drive


@pytest.fixture
def file(kernel):
    return kernel.filestore.create("snap", 4 * MIB)


@pytest.fixture
def space(kernel):
    return kernel.spawn_space("vm0")


def fault(kernel, space, vpn, write=False):
    return drive(kernel.env, space.handle_fault(vpn, write))


class TestMmap:
    def test_placement_and_lookup(self, kernel, space, file):
        vma = space.mmap(64, file=file, at=1000)
        assert space.vma_at(1000) is vma
        assert space.vma_at(1063) is vma
        with pytest.raises(SegfaultError):
            space.vma_at(1064)

    def test_auto_placement_non_overlapping(self, space, file):
        v1 = space.mmap(64, file=file)
        v2 = space.mmap(64)
        assert v1.end <= v2.start

    def test_overlap_rejected(self, space, file):
        space.mmap(64, file=file, at=1000)
        with pytest.raises(ValueError):
            space.mmap(8, at=1030)
        with pytest.raises(ValueError):
            space.mmap(2000, at=0)

    def test_mapping_beyond_file_rejected(self, space, file):
        with pytest.raises(ValueError):
            space.mmap(file.size_pages + 1, file=file)

    def test_file_index_translation(self, space, file):
        vma = space.mmap(64, file=file, pgoff=100, at=1000)
        assert vma.file_index(1010) == 110


class TestAnonFault:
    def test_zero_fill(self, kernel, space):
        space.mmap(16, at=1000)
        cost = fault(kernel, space, 1000, write=True)
        frame, writable = space.pte(1000)
        assert writable and frame.kind == "anon"
        assert frame.content == 0
        assert cost > 0

    def test_owner_attribution(self, kernel, space):
        space.mmap(16, at=1000)
        fault(kernel, space, 1000, write=True)
        assert kernel.frames.owner_frames("vm0") == 1


class TestFileFault:
    def test_read_fault_maps_shared_readonly(self, kernel, space, file):
        space.mmap(64, file=file, at=1000)
        fault(kernel, space, 1010)
        frame, writable = space.pte(1010)
        cow = frame.kind == "file" and not writable  # a write must copy
        assert not writable and cow
        assert frame.kind == "file"
        assert frame.content == file.content(10)

    def test_write_fault_cows_at_fault_time(self, kernel, space, file):
        space.mmap(64, file=file, at=1000)
        fault(kernel, space, 1010, write=True)
        frame, writable = space.pte(1010)
        assert writable and frame.kind == "anon"
        assert frame.content == file.content(10)  # copy fidelity

    def test_write_after_read_cows(self, kernel, space, file):
        space.mmap(64, file=file, at=1000)
        fault(kernel, space, 1010)
        shared = space.pte(1010)[0]
        fault(kernel, space, 1010, write=True)
        frame, _writable = space.pte(1010)
        assert frame is not shared
        assert frame.kind == "anon"
        assert shared.mapcount == 0  # unshared by this space
        assert space.stats_cow_faults == 1

    def test_two_spaces_share_cache_frame(self, kernel, file):
        s1, s2 = kernel.spawn_space("a"), kernel.spawn_space("b")
        s1.mmap(64, file=file, at=1000)
        s2.mmap(64, file=file, at=1000)
        fault(kernel, s1, 1005)
        fault(kernel, s2, 1005)
        assert s1.pte(1005)[0] is s2.pte(1005)[0]
        assert s1.pte(1005)[0].mapcount == 2

    def test_major_vs_minor_accounting(self, kernel, space, file):
        space.mmap(64, file=file, at=1000, ra_pages=0)
        fault(kernel, space, 1000)
        assert space.stats_major_faults == 1
        # Second space hits the now-resident page: minor.
        other = kernel.spawn_space("vm1")
        other.mmap(64, file=file, at=1000, ra_pages=0)
        fault(kernel, other, 1000)
        assert other.stats_major_faults == 0
        assert other.stats_minor_faults == 1

    def test_readahead_window_populated_on_miss(self, kernel, space, file):
        space.mmap(file.size_pages, file=file, at=1000, ra_pages=32)
        fault(kernel, space, 1000)
        assert kernel.page_cache.cached_pages(file.ino) == 32

    def test_nora_populates_single_page(self, kernel, space, file):
        space.mmap(file.size_pages, file=file, at=1000, ra_pages=0)
        fault(kernel, space, 1000)
        assert kernel.page_cache.cached_pages(file.ino) == 1

    def test_marker_hit_extends_window_async(self, kernel, space, file):
        space.mmap(file.size_pages, file=file, at=1000, ra_pages=32)
        fault(kernel, space, 1000)
        marker_index = next(
            i for i in range(32)
            if kernel.page_cache.lookup(file.ino, i).ra_marker)
        fault(kernel, space, 1000 + marker_index)
        kernel.env.run()
        assert kernel.page_cache.cached_pages(file.ino) > 32

    def test_fault_outside_vma_segfaults(self, kernel, space):
        with pytest.raises(SegfaultError):
            fault(kernel, space, 123456)


class TestUffdFault:
    def test_fault_delegated_and_resolved(self, kernel, space):
        uffd = kernel.new_uffd()
        space.mmap(16, at=1000, uffd=uffd)

        def handler():
            msg = yield uffd.read()
            space.install_anon(msg.vpn, content=777)
            uffd.resolve(msg.vpn)

        kernel.env.process(handler())
        fault(kernel, space, 1003)
        assert space.pte(1003)[0].content == 777
        assert space.stats_uffd_faults == 1

    def test_concurrent_faulters_share_one_message(self, kernel, space):
        uffd = kernel.new_uffd()
        space.mmap(16, at=1000, uffd=uffd)
        messages = []

        def handler():
            while True:
                msg = yield uffd.read()
                messages.append(msg.vpn)
                yield kernel.env.timeout(1e-6)
                space.install_anon(msg.vpn, content=1)
                uffd.resolve(msg.vpn)

        kernel.env.process(handler())
        kernel.env.process(space.handle_fault(1003, False))
        kernel.env.process(space.handle_fault(1003, False))
        kernel.env.run()
        assert messages == [1003]


class TestDirectInstall:
    def test_install_anon(self, kernel, space):
        space.mmap(16, at=1000)
        cost = space.install_anon(1000, content=5)
        assert cost > 0
        assert space.pte(1000)[0].content == 5

    def test_double_install_rejected(self, kernel, space):
        space.mmap(16, at=1000)
        space.install_anon(1000)
        with pytest.raises(ValueError):
            space.install_anon(1000)


class TestMincore:
    def test_reports_mapped_and_cached(self, kernel, space, file):
        vma = space.mmap(8, file=file, at=1000, ra_pages=0)
        fault(kernel, space, 1002)
        kernel.page_cache.populate(file, 5, 1)
        kernel.env.run()
        residency = space.mincore(vma)
        assert residency == [False, False, True, False, False,
                             True, False, False]

    def test_anon_vma_mincore(self, kernel, space):
        vma = space.mmap(4, at=1000)
        space.install_anon(1001)
        assert space.mincore(vma) == [False, True, False, False]


class TestTeardown:
    def test_frees_anon_keeps_cache(self, kernel, space, file):
        space.mmap(64, file=file, at=1000)
        fault(kernel, space, 1001)               # shared file page
        fault(kernel, space, 1002, write=True)   # private CoW page
        assert kernel.frames.counters.anon == 1
        space.teardown()
        assert kernel.frames.counters.anon == 0
        assert kernel.frames.counters.file >= 1  # cache survives
        assert kernel.page_cache.lookup(file.ino, 1).frame.mapcount == 0
