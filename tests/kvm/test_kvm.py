"""KVM nested paging: EPT, PV mirror faults, the CoW write-mapping bug."""

import pytest

from repro.guest.kernel import mirror_gfn
from repro.kvm.kvm import KVM
from repro.units import MIB
from tests.conftest import drive


@pytest.fixture
def file(kernel):
    return kernel.filestore.create("snap", 4 * MIB)


def make_kvm(kernel, file, pv=False, patched=True, force=30):
    space = kernel.spawn_space("vm0")
    space.mmap(file.size_pages, file=file, at=1 << 20, ra_pages=0)
    return KVM(space, guest_base_vpn=1 << 20, mem_pages=file.size_pages,
               pv_enabled=pv, patched_cow=patched,
               force_write_percent=force, vm_seed=7)


def access(kernel, kvm, gfn, write=False):
    return drive(kernel.env, kvm.access(gfn, write))


class TestEpt:
    def test_miss_then_hit(self, kernel, file):
        kvm = make_kvm(kernel, file)
        cost1 = access(kernel, kvm, 10)
        assert cost1 > 0
        assert kvm.stats_nested_faults == 1
        cost2 = access(kernel, kvm, 10)
        assert cost2 == 0.0
        assert kvm.stats_nested_faults == 1

    def test_read_fault_maps_readonly_under_patched_kvm(self, kernel, file):
        kvm = make_kvm(kernel, file, patched=True, force=100)
        access(kernel, kvm, 10)
        assert not kvm.ept[10].writable
        # The backing host page is the shared cache frame.
        assert kvm.space.pte(kvm.host_vpn(10))[0].kind == "file"

    def test_write_after_read_upgrades_via_cow(self, kernel, file):
        kvm = make_kvm(kernel, file)
        access(kernel, kvm, 10)
        access(kernel, kvm, 10, write=True)
        assert kvm.ept[10].writable
        frame, _writable = kvm.space.pte(kvm.host_vpn(10))
        assert frame.kind == "anon"
        assert frame.content == file.content(10)

    def test_gfn_out_of_range(self, kernel, file):
        kvm = make_kvm(kernel, file)
        with pytest.raises(ValueError):
            access(kernel, kvm, file.size_pages)


class TestCowBug:
    def test_unpatched_forces_some_read_faults_to_write(self, kernel, file):
        kvm = make_kvm(kernel, file, patched=False, force=100)
        access(kernel, kvm, 10)  # read fault, forcibly write-mapped
        assert kvm.stats_forced_writes == 1
        frame, _writable = kvm.space.pte(kvm.host_vpn(10))
        assert frame.kind == "anon"  # CoW'd: dedup destroyed

    def test_patched_never_forces(self, kernel, file):
        kvm = make_kvm(kernel, file, patched=True, force=100)
        for gfn in range(50):
            access(kernel, kvm, gfn)
        assert kvm.stats_forced_writes == 0
        assert kernel.frames.counters.anon == 0

    def test_force_probability_is_partial(self, kernel, file):
        kvm = make_kvm(kernel, file, patched=False, force=30)
        for gfn in range(200):
            access(kernel, kvm, gfn)
        assert 0 < kvm.stats_forced_writes < 200

    def test_force_deterministic_per_seed(self, kernel, file):
        kvm1 = make_kvm(kernel, file, patched=False, force=30)
        for gfn in range(100):
            access(kernel, kvm1, gfn)
        kernel2_forced = kvm1.stats_forced_writes
        kvm2 = make_kvm(kernel, file, patched=False, force=30)
        for gfn in range(100):
            access(kernel, kvm2, gfn)
        assert kvm2.stats_forced_writes == kernel2_forced


class TestPvFault:
    def test_mirrored_fault_serves_anonymous_memory(self, kernel, file):
        kvm = make_kvm(kernel, file, pv=True)
        gfn = mirror_gfn(100)
        access(kernel, kvm, gfn, write=True)
        assert kvm.stats_pv_faults == 1
        frame, _writable = kvm.space.pte(kvm.host_vpn(100))
        assert frame.kind == "anon" and frame.content == 0
        # No snapshot I/O happened.
        assert kernel.metrics.get("device_requests_total").value == 0

    def test_both_aliases_mapped(self, kernel, file):
        """Paper Fig. 2 step 6: the anonymous page is mapped under the
        mirrored AND the original gPFN."""
        kvm = make_kvm(kernel, file, pv=True)
        access(kernel, kvm, mirror_gfn(100), write=True)
        assert kvm.ept[mirror_gfn(100)].writable
        assert kvm.ept[100].writable
        # A subsequent access via the original gPFN is an EPT hit.
        assert access(kernel, kvm, 100, write=True) == 0.0

    def test_pv_replaces_snapshot_backing(self, kernel, file):
        kvm = make_kvm(kernel, file, pv=True)
        access(kernel, kvm, 100)  # fetch from snapshot first
        assert kvm.space.pte(kvm.host_vpn(100))[0].kind == "file"
        access(kernel, kvm, mirror_gfn(100), write=True)
        assert kvm.space.pte(kvm.host_vpn(100))[0].kind == "anon"

    def test_mirrored_without_pv_support_rejected(self, kernel, file):
        kvm = make_kvm(kernel, file, pv=False)
        with pytest.raises(RuntimeError):
            access(kernel, kvm, mirror_gfn(100), write=True)

    def test_pv_reuse_skips_allocation(self, kernel, file):
        kvm = make_kvm(kernel, file, pv=True)
        access(kernel, kvm, mirror_gfn(100), write=True)
        anon_before = kernel.frames.counters.anon
        kvm.ept.pop(mirror_gfn(100))  # simulate EPT eviction
        access(kernel, kvm, mirror_gfn(100), write=True)
        assert kernel.frames.counters.anon == anon_before
