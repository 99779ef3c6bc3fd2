"""SnapBPF end-to-end invariants: no WS file, metadata-only storage,
page-cache dedup, online allocation filtering, self-disabling prefetch."""

import pytest

from repro.core.approach import PVPTEsOnly, SnapBPF
from repro.harness.experiment import make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.workloads.trace import generate_trace, working_set_pages


@pytest.fixture
def prepared(tiny_profile):
    kernel = make_kernel()
    approach = SnapBPF(kernel)
    trace = generate_trace(tiny_profile, 0)
    prep = kernel.env.process(approach.prepare(tiny_profile, trace))
    kernel.env.run(prep)
    return kernel, approach, trace


class TestCapture:
    def test_captures_exactly_the_working_set(self, prepared, tiny_profile):
        _k, approach, trace = prepared
        ws = working_set_pages(trace)
        captured = set()
        for group in approach.groups:
            captured.update(range(group.start, group.end))
        # PV marking keeps allocations out of the page cache, so the
        # captured set is exactly the snapshot working set — no
        # allocation pollution, no readahead pollution.
        assert captured == set(ws)
        assert approach.captured_pages == len(ws)

    def test_groups_sorted_by_first_access(self, prepared, tiny_profile):
        _k, approach, trace = prepared
        ws = working_set_pages(trace)
        rank = {page: i for i, page in enumerate(ws)}
        group_ranks = [min(rank[p] for p in range(g.start, g.end))
                       for g in approach.groups]
        assert group_ranks == sorted(group_ranks)

    def test_metadata_tiny_compared_to_ws(self, prepared, tiny_profile):
        _k, approach, _t = prepared
        # Offsets, not pages: orders of magnitude smaller than the WS.
        assert approach.metadata_bytes < tiny_profile.ws_bytes / 100

    def test_capture_program_detached_after_prepare(self, prepared):
        kernel, _a, _t = prepared
        assert kernel.kprobes.attached(HOOK_ADD_TO_PAGE_CACHE) == []

    def test_no_ws_file_created(self, prepared, tiny_profile):
        kernel, _a, _t = prepared
        names = [name for name in kernel.filestore._files
                 if name.endswith(".ws")]
        assert names == []


class TestInvocation:
    def run_one(self, kernel, approach, profile, trace, vm_id="vm0"):
        def body():
            vm = yield from approach.spawn(profile, vm_id)
            stats = yield from vm.invoke(trace)
            return vm, stats
        process = kernel.env.process(body())
        kernel.env.run(process)
        return process.value

    def test_prefetch_program_self_detaches(self, prepared, tiny_profile):
        kernel, approach, trace = prepared
        vm, _stats = self.run_one(kernel, approach, tiny_profile, trace)
        # The program disabled itself after issuing the last group.
        assert kernel.kprobes.attached(HOOK_ADD_TO_PAGE_CACHE) == []
        approach.post_invoke(vm)

    def test_working_set_lands_in_page_cache(self, prepared, tiny_profile):
        kernel, approach, trace = prepared
        self.run_one(kernel, approach, tiny_profile, trace)
        ino = approach.snapshot.file.ino
        for group in approach.groups:
            for page in range(group.start, group.end):
                assert kernel.page_cache.resident(ino, page)

    def test_allocations_never_fetch_snapshot(self, prepared, tiny_profile):
        kernel, approach, trace = prepared
        vm, stats = self.run_one(kernel, approach, tiny_profile, trace)
        assert stats.pv_faults >= tiny_profile.alloc_pages
        ino = approach.snapshot.file.ino
        free_gfn = next(approach.snapshot.meta.iter_free_gfns())
        assert not kernel.page_cache.resident(ino, free_gfn)

    def test_map_load_overhead_small_fraction_of_e2e(self, tiny_profile):
        result = run_scenario(ScenarioSpec(tiny_profile, SnapBPF.name))
        load = result.extra["map_load_seconds"]
        assert 0 < load < 0.05 * result.mean_e2e

    def test_dedup_across_instances(self, tiny_profile):
        single = run_scenario(ScenarioSpec(tiny_profile, SnapBPF.name, n_instances=1))
        ten = run_scenario(ScenarioSpec(tiny_profile, SnapBPF.name, n_instances=10))
        assert ten.device_bytes_read <= 1.1 * single.device_bytes_read
        assert ten.peak_memory_bytes < 5 * single.peak_memory_bytes

    def test_content_fidelity(self, prepared, tiny_profile):
        kernel, approach, trace = prepared
        vm, _stats = self.run_one(kernel, approach, tiny_profile, trace)
        snapshot = approach.snapshot
        for gfn in working_set_pages(trace)[:64]:
            pte = vm.space.pte(vm.guest_vpn(gfn))
            assert pte is not None
            assert pte[0].content == snapshot.file.content(gfn)



class TestTable1:
    def test_snapbpf_row(self):
        row = SnapBPF.table1_row()
        assert row["mechanism"] == "eBPF"
        assert row["space"] == "Kernel-space"
        assert row["on_disk_ws_serialization"] == "No"
        assert row["in_memory_ws_dedup"] == "Yes"
        assert row["stateless_alloc_filtering"] == "Yes"
        assert row["snapshot_prescan"] == "No"


class TestPVOnly:
    def test_pv_only_registered_and_configured(self):
        assert PVPTEsOnly.pv_marking is True
        assert PVPTEsOnly.name == "pv-ptes"

    def test_pv_only_avoids_allocation_io(self, alloc_heavy_profile):
        from repro.baselines.linux import LinuxRA
        ra = run_scenario(ScenarioSpec(alloc_heavy_profile, LinuxRA.name))
        pv = run_scenario(ScenarioSpec(alloc_heavy_profile, PVPTEsOnly.name))
        assert pv.device_bytes_read < 0.6 * ra.device_bytes_read
        assert pv.mean_e2e < ra.mean_e2e
