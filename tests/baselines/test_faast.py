"""Faast: REAP + allocator-metadata allocation filtering."""


from repro.baselines.faast import Faast
from repro.baselines.reap import REAP
from repro.harness.experiment import make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.workloads.trace import generate_trace, working_set_pages


def test_recorded_ws_excludes_allocations(tiny_profile):
    kernel = make_kernel()
    approach = Faast(kernel)
    trace = generate_trace(tiny_profile, 0)
    prep = kernel.env.process(approach.prepare(tiny_profile, trace))
    kernel.env.run(prep)
    ws = working_set_pages(trace)
    assert approach.working_set_pages == len(ws)
    free = approach.snapshot.meta.free_gfns
    assert not (set(approach._ws_order) & free)


def test_less_io_than_reap(tiny_profile):
    reap = run_scenario(ScenarioSpec(tiny_profile, REAP.name))
    faast = run_scenario(ScenarioSpec(tiny_profile, Faast.name))
    assert faast.device_bytes_read < reap.device_bytes_read
    # Exactly the allocation pages are spared (single 4 KiB granularity).
    assert (reap.extra["ws_pages"] - faast.extra["ws_pages"]
            == tiny_profile.alloc_pages)


def test_allocation_faults_served_as_zero_pages(tiny_profile):
    kernel = make_kernel()
    approach = Faast(kernel)
    trace = generate_trace(tiny_profile, 0)
    prep = kernel.env.process(approach.prepare(tiny_profile, trace))
    kernel.env.run(prep)

    def run():
        vm = yield from approach.spawn(tiny_profile, "vm0")
        yield from vm.invoke(trace)
        return vm

    p = kernel.env.process(run())
    kernel.env.run(p)
    vm = p.value
    free_gfn = next(iter(approach.snapshot.meta.free_gfns))
    pte = vm.space.pte(vm.guest_vpn(free_gfn))
    if pte is not None:  # touched by an allocation
        assert pte[0].content == 0


def test_still_no_dedup(tiny_profile):
    single = run_scenario(ScenarioSpec(tiny_profile, Faast.name, n_instances=1))
    ten = run_scenario(ScenarioSpec(tiny_profile, Faast.name, n_instances=10))
    assert ten.peak_memory_bytes >= 8 * single.peak_memory_bytes


def test_table1_row():
    row = Faast.table1_row()
    assert row["stateless_alloc_filtering"] == "Yes"
    assert row["snapshot_prescan"] == "Yes"
    assert row["in_memory_ws_dedup"] == "No"
