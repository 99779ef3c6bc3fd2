"""REAP: record fidelity, WS serialization, the no-dedup property."""

import pytest

from repro.baselines.reap import REAP
from repro.harness.experiment import make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.workloads.trace import generate_trace, working_set_pages


@pytest.fixture
def prepared(tiny_profile):
    kernel = make_kernel()
    approach = REAP(kernel)
    trace = generate_trace(tiny_profile, 0)
    prep = kernel.env.process(approach.prepare(tiny_profile, trace))
    kernel.env.run(prep)
    return kernel, approach, trace


def test_record_captures_ws_plus_allocations(prepared, tiny_profile):
    _kernel, approach, trace = prepared
    ws = working_set_pages(trace)
    # REAP's recorded set includes the ephemeral allocation pages (§2.2:
    # it cannot tell them apart), in fault order.
    assert approach.working_set_pages == len(ws) + tiny_profile.alloc_pages
    assert approach._ws_order[: len(ws)] != sorted(
        approach._ws_order[: len(ws)])  # temporal, not spatial, order


def test_ws_file_serialized_with_snapshot_contents(prepared):
    _kernel, approach, _trace = prepared
    for pos, gfn in enumerate(approach._ws_order[:64]):
        assert (approach._ws_file.content(pos)
                == approach.snapshot.file.content(gfn))


def test_record_order_matches_first_touch_order(prepared):
    _kernel, approach, trace = prepared
    ws = working_set_pages(trace)
    recorded_ws = [g for g in approach._ws_order if g in set(ws)]
    assert recorded_ws == ws


def test_invocation_installs_only_anonymous_memory(tiny_profile):
    result = run_scenario(ScenarioSpec(tiny_profile, REAP.name, n_instances=1))
    inv = result.invocations[0]
    # Every touched page is private anon; nothing shared.
    assert inv.anon_bytes_at_end >= inv.pages_touched * 4096


def test_no_dedup_across_instances(tiny_profile):
    single = run_scenario(ScenarioSpec(tiny_profile, REAP.name, n_instances=1))
    ten = run_scenario(ScenarioSpec(tiny_profile, REAP.name, n_instances=10))
    # 10 instances re-read the WS file 10 times (direct I/O, no cache)
    # and hold 10 private copies.
    assert ten.device_bytes_read >= 9 * single.device_bytes_read
    assert ten.peak_memory_bytes >= 8 * single.peak_memory_bytes


def test_prefetch_suppresses_most_demand_faults(tiny_profile):
    result = run_scenario(ScenarioSpec(tiny_profile, REAP.name, n_instances=1))
    inv = result.invocations[0]
    # The preemptive installs should beat the vCPU to most pages.
    assert inv.uffd_faults < inv.pages_touched / 2


def test_content_fidelity_end_to_end(tiny_profile):
    """Pages the guest reads must carry the snapshot's bytes."""
    kernel = make_kernel()
    approach = REAP(kernel)
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
    ws = working_set_pages(trace)
    for gfn in ws[:64]:
        pte = vm.space.pte(vm.guest_vpn(gfn))
        assert pte is not None
        assert pte[0].content == approach.snapshot.file.content(gfn)


def test_prefetcher_survives_oom_and_counts_abort(prepared, tiny_profile):
    """An exhausted frame pool mid-stream must abort the speculative
    prefetch (counted), not kill the run — stragglers fall through to
    the demand handler."""
    from repro.mm.frames import OutOfMemory
    from repro.vmm.microvm import GUEST_BASE_VPN, MicroVM

    kernel, approach, _trace = prepared
    uffd = kernel.new_uffd()
    vm = MicroVM(kernel, approach.snapshot, vm_id="oom-vm")
    vm.space.mmap(approach.snapshot.mem_pages, uffd=uffd,
                  at=GUEST_BASE_VPN, name="guest-mem")

    calls = {"n": 0}
    real = vm.space.install_anon

    def flaky(vpn, content=0, writable=True):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OutOfMemory("frame pool exhausted")
        return real(vpn, content=content, writable=writable)

    vm.space.install_anon = flaky
    prefetch = kernel.env.process(approach._prefetcher(vm, uffd),
                                  name="prefetch")
    kernel.env.run(prefetch)  # raises if the generator died on the OOM
    assert approach.prefetch_aborts == 1
    assert vm.space.pte_present(vm.guest_vpn(approach._ws_order[0]))


def test_table1_row():
    row = REAP.table1_row()
    assert row["mechanism"] == "userfaultfd"
    assert row["on_disk_ws_serialization"] == "Yes"
    assert row["in_memory_ws_dedup"] == "No"
    assert row["stateless_alloc_filtering"] == "No"
