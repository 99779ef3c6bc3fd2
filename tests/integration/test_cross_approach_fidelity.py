"""Cross-approach fidelity: whatever the restore mechanism, the guest
must observe the same memory contents, do the same amount of work, and
leave the guest allocator in the same state.

These tests pin down the property that makes the latency/memory
comparison meaningful at all: every approach computes the same function.
"""

import pytest

from repro.baselines.base import approach_registry
from repro.harness.experiment import make_kernel
from repro.workloads.trace import generate_trace, working_set_pages

APPROACHES = ("linux-nora", "linux-ra", "reap", "faast", "faasnap",
              "snapbpf", "pv-ptes")


def run_and_keep_vm(approach_name, profile):
    kernel = make_kernel()
    approach = approach_registry()[approach_name](kernel)
    trace = generate_trace(profile, 0)
    prep = kernel.env.process(approach.prepare(profile, trace))
    kernel.env.run(prep)

    def body():
        vm = yield from approach.spawn(profile, "vm0")
        stats = yield from vm.invoke(trace)
        return vm, stats

    process = kernel.env.process(body())
    kernel.env.run(process)
    vm, stats = process.value
    return approach, vm, stats, trace


@pytest.mark.parametrize("approach_name", APPROACHES)
def test_guest_sees_snapshot_contents(approach_name, tiny_profile):
    approach, vm, _stats, trace = run_and_keep_vm(approach_name,
                                                  tiny_profile)
    snapshot_file = approach.snapshot.file
    mismatches = []
    for gfn in working_set_pages(trace):
        pte = vm.space.pte(vm.guest_vpn(gfn))
        assert pte is not None, f"{approach_name}: WS page {gfn} unmapped"
        if pte[0].content != snapshot_file.content(gfn):
            mismatches.append(gfn)
    assert not mismatches, (
        f"{approach_name}: wrong contents at {mismatches[:5]}")


@pytest.mark.parametrize("approach_name", APPROACHES)
def test_same_work_performed(approach_name, tiny_profile):
    _approach, _vm, stats, trace = run_and_keep_vm(approach_name,
                                                   tiny_profile)
    expected_pages = sum(
        op.count for op in trace if hasattr(op, "count"))
    assert stats.pages_touched == expected_pages
    assert stats.compute_seconds == pytest.approx(
        tiny_profile.compute_seconds, rel=0.01)


@pytest.mark.parametrize("approach_name", APPROACHES)
def test_guest_allocator_balanced(approach_name, tiny_profile):
    _approach, vm, _stats, _trace = run_and_keep_vm(approach_name,
                                                    tiny_profile)
    assert vm.guest.pages_allocated == tiny_profile.alloc_pages
    assert vm.guest.pages_freed == tiny_profile.alloc_pages
    assert not vm.guest.live_allocations


@pytest.mark.parametrize("approach_name", APPROACHES)
def test_teardown_leaves_no_private_memory(approach_name, tiny_profile):
    approach, vm, _stats, _trace = run_and_keep_vm(approach_name,
                                                   tiny_profile)
    kernel = approach.kernel
    approach.post_invoke(vm)
    vm.teardown()
    assert kernel.frames.owner_frames(vm.vm_id) == 0
    assert kernel.frames.counters.anon == 0
