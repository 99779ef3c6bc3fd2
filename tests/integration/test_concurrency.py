"""Concurrency-specific behaviours: racing faults, shared I/O, program
attach/detach discipline with many sandboxes."""


from repro.core.approach import SnapBPF
from repro.harness.experiment import make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.workloads.trace import generate_trace


def test_racing_faulters_wait_on_one_io(kernel):
    """N processes fault the same cold page: one disk read, everyone
    resumes at its completion."""
    from repro.units import MIB
    file = kernel.filestore.create("f", MIB)
    spaces = [kernel.spawn_space(f"p{i}") for i in range(8)]
    for space in spaces:
        space.mmap(64, file=file, at=1000, ra_pages=0)
    for space in spaces:
        kernel.env.process(space.handle_fault(1000, False))
    kernel.env.run()
    assert kernel.metrics.get("device_requests_total").value == 1
    frame = spaces[0].pte(1000)[0]
    assert all(space.pte(1000)[0] is frame for space in spaces)
    assert frame.mapcount == 8


def test_snapbpf_programs_all_detached_after_concurrent_run(tiny_profile):
    kernel = make_kernel()
    approach = SnapBPF(kernel)
    trace = generate_trace(tiny_profile, 0)
    kernel.env.run(kernel.env.process(approach.prepare(tiny_profile,
                                                       trace)))

    def instance(i):
        vm = yield from approach.spawn(tiny_profile, f"vm{i}")
        yield from vm.invoke(trace)
        return vm

    procs = [kernel.env.process(instance(i)) for i in range(6)]
    kernel.env.run(kernel.env.all_of(procs))
    for p in procs:
        approach.post_invoke(p.value)
    # No prefetch program may linger on the hook.
    assert kernel.kprobes.attached(HOOK_ADD_TO_PAGE_CACHE) == []


def test_concurrent_instances_have_similar_latency(tiny_profile):
    """With shared-cache approaches, instance latencies cluster (no
    instance starves); the max/min spread stays small."""
    result = run_scenario(ScenarioSpec(tiny_profile, "snapbpf",
                                       n_instances=10))
    latencies = result.e2e_latencies
    assert max(latencies) < 1.5 * min(latencies)


def test_scaling_concurrency_monotone_memory(tiny_profile):
    peaks = [run_scenario(ScenarioSpec(tiny_profile, "reap",
                                       n_instances=n)).peak_memory_bytes
             for n in (1, 4, 8)]
    assert peaks[0] < peaks[1] < peaks[2]


def test_mixed_functions_share_host(tiny_profile, alloc_heavy_profile):
    """Two different functions on one kernel: snapshots, programs, and
    page-cache state stay isolated per function."""
    kernel = make_kernel()
    approach_a = SnapBPF(kernel)
    approach_b = SnapBPF(kernel)
    trace_a = generate_trace(tiny_profile, 0)
    trace_b = generate_trace(alloc_heavy_profile, 0)
    kernel.env.run(kernel.env.process(
        approach_a.prepare(tiny_profile, trace_a)))
    kernel.env.run(kernel.env.process(
        approach_b.prepare(alloc_heavy_profile, trace_b)))

    def run(approach, profile, trace, vm_id):
        vm = yield from approach.spawn(profile, vm_id)
        stats = yield from vm.invoke(trace)
        approach.post_invoke(vm)
        return stats

    pa = kernel.env.process(run(approach_a, tiny_profile, trace_a, "a0"))
    pb = kernel.env.process(run(approach_b, alloc_heavy_profile, trace_b,
                                "b0"))
    kernel.env.run(kernel.env.all_of([pa, pb]))
    assert pa.value.pages_touched > 0 and pb.value.pages_touched > 0
    # Each function's groups cover only its own snapshot.
    assert approach_a.snapshot.file.ino != approach_b.snapshot.file.ino
    for group in approach_a.groups:
        assert group.end <= approach_a.snapshot.mem_pages
