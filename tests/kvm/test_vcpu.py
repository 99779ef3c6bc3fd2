"""vCPU trace replay."""

import pytest

from repro.sim import Interrupt
from repro.workloads.trace import Alloc, Compute, Free, TouchRun
from repro.vmm.microvm import GUEST_BASE_VPN, MicroVM
from repro.vmm.snapshot import build_snapshot


def spawn_plain_vm(kernel, profile, pv=False):
    snapshot = build_snapshot(kernel, profile)
    vm = MicroVM(kernel, snapshot, pv_marking=pv)
    vm.space.mmap(snapshot.mem_pages, file=snapshot.file,
                  at=GUEST_BASE_VPN, ra_pages=0)
    return vm


def test_compute_advances_clock(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    p = kernel.env.process(vm.vcpu.run_trace([Compute(0.5)]))
    kernel.env.run(p)
    assert kernel.env.now == pytest.approx(0.5)


def test_touch_run_faults_pages(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    trace = [TouchRun(start=0, count=16, write=False, per_page_compute=0)]
    p = kernel.env.process(vm.vcpu.run_trace(trace))
    kernel.env.run(p)
    assert vm.vcpu.stats.pages_touched == 16
    assert vm.kvm.stats_nested_faults == 16
    assert all(vm.kvm.ept.get(g) for g in range(16))


def test_repeat_touch_is_ept_hit(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    trace = [TouchRun(0, 16, False, 0), TouchRun(0, 16, False, 0)]
    p = kernel.env.process(vm.vcpu.run_trace(trace))
    kernel.env.run(p)
    assert vm.kvm.stats_nested_faults == 16


def test_alloc_and_free_cycle(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile, pv=True)
    trace = [Alloc("a", 32, 0), Free("a")]
    p = kernel.env.process(vm.vcpu.run_trace(trace))
    kernel.env.run(p)
    assert vm.vcpu.stats.pages_allocated == 32
    assert vm.guest.pages_freed == 32
    assert vm.kvm.stats_pv_faults > 0


def test_unknown_op_rejected(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    p = kernel.env.process(vm.vcpu.run_trace(["bogus"]))
    with pytest.raises(TypeError):
        kernel.env.run(p)


def test_compute_seconds_accounted(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    trace = [TouchRun(0, 10, False, 1e-3), Compute(0.1)]
    p = kernel.env.process(vm.vcpu.run_trace(trace))
    kernel.env.run(p)
    assert vm.vcpu.stats.compute_seconds == pytest.approx(0.11)


def _record_faults(kvm, on_fault=None):
    """Wrap ``kvm.nested_fault`` to log each fault's returned cost and
    stall (None while it is still in progress)."""
    log = []
    original = kvm.nested_fault
    env = kvm.kernel.env

    def nested_fault(gfn, is_write):
        log.append(None)
        if on_fault is not None:
            on_fault(len(log))
        before = env.now
        cost = yield from original(gfn, is_write)
        log[-1] = (cost, env.now - before)
        return cost

    kvm.nested_fault = nested_fault
    return log


def _sequential_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_vcpu_seconds_are_exact_sequential_sums(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    log = _record_faults(vm.kvm)
    per_page = 1e-3 / 7
    trace = [TouchRun(0, 40, False, per_page), Compute(0.1 / 3),
             TouchRun(20, 40, True, per_page / 3)]
    p = kernel.env.process(vm.vcpu.run_trace(trace))
    kernel.env.run(p)
    stats = vm.vcpu.stats
    assert stats.compute_seconds == _sequential_sum(
        [per_page] * 40 + [0.1 / 3] + [per_page / 3] * 40)
    assert stats.overhead_seconds == _sequential_sum(c for c, _ in log)
    assert stats.stall_seconds == _sequential_sum(s for _, s in log)
    assert stats.stall_seconds > 0.0


def test_interrupted_touch_run_keeps_exact_sums(kernel, tiny_profile):
    vm = spawn_plain_vm(kernel, tiny_profile)
    interrupt_at = 25

    def on_fault(n):
        if n == interrupt_at:  # lands while this fault waits for I/O
            p.interrupt("teardown")

    log = _record_faults(vm.kvm, on_fault)
    per_page = 1e-3 / 7

    def guarded():
        try:
            yield from vm.vcpu.run_trace(
                [TouchRun(0, 100, False, per_page)])
        except Interrupt:
            return "interrupted"

    p = kernel.env.process(guarded())
    kernel.env.run(p)
    assert p.value == "interrupted"
    assert len(log) == interrupt_at and log[-1] is None
    stats = vm.vcpu.stats
    assert stats.pages_touched == 0  # the run never completed
    assert stats.compute_seconds == _sequential_sum([per_page] * interrupt_at)
    assert stats.overhead_seconds == _sequential_sum(c for c, _ in log[:-1])
    assert stats.stall_seconds == _sequential_sum(s for _, s in log[:-1])
