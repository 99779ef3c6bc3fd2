"""Teardown vs. background-thread races must not leak memory.

A sandbox can be destroyed while its approach's prefetcher threads are
still streaming (short invocations on large working sets).  Installs
into a dead address space must be dropped, and the node must converge to
zero private memory once pools drain.
"""

from repro.harness.experiment import make_kernel
from repro.platform.node import FaaSNode
from repro.platform.workload import Arrival
from repro.units import MIB
from repro.workloads.profile import FunctionProfile
from repro.workloads.trace import generate_trace


def big_ws_quick_compute():
    """Large working set + tiny compute: the invocation can finish while
    the prefetcher is still mid-stream."""
    return FunctionProfile(name="racer", mem_bytes=96 * MIB,
                           ws_bytes=24 * MIB, alloc_bytes=MIB,
                           compute_seconds=0.001, run_len_mean=8.0,
                           seed=88)


def test_dead_space_install_is_noop(kernel):
    space = kernel.spawn_space("vm")
    space.mmap(16, at=1000)
    space.teardown()
    assert space.install_anon(1000, content=5) == 0.0
    assert space.pte(1000) is None
    assert kernel.frames.counters.anon == 0


def test_reap_node_does_not_leak_after_teardown():
    profile = big_ws_quick_compute()
    node = FaaSNode(make_kernel(), "reap", [profile])
    report = node.run([Arrival(0.0, "racer", 0),
                       Arrival(0.05, "racer", 0)])
    assert len(report.results) == 2
    # After the run drains (teardowns + stray prefetcher chunks), no
    # sandbox-private memory may remain.
    assert node.kernel.frames.counters.anon == 0


def test_faasnap_node_does_not_leak_after_teardown():
    profile = big_ws_quick_compute()
    node = FaaSNode(make_kernel(), "faasnap", [profile])
    node.run([Arrival(0.0, "racer", 0)])
    assert node.kernel.frames.counters.anon == 0


def test_direct_race_reap(kernel):
    """Force the race: tear the VM down the instant the invocation ends
    and drain the engine; the prefetcher must stop on the dead space."""
    from repro.baselines.reap import REAP
    profile = big_ws_quick_compute()
    approach = REAP(kernel)
    trace = generate_trace(profile, 0)
    kernel.env.run(kernel.env.process(approach.prepare(profile, trace)))

    def body():
        vm = yield from approach.spawn(profile, "vm0")
        yield from vm.invoke(trace)
        vm.teardown()

    kernel.env.run(kernel.env.process(body()))
    kernel.env.run()  # drain any remaining prefetcher work
    assert kernel.frames.counters.anon == 0
