"""Whole-stack determinism: identical runs produce identical universes.

The reproduction's claims rest on deterministic replay — every figure
assertion assumes reruns agree bit-for-bit.
"""

from repro.cluster.keepalive import FixedTTLPolicy
from repro.harness.experiment import make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.platform import FaaSNode, poisson_arrivals
from repro.workloads.profile import FunctionProfile
from repro.units import MIB


def profile():
    return FunctionProfile(name="det", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, seed=12)


def fingerprint(result):
    return (
        result.mean_e2e,
        result.max_e2e,
        result.peak_memory_bytes,
        result.end_memory_bytes,
        result.device_requests,
        result.device_bytes_read,
        result.cache_adds,
        tuple((inv.vm_id, inv.e2e_seconds, inv.nested_faults,
               inv.major_faults, inv.minor_faults, inv.cow_faults)
              for inv in result.invocations),
    )


def test_scenario_determinism_all_approaches():
    for approach in ("linux-nora", "linux-ra", "reap", "faast",
                     "faasnap", "snapbpf", "pv-ptes"):
        a = fingerprint(run_scenario(ScenarioSpec(profile(), approach,
                                                  n_instances=3)))
        b = fingerprint(run_scenario(ScenarioSpec(profile(), approach,
                                                  n_instances=3)))
        assert a == b, f"{approach} is nondeterministic"


def test_node_determinism():
    def run():
        p = profile()
        node = FaaSNode(make_kernel(), "snapbpf", [p],
                        keepalive=FixedTTLPolicy(1.0))
        arrivals = poisson_arrivals([(p, 4.0)], duration=3.0, seed=5)
        report = node.run(arrivals)
        return [(r.function, r.arrival_time, r.latency, r.cold)
                for r in report.results], report.peak_memory_bytes

    assert run() == run()


def test_vary_inputs_determinism():
    a = fingerprint(run_scenario(ScenarioSpec(profile(), "snapbpf",
                                              n_instances=4,
                                              vary_inputs=True)))
    b = fingerprint(run_scenario(ScenarioSpec(profile(), "snapbpf",
                                              n_instances=4,
                                              vary_inputs=True)))
    assert a == b
