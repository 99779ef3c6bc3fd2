"""A caller's tracer is the one every layer records into.

``Tracer`` defines ``__len__``, so a tracer holding no spans yet is
falsy.  Kernels and fleet runs must keep the tracer they are handed
(``is None``, never ``or``), and every node kernel of a fleet must
share it, or a fresh enabled tracer records nothing.
"""

from __future__ import annotations

from repro.cluster.runner import run_cluster
from repro.cluster.spec import ClusterSpec
from repro.cluster.traffic import run_traffic
from repro.harness.spec import ScenarioSpec
from repro.mm.kernel import Kernel
from repro.trace import Tracer
from repro.units import MIB
from repro.workloads.profile import FunctionProfile, profile_by_name
from repro.workloads.traffic import TrafficSpec

TINY = FunctionProfile(name="tiny", mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                       alloc_bytes=2 * MIB, compute_seconds=0.02,
                       run_len_mean=8.0, seed=31)

CLUSTER = ScenarioSpec(TINY, "snapbpf", cluster=ClusterSpec(
    n_nodes=2, n_functions=2, rate_per_function=2.0, duration=2.0))

TRAFFIC = ScenarioSpec(profile_by_name("json"), "snapbpf", cluster=ClusterSpec(
    n_nodes=2, keepalive="histogram",
    traffic=TrafficSpec(n_functions=20, n_tenants=2, total_rps=10.0,
                        duration=4.0, n_bursts=1, shapes=("json",),
                        seed=5)))


def fresh_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    assert not tracer  # empty, hence falsy
    return tracer


def test_kernel_keeps_an_empty_tracer():
    tracer = Tracer()
    kernel = Kernel(tracer=tracer)
    assert kernel.tracer is tracer
    assert kernel.env.tracer is tracer


def test_run_cluster_records_into_a_fresh_tracer():
    tracer = fresh_tracer()
    run_cluster(CLUSTER, tracer=tracer)
    categories = {span.cat for span in tracer.events}
    assert {"cluster", "device", "cache"} <= categories


def test_run_traffic_records_into_a_fresh_tracer():
    tracer = fresh_tracer()
    run_traffic(TRAFFIC, tracer=tracer)
    assert tracer.spans(cat="cluster")


def test_tracing_leaves_fleet_fingerprints_unchanged():
    for run, spec in ((run_cluster, CLUSTER), (run_traffic, TRAFFIC)):
        tracer = fresh_tracer()
        traced = run(spec, tracer=tracer)
        assert len(tracer) > 0
        assert traced.fingerprint() == run(spec).fingerprint()
