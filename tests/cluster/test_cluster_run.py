"""End-to-end fleet runs: routing, determinism, crashes, metrics."""

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.runner import run_cluster
from repro.faults import FaultConfig
from repro.harness.spec import ScenarioSpec
from repro.units import MIB
from repro.workloads.profile import FunctionProfile


def tiny_profile(name="tiny", seed=31):
    return FunctionProfile(name=name, mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                           alloc_bytes=2 * MIB, compute_seconds=0.02,
                           run_len_mean=8.0, seed=seed)


def cluster_spec(approach="snapbpf", **cluster_kwargs):
    cluster_kwargs.setdefault("n_nodes", 2)
    cluster_kwargs.setdefault("n_functions", 2)
    cluster_kwargs.setdefault("rate_per_function", 2.0)
    cluster_kwargs.setdefault("duration", 2.0)
    cluster_kwargs.setdefault("warm_pool_ttl", 1.0)
    return ScenarioSpec(function=tiny_profile(), approach=approach,
                        cluster=ClusterSpec(**cluster_kwargs))


def test_every_request_is_served():
    report = run_cluster(cluster_spec())
    assert report.requests > 0
    assert report.completed == report.requests
    assert report.failures == 0
    assert all(r.latency > 0 for r in report.results)
    assert sum(report.per_node_served().values()) == report.requests


def test_records_keep_their_input_seed():
    """A fleet request's record is the one its node built: with varied
    inputs, each function's requests carry seeds 0..k-1 in arrival
    order."""
    spec = cluster_spec()
    report = run_cluster(ScenarioSpec(function=spec.function,
                                      approach="snapbpf", vary_inputs=True,
                                      cluster=spec.cluster))
    seeds: dict[str, list[int]] = {}
    for r in report.results:
        seeds.setdefault(r.function, []).append(r.input_seed)
    assert len(seeds) == 2
    for function_seeds in seeds.values():
        assert function_seeds == list(range(len(function_seeds)))


def test_rejects_non_cluster_spec():
    spec = ScenarioSpec(function=tiny_profile(), approach="snapbpf")
    with pytest.raises(ValueError, match="cluster"):
        run_cluster(spec)


def test_runs_are_deterministic():
    a = run_cluster(cluster_spec())
    b = run_cluster(cluster_spec())
    assert a.fingerprint() == b.fingerprint()


def test_different_seeds_differ():
    a = run_cluster(cluster_spec())
    spec = cluster_spec()
    b = run_cluster(ScenarioSpec(function=spec.function, approach="snapbpf",
                                 input_seed=99, cluster=spec.cluster))
    assert a.fingerprint() != b.fingerprint()


def test_locality_beats_random_on_cold_starts():
    random_report = run_cluster(cluster_spec(policy="random", duration=4.0))
    locality_report = run_cluster(
        cluster_spec(policy="snapshot-locality", duration=4.0))
    assert locality_report.cold_ratio < random_report.cold_ratio


def test_cluster_metrics_exposed():
    report = run_cluster(cluster_spec())
    m = report.metrics
    assert m["cluster_requests_total"] == report.requests
    assert (m["cluster_cold_starts_total"] + m["cluster_warm_starts_total"]
            == report.requests)
    assert m["cluster_nodes"] == 2.0
    assert 0.0 <= m["cluster_cold_start_ratio"] <= 1.0
    # Per-node degradation counters roll up next to the cluster_* set.
    assert m["node_requests_total"] == report.requests
    assert m["node_requests_completed_total"] == report.completed


def test_node_timeline_and_node_seconds():
    report = run_cluster(cluster_spec())
    assert report.node_timeline[-1][1] == 2.0
    window = report.end_time - report.start_time
    assert report.node_seconds() == pytest.approx(2.0 * window)


def test_node_crash_reroutes_to_survivor():
    # Long-running requests (250 ms compute) keep work in flight, so the
    # crash lands on a busy node and its requests must re-route.
    import dataclasses
    profile = dataclasses.replace(tiny_profile(), compute_seconds=0.25)
    spec = ScenarioSpec(
        function=profile, approach="snapbpf",
        cluster=ClusterSpec(n_nodes=2, n_functions=2, rate_per_function=4.0,
                            duration=3.0, warm_pool_ttl=1.0))
    config = FaultConfig(node_crash_rate=0.1)
    report = run_cluster(spec, fault_config=config, fault_seed=1)
    m = report.metrics
    # The crasher never kills the last survivor, so with two nodes at
    # most one dies; this seed kills exactly one mid-traffic.
    assert m["cluster_node_crashes_total"] == 1.0
    assert m["cluster_nodes"] == 1.0
    # Nothing is lost: interrupted requests re-route and complete.
    assert report.completed == report.requests
    assert report.reroutes >= 1
    assert m["cluster_crash_reroutes_total"] == report.reroutes
    rerouted = [r for r in report.results if r.reroutes]
    crashed_id = min(report.per_node_served())  # survivor served them
    assert all(r.status == "ok" for r in rerouted)
    assert crashed_id in set(report.per_node_served())


def test_crash_rate_zero_is_identical_to_no_fault_config():
    baseline = run_cluster(cluster_spec())
    with_config = run_cluster(cluster_spec(),
                              fault_config=FaultConfig(node_crash_rate=0.0),
                              fault_seed=5)
    assert baseline.fingerprint() == with_config.fingerprint()


def test_autoscale_grows_fleet_under_pressure():
    spec = cluster_spec(n_nodes=1, autoscale=True, target_inflight=0.5,
                        min_nodes=1, max_nodes=3, scale_interval=0.25,
                        node_boot_seconds=0.1, rate_per_function=6.0,
                        duration=3.0)
    report = run_cluster(spec)
    m = report.metrics
    assert m["cluster_scale_ups_total"] >= 1.0
    assert max(n for _, n in report.node_timeline) >= 2.0
    assert report.completed == report.requests
