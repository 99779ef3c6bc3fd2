"""FaaS node: cold/warm paths, pooling, cross-function sharing."""

import pytest

from repro.cluster.keepalive import FixedTTLPolicy
from repro.cluster.runner import ClusterReport
from repro.harness.experiment import make_kernel
from repro.platform.node import FaaSNode, NodeReport, RequestResult
from repro.platform.workload import Arrival, poisson_arrivals
from repro.units import MIB
from repro.workloads.profile import FunctionProfile


def make_profile(name, seed):
    return FunctionProfile(name=name, mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                           alloc_bytes=2 * MIB, compute_seconds=0.02,
                           run_len_mean=8.0, seed=seed)


@pytest.fixture
def profiles():
    return [make_profile("alpha", 31), make_profile("beta", 32)]


def make_node(profiles, approach="snapbpf", ttl=None):
    return FaaSNode(make_kernel(), approach, profiles,
                    keepalive=FixedTTLPolicy(ttl))


def test_every_request_served(profiles):
    node = make_node(profiles)
    arrivals = [Arrival(0.0, "alpha", 0), Arrival(0.1, "beta", 0),
                Arrival(0.2, "alpha", 0)]
    report = node.run(arrivals)
    assert len(report.results) == 3
    assert all(r.latency > 0 for r in report.results)
    assert {r.function for r in report.results} == {"alpha", "beta"}


def test_without_pool_everything_is_cold(profiles):
    node = make_node(profiles, ttl=None)
    arrivals = [Arrival(i * 0.2, "alpha", 0) for i in range(4)]
    report = node.run(arrivals)
    assert report.cold_starts == 4
    assert node.pooled_sandboxes("alpha") == 0


def test_warm_pool_reuses_sandboxes(profiles):
    node = make_node(profiles, ttl=60.0)
    arrivals = [Arrival(i * 0.3, "alpha", 0) for i in range(5)]
    report = node.run(arrivals)
    assert report.cold_starts == 1
    assert report.warm_starts == 4
    # Warm starts skip restore entirely.
    assert report.percentile(50, cold=False) < report.mean_latency(cold=True)


def test_pool_expiry_triggers_cold_start(profiles):
    node = make_node(profiles, ttl=0.5)
    arrivals = [Arrival(0.0, "alpha", 0), Arrival(5.0, "alpha", 0)]
    report = node.run(arrivals)
    assert report.cold_starts == 2


def test_pool_is_per_function(profiles):
    node = make_node(profiles, ttl=60.0)
    arrivals = [Arrival(0.0, "alpha", 0), Arrival(0.5, "beta", 0)]
    report = node.run(arrivals)
    assert report.cold_starts == 2  # beta cannot reuse alpha's sandbox


def test_second_cold_start_shares_page_cache():
    """Even without warm pooling, a page-cache approach makes the second
    cold start of a function cheap: the working set is still cached.
    Uses an I/O-bound profile so restore dominates the latency."""
    io_bound = FunctionProfile(
        name="iobound", mem_bytes=64 * MIB, ws_bytes=12 * MIB,
        alloc_bytes=MIB, compute_seconds=0.002, run_len_mean=8.0, seed=77)
    node = make_node([io_bound], ttl=None)
    arrivals = [Arrival(0.0, "iobound", 0), Arrival(2.0, "iobound", 0)]
    report = node.run(arrivals)
    first, second = sorted(report.results, key=lambda r: r.arrival_time)
    assert second.latency < 0.7 * first.latency


def test_handle_requires_prepare(profiles):
    node = make_node(profiles)
    with pytest.raises(RuntimeError):
        node.kernel.env.process(node.handle(Arrival(0.0, "alpha", 0)))
        node.kernel.env.run()


def test_mixed_poisson_run_end_to_end(profiles):
    node = make_node(profiles, ttl=2.0)
    arrivals = poisson_arrivals([(profiles[0], 3.0), (profiles[1], 1.0)],
                                duration=4.0, seed=9)
    report = node.run(arrivals)
    assert len(report.results) == len(arrivals)
    assert report.warm_starts > 0
    assert report.percentile(99) >= report.percentile(50)


def nearest_rank_records():
    return [RequestResult(function="alpha", arrival_time=0.0,
                          latency=float(v), cold=True, input_seed=0)
            for v in range(1, 11)]


def test_percentile_nearest_rank_regression():
    """Nearest-rank on 10 samples: p50 is the 5th value, not the 6th.
    A fleet report inherits the node report's statistics."""
    records = nearest_rank_records()
    for report in (NodeReport(results=records, peak_memory_bytes=0),
                   ClusterReport(results=records, peak_memory_bytes=0,
                                 policy="random", node_timeline=[])):
        assert report.percentile(50) == 5.0
        assert report.percentile(95) == 10.0
        assert report.percentile(99) == 10.0
        assert report.percentile(10) == 1.0
        assert report.percentile(0) == 1.0   # clamps below the first rank
        assert report.percentile(100) == 10.0


def test_statistics_over_no_matching_request_are_zero():
    """All-cold records have no warm sample: percentile and mean read
    0.0, as a fleet report over no served request does."""
    report = NodeReport(results=nearest_rank_records(), peak_memory_bytes=0)
    assert report.percentile(50, cold=False) == 0.0
    assert report.mean_latency(cold=False) == 0.0
    empty = NodeReport(results=[], peak_memory_bytes=0)
    assert empty.percentile(99) == 0.0
    assert empty.mean_latency() == 0.0


def test_degradation_counters_in_text_exposition(profiles):
    node = make_node(profiles, ttl=60.0)
    arrivals = [Arrival(i * 0.3, "alpha", 0) for i in range(4)]
    report = node.run(arrivals)
    registry = node.kernel.metrics
    exposition = registry.text_exposition()
    # The report's outcome counts surface as node_* metrics alongside
    # the kernel's other series in one Prometheus text exposition.
    assert "node_requests_total 4" in exposition
    assert "node_requests_completed_total 4" in exposition
    assert "node_cold_starts_total 1" in exposition
    assert "node_warm_starts_total 3" in exposition
    assert "node_request_timeouts_total 0" in exposition
    assert "node_request_failures_total 0" in exposition
    assert (registry.get("node_requests_completed_total").value
            == report.completed)
    assert (registry.get("node_request_retries_total").value
            == report.request_retries)
