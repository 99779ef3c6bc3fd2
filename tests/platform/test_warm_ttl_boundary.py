"""Warm-pool TTL boundary: exactly-at-expiry is warm, just-after is cold.

A sandbox parks when its request completes; the reaper tears it down
``warm_pool_ttl`` seconds later.  An arrival landing at *exactly*
``park_time + ttl`` must classify warm — the request's timeout event is
scheduled before the reaper's, so it wins the tie deterministically —
and that classification must be identical whether the scenario runs
in-process or inside worker processes.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.harness.experiment import make_kernel
from repro.platform.node import FaaSNode
from repro.platform.workload import Arrival
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

TTL = 1.5
EPSILON = 1e-9


def tiny_profile():
    return FunctionProfile(name="alpha", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, run_len_mean=8.0, seed=31)


def first_request_latency():
    """How long the first (cold) request takes — the park timestamp."""
    node = FaaSNode(make_kernel(), "snapbpf", [tiny_profile()],
                    warm_pool_ttl=TTL)
    report = node.run([Arrival(0.0, "alpha", 0)])
    return report.results[0].latency


def run_pair(second_arrival_time):
    """Cold/warm classification for [0, second_arrival_time]."""
    node = FaaSNode(make_kernel(), "snapbpf", [tiny_profile()],
                    warm_pool_ttl=TTL)
    report = node.run([Arrival(0.0, "alpha", 0),
                       Arrival(second_arrival_time, "alpha", 0)])
    return tuple(r.cold for r in report.results)


def test_arrival_exactly_at_expiry_is_warm():
    park_time = first_request_latency()
    assert run_pair(park_time + TTL) == (True, False)


def test_arrival_just_after_expiry_is_cold():
    park_time = first_request_latency()
    assert run_pair(park_time + TTL + EPSILON) == (True, True)


def test_arrival_well_before_expiry_is_warm():
    park_time = first_request_latency()
    assert run_pair(park_time + TTL / 2) == (True, False)


def test_boundary_classification_identical_across_jobs():
    park_time = first_request_latency()
    arrivals = [park_time + TTL, park_time + TTL + EPSILON,
                park_time + TTL / 2]
    serial = [run_pair(arrival) for arrival in arrivals]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(run_pair, arrivals))
    assert serial == parallel
    assert serial == [(True, False), (True, True), (True, False)]
