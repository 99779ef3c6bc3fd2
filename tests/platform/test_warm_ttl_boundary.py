"""Warm-pool TTL boundary: exactly-at-expiry is warm, just-after is cold.

A sandbox parks when its request completes; the reaper tears it down
``ttl`` seconds later.  An arrival landing at *exactly* ``park_time +
ttl`` must classify warm — the request's timeout event is scheduled
before the reaper's, so it wins the tie deterministically — and that
classification must be identical whether the scenario runs in-process or
inside worker processes.  A steady train of arrivals closer together
than the TTL is warm after its first request: a reaper tears down only
the park it was started for, never the sandbox's next park.

Every test runs against both node models, which share one warm pool: a
page-level ``FaaSNode`` and a ``TrafficNode`` replaying hand-set service
times (no calibration).
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cluster.keepalive import FixedTTLPolicy
from repro.cluster.traffic import ServiceTimes, TrafficNode
from repro.harness.experiment import make_kernel
from repro.platform.node import FaaSNode
from repro.platform.workload import Arrival
from repro.sim import Environment
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

TTL = 1.5
EPSILON = 1e-9
#: A replay node's service times; prepare 0 starts its workload at 0.
TIMES = ServiceTimes(cold=0.25, warm=0.05, prepare=0.0)
MODELS = ("FaaSNode", "TrafficNode")


def tiny_profile():
    return FunctionProfile(name="alpha", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, run_len_mean=8.0, seed=31)


def serve(model, times):
    """(cold, latency) per request arriving ``times`` seconds after the
    record phase, on a fresh ``model`` node parking for TTL seconds."""
    arrivals = [Arrival(t, "alpha", 0) for t in times]
    if model == "FaaSNode":
        node = FaaSNode(make_kernel(), "snapbpf", [tiny_profile()],
                        keepalive=FixedTTLPolicy(TTL))
        results = node.run(arrivals).results
        node.kernel.close()
    else:
        env = Environment()
        node = TrafficNode(env, {"alpha": "alpha"}, {"alpha": TIMES},
                           FixedTTLPolicy(TTL), slots=4)
        env.run(env.process(node.prepare()))
        base = env.now

        # As in FaaSNode.run, every request waits out its arrival.
        def request(arrival):
            yield env.timeout(max(0.0, base + arrival.time - env.now))
            return (yield from node.handle(arrival))

        processes = [env.process(request(a)) for a in arrivals]
        env.run(env.all_of(processes))
        env.run()
        results = [p.value for p in processes]
    return [(r.cold, r.latency) for r in results]


def first_request_latency(model):
    """How long the first (cold) request takes — the park timestamp."""
    ((_, latency),) = serve(model, [0.0])
    return latency


def run_pair(model, second_arrival_time):
    """Cold/warm classification for [0, second_arrival_time]."""
    return tuple(cold for cold, _ in
                 serve(model, [0.0, second_arrival_time]))


@pytest.mark.parametrize("model", MODELS)
def test_arrival_exactly_at_expiry_is_warm(model):
    park_time = first_request_latency(model)
    assert run_pair(model, park_time + TTL) == (True, False)


@pytest.mark.parametrize("model", MODELS)
def test_arrival_just_after_expiry_is_cold(model):
    park_time = first_request_latency(model)
    assert run_pair(model, park_time + TTL + EPSILON) == (True, True)


@pytest.mark.parametrize("model", MODELS)
def test_arrival_well_before_expiry_is_warm(model):
    park_time = first_request_latency(model)
    assert run_pair(model, park_time + TTL / 2) == (True, False)


@pytest.mark.parametrize("model", MODELS)
def test_boundary_classification_identical_across_jobs(model):
    park_time = first_request_latency(model)
    arrivals = [park_time + TTL, park_time + TTL + EPSILON,
                park_time + TTL / 2]
    serial = [run_pair(model, arrival) for arrival in arrivals]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(run_pair, [model] * len(arrivals),
                                 arrivals))
    assert serial == parallel
    assert serial == [(True, False), (True, True), (True, False)]


@pytest.mark.parametrize("model", MODELS)
def test_steady_train_under_ttl_stays_warm(model):
    # Arrivals 1 s apart against a 1.5 s TTL: each request re-parks the
    # sandbox it took before the previous park's reaper fires.  Were a
    # reaper to tear down whatever is parked, each would destroy the next
    # park's sandbox, and every request from the third on would be cold.
    gap = 1.0
    results = serve(model, [i * gap for i in range(6)])
    assert [cold for cold, _ in results] == [True] + [False] * 5
