"""Keep-alive policies: learned TTL boundaries, pre-warm hit vs miss."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cluster.keepalive import (
    FixedTTLPolicy,
    HistogramKeepAlivePolicy,
    make_keepalive_policy,
)
from repro.harness.experiment import make_kernel
from repro.platform.node import FaaSNode
from repro.platform.workload import Arrival
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

GAP = 2.0
EPSILON = 1e-9


def tiny_profile():
    return FunctionProfile(name="alpha", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, run_len_mean=8.0, seed=31)


def learned_policy():
    """Histogram policy whose TTL is exactly GAP after four GAP gaps
    (the percentile estimate clamps to the observed max)."""
    return HistogramKeepAlivePolicy(default_ttl=GAP, min_samples=4)


# -- policy state machine ----------------------------------------------------

def test_fixed_policy_is_constant():
    policy = FixedTTLPolicy(1.5)
    assert policy.ttl("anything") == 1.5
    assert policy.prewarm_at("anything", 0.0) is None
    assert FixedTTLPolicy(None).ttl("x") is None
    with pytest.raises(ValueError):
        FixedTTLPolicy(0.0)


def test_histogram_defaults_until_min_samples():
    policy = learned_policy()
    for i in range(4):  # 4 arrivals = 3 gaps < min_samples
        policy.observe("f", i * GAP)
        assert policy.ttl("f") == GAP  # default_ttl
    policy.observe("f", 4 * GAP)  # 4th gap
    assert policy.ttl("f") == pytest.approx(GAP)
    assert policy.tracked_functions() == 1


def test_histogram_learns_exact_gap():
    policy = learned_policy()
    for i in range(6):
        policy.observe("f", i * GAP)
    # Identical gaps: the p99 estimate clamps to the observed max, so
    # the learned TTL covers the steady state with zero slack.
    assert policy.ttl("f") == pytest.approx(GAP)


def test_histogram_clamps_to_bounds():
    policy = HistogramKeepAlivePolicy(min_ttl=0.5, max_ttl=4.0,
                                      min_samples=2)
    for i in range(4):
        policy.observe("slow", i * 100.0)
    assert policy.ttl("slow") == 4.0
    for i in range(4):
        policy.observe("fast", i * 0.01)
    assert policy.ttl("fast") == 0.5


def test_prewarm_fires_only_when_pool_loses_the_race():
    # Typical gap 5 s but TTL clamped to 0.5 s: the pool always expires
    # before the next arrival, so the policy pre-warms instead.
    policy = HistogramKeepAlivePolicy(max_ttl=0.5, min_ttl=0.1,
                                      default_ttl=0.5, min_samples=4,
                                      margin=0.1)
    for i in range(5):
        policy.observe("f", i * 5.0)
    assert policy.ttl("f") == 0.5
    when = policy.prewarm_at("f", now=20.6)
    assert when == pytest.approx(20.0 + 5.0 * 0.9)
    # Past the prediction: nothing to schedule.
    assert policy.prewarm_at("f", now=30.0) is None
    # Past the workload horizon: never schedule.
    policy.horizon = 22.0
    assert policy.prewarm_at("f", now=20.6) is None
    policy.horizon = None
    policy.prewarm = False
    assert policy.prewarm_at("f", now=20.6) is None


def test_no_prewarm_when_pool_covers_typical_gap():
    policy = learned_policy()
    for i in range(6):
        policy.observe("f", i * GAP)
    # ttl == p50 == GAP: the pool wins, no speculative spawn.
    assert policy.prewarm_at("f", now=6 * GAP) is None


def test_make_keepalive_policy():
    assert isinstance(make_keepalive_policy("fixed"), FixedTTLPolicy)
    hist = make_keepalive_policy("histogram", warm_pool_ttl=2.5,
                                 max_ttl=16.0)
    assert isinstance(hist, HistogramKeepAlivePolicy)
    assert hist.default_ttl == 2.5 and hist.max_ttl == 16.0
    assert make_keepalive_policy("fixed", warm_pool_ttl=None).ttl("x") is None
    with pytest.raises(ValueError, match="keep-alive"):
        make_keepalive_policy("nope")


# -- node integration: learned-TTL expiry boundary ---------------------------

def run_node(extra_arrivals=(), keepalive=None):
    node = FaaSNode(make_kernel(), "snapbpf", [tiny_profile()],
                    keepalive=keepalive)
    arrivals = [Arrival(i * GAP, "alpha", 0) for i in range(5)]
    arrivals += [Arrival(t, "alpha", 0) for t in extra_arrivals]
    return node.run(arrivals)


def warm_latency():
    """Deterministic warm-start latency (every non-first request in the
    GAP train hits the pool: idle time < GAP == TTL)."""
    report = run_node(keepalive=learned_policy())
    assert [r.cold for r in report.results] == [True] + [False] * 4
    return report.results[-1].latency


def test_arrival_exactly_at_learned_expiry_is_warm():
    # The 5th request parks at 4*GAP + warm latency with the learned
    # TTL == GAP; an arrival landing exactly at expiry is still warm.
    probe = 4 * GAP + warm_latency() + GAP
    report = run_node((probe,), keepalive=learned_policy())
    assert report.results[-1].cold is False


def test_arrival_just_after_learned_expiry_is_cold():
    probe = 4 * GAP + warm_latency() + GAP + EPSILON
    report = run_node((probe,), keepalive=learned_policy())
    assert report.results[-1].cold is True


def classify(probe):
    report = run_node((probe,), keepalive=learned_policy())
    return tuple(r.cold for r in report.results)


def test_boundary_identical_across_jobs():
    base = 4 * GAP + warm_latency() + GAP
    probes = [base, base + EPSILON, base - GAP / 2]
    serial = [classify(probe) for probe in probes]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(classify, probes))
    assert serial == parallel
    assert [c[-1] for c in serial] == [False, True, False]


def test_histogram_with_huge_min_samples_matches_fixed():
    # A histogram policy that never reaches min_samples always answers
    # default_ttl — byte-identical to the fixed path it generalizes.
    frozen = HistogramKeepAlivePolicy(default_ttl=GAP, min_samples=10**6,
                                      prewarm=False)
    a = run_node((11.0, 14.5), keepalive=frozen)
    b = run_node((11.0, 14.5), keepalive=FixedTTLPolicy(GAP))
    assert ([(r.cold, r.latency) for r in a.results]
            == [(r.cold, r.latency) for r in b.results])


# -- node integration: pre-warm hit vs miss ----------------------------------

def sparse_run(prewarm):
    """Arrivals every 5 s with TTL clamped to 0.5 s: the pool always
    expires, so only a pre-warm can make the last arrival warm."""
    policy = HistogramKeepAlivePolicy(max_ttl=0.5, min_ttl=0.1,
                                      default_ttl=0.5, min_samples=4,
                                      prewarm=prewarm, margin=0.1)
    node = FaaSNode(make_kernel(), "snapbpf", [tiny_profile()],
                    keepalive=policy)
    arrivals = [Arrival(i * 5.0, "alpha", 0) for i in range(6)]
    report = node.run(arrivals)
    prewarms = node.kernel.metrics.get("node_prewarms_total").value
    return report, prewarms


def test_prewarm_turns_predicted_arrival_warm():
    report, prewarms = sparse_run(prewarm=True)
    assert prewarms >= 1
    assert report.results[-1].cold is False


def test_without_prewarm_predicted_arrival_is_cold():
    report, prewarms = sparse_run(prewarm=False)
    assert prewarms == 0
    assert all(r.cold for r in report.results)
