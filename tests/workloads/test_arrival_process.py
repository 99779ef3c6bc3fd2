"""ArrivalProcess family: the shared thinning sampler, RNG compat."""

import random

import pytest

from repro.platform.workload import poisson_arrivals
from repro.workloads.trace import ArrivalProcess, ConstantRate
from repro.workloads.profile import profile_by_name
from repro.workloads.traffic import TrafficProcess, TrafficSpec


def times(process, seed=7, duration=30.0):
    return list(process.sample(random.Random(seed), duration))


def test_constant_rate_matches_legacy_rng_stream():
    # The refactored poisson_arrivals must consume the exact expovariate
    # stream the historic single-rate generator used: one draw per
    # point, no acceptance draws at the envelope.
    rng = random.Random(3)
    legacy = []
    t = rng.expovariate(4.0)
    while t < 20.0:
        legacy.append(t)
        t += rng.expovariate(4.0)
    assert times(ConstantRate(4.0), seed=3, duration=20.0) == legacy


def test_poisson_arrivals_rides_on_constant_rate():
    profile = profile_by_name("json")
    arrivals = poisson_arrivals([(profile, 5.0)], duration=10.0, seed=11)
    expected = list(ConstantRate(5.0).sample(random.Random(11), 10.0))
    assert [a.time for a in arrivals] == expected
    assert all(a.function == profile.name for a in arrivals)


def test_sample_is_lazy_and_ascending():
    gen = ConstantRate(100.0).sample(random.Random(0), 1e9)
    first = [next(gen) for _ in range(1000)]  # would OOM if materialized
    assert first == sorted(first)
    assert len(set(first)) == len(first)


def modulated(**overrides) -> TrafficProcess:
    """A traffic process with a diurnal swing and stacked bursts: the
    modulated envelope the shared sampler thins."""
    fields = dict(n_functions=40, n_tenants=2, total_rps=200.0,
                  duration=16.0, diurnal_amplitude=0.4, diurnal_period=16.0,
                  n_bursts=0, seed=4)
    fields.update(overrides)
    return TrafficProcess(TrafficSpec(**fields))


def test_sample_is_deterministic():
    assert times(modulated(n_bursts=3)) == times(modulated(n_bursts=3))


def test_diurnal_modulation_shifts_density():
    # Period 20 s: first half-cycle is above base rate, second below.
    process = modulated(total_rps=50.0, diurnal_amplitude=0.8,
                        diurnal_period=20.0, duration=20.0)
    pts = times(process, seed=5, duration=20.0)
    crest = sum(1 for t in pts if t < 10.0)
    trough = len(pts) - crest
    assert crest > trough * 1.5


def test_rate_never_exceeds_peak():
    # Many long bursts on two tenants: windows overlap, same-tenant
    # overlaps stack, and the diurnal crest lands inside some of them.
    process = modulated(total_rps=10.0, diurnal_amplitude=0.6,
                        diurnal_period=7.0, duration=20.0, n_bursts=8,
                        burst_multiplier=3.0, burst_duration=4.0)
    starts = sorted(b.start for b in process.bursts)
    assert any(later < earlier + 4.0
               for earlier, later in zip(starts, starts[1:]))
    peak = process.peak_rate
    for i in range(2000):
        assert process.rate(i * 0.01) <= peak + 1e-9


def test_overlapping_bursts_stack_multiplicatively():
    # One tenant owns every function, so the burst factor is the
    # product of the active multipliers.
    process = modulated(n_tenants=1, diurnal_amplitude=0.0, duration=20.0,
                        n_bursts=6, burst_multiplier=3.0,
                        burst_duration=4.0)
    stacked = 0
    for i in range(2000):
        t = i * 0.01
        active = sum(1 for b in process.bursts if b.active(t))
        stacked = max(stacked, active)
        assert process.rate(t) == pytest.approx(200.0 * 3.0 ** active)
    assert stacked >= 2
    assert process.peak_rate >= 200.0 * 3.0 ** stacked * (1 - 1e-9)


def test_thinned_density_tracks_expected_rate():
    # Integral of the rate over the horizon predicts the sample size.
    process = modulated()
    pts = times(process, seed=1, duration=16.0)
    # One full period: the sinusoid integrates to zero, so the mean
    # count is base * duration.
    assert len(pts) == pytest.approx(200.0 * 16.0, rel=0.08)


def test_validation():
    with pytest.raises(ValueError):
        ConstantRate(0.0)
    with pytest.raises(ValueError):
        list(ConstantRate(1.0).sample(random.Random(0), 0.0))
    with pytest.raises(NotImplementedError):
        ArrivalProcess().rate(0.0)
