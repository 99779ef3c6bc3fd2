"""The arrival stream's burst-segment table ≡ the scan over bursts.

:class:`~repro.workloads.traffic.TrafficProcess` evaluates the burst
envelope once per segment between burst edges, at the segment's left
edge, and looks segments up by bisection.  ``rate(t)`` and ``_assign``
must give what the scan over every burst gives at ``t``, bit for bit
and with the same RNG draws, at every edge, one ulp either side of it,
and anywhere else.
"""

from __future__ import annotations

import hashlib
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.traffic import TrafficProcess, TrafficSpec

specs = st.builds(
    TrafficSpec,
    n_functions=st.integers(4, 60),
    n_tenants=st.integers(1, 4),
    total_rps=st.sampled_from([7.0, 150.0]),
    duration=st.sampled_from([3.0, 10.0, 20.0]),
    diurnal_amplitude=st.sampled_from([0.0, 0.4]),
    diurnal_period=st.sampled_from([3.0, 7.0]),
    # None, one, or enough bursts that windows overlap and one tenant's
    # stack (few tenants make same-tenant overlaps common).
    n_bursts=st.sampled_from([0, 1, 3, 8]),
    burst_multiplier=st.sampled_from([1.0, 2.5, 4.0]),
    # Longer than some horizons, so windows run past the end.
    burst_duration=st.sampled_from([0.5, 4.0, 25.0]),
    shapes=st.just(("json", "html")),
    seed=st.integers(0, 2**16),
)


def scan_rate(process: TrafficProcess, t: float) -> float:
    return (process.spec.total_rps * process._diurnal(t)
            * process._burst_factor(t))


def scan_assign(process: TrafficProcess, rng: random.Random, t: float):
    """``_assign`` as it was before the table: rescan every burst."""
    mults = process._tenant_multipliers(t)
    if not mults:
        return process._draw_global(rng)
    total = 1.0 + sum((m - 1.0) * process.tenant_share[tn]
                      for tn, m in mults)
    u = rng.random() * total
    if u < 1.0:
        return process._draw_global(rng)
    u -= 1.0
    for tenant, mult in mults:
        mass = (mult - 1.0) * process.tenant_share[tenant]
        if u < mass:
            return process._draw_tenant(rng, tenant)
        u -= mass
    return process._draw_tenant(rng, mults[-1][0])


def probe_points(process: TrafficProcess, rng: random.Random) -> list:
    edges = sorted({0.0}
                   | {b.start for b in process.bursts}
                   | {b.start + b.duration for b in process.bursts})
    points = []
    for edge in edges:
        points += [edge, math.nextafter(edge, -math.inf),
                   math.nextafter(edge, math.inf)]
    horizon = process.spec.duration + process.spec.burst_duration
    points += [rng.uniform(-1.0, horizon + 1.0) for _ in range(40)]
    return points


@settings(max_examples=150, deadline=None)
@given(spec=specs, draw_seed=st.integers(0, 2**32 - 1))
def test_segment_table_matches_burst_scan(spec, draw_seed):
    process = TrafficProcess(spec)
    rng = random.Random(draw_seed)
    edges = sorted({0.0}
                   | {b.start for b in process.bursts}
                   | {b.start + b.duration for b in process.bursts})
    assert process.peak_rate == (
        spec.total_rps * (1.0 + spec.diurnal_amplitude)
        * max(process._burst_factor(edge) for edge in edges))
    for t in probe_points(process, rng):
        assert process.rate(t) == scan_rate(process, t), t
        state = rng.getstate()
        table_rng, scan_rng = random.Random(), random.Random()
        table_rng.setstate(state)
        scan_rng.setstate(state)
        assert process._assign(table_rng, t) is scan_assign(
            process, scan_rng, t), t
        assert table_rng.getstate() == scan_rng.getstate()
        rng.random()


def test_overlapping_same_tenant_bursts_are_covered():
    """The strategy's corner cases occur: stacked same-tenant windows
    and a window past the horizon."""
    spec = TrafficSpec(n_functions=20, n_tenants=1, duration=3.0,
                       n_bursts=8, burst_duration=4.0, seed=1)
    process = TrafficProcess(spec)
    assert max(len([b for b in process.bursts if b.active(t)])
               for t in (b.start for b in process.bursts)) >= 2
    assert max(b.start + b.duration for b in process.bursts) > 3.0
    for t in probe_points(process, random.Random(0)):
        assert process.rate(t) == scan_rate(process, t)


#: sha256 over every invocation's (time, function, tenant, shape) and
#: the count, for three seeds of one spec: the stream before the table.
STREAM_PINS = {
    0: (5774, "fd00a823eb5c0f68654e7354abdf89abc56fb5ff6527c710d81cda401cfd0f47"),
    1: (5192, "2f6e0511d800ee2700626880736377cd6b3acd353f4be323ea3bd3051a7a958d"),
    2: (4658, "a389878d381f59763d7ed9f56f2dc57b7fa5e6ca9ddc55e43e621b23e0049dcb"),
}


def test_invocation_stream_is_pinned():
    for seed, pin in STREAM_PINS.items():
        spec = TrafficSpec(n_functions=300, n_tenants=4, total_rps=150.0,
                           duration=20.0, diurnal_period=7.0, n_bursts=6,
                           burst_multiplier=3.0, burst_duration=4.0,
                           seed=seed)
        stream = [(i.time, i.function, i.tenant, i.shape)
                  for i in TrafficProcess(spec).invocations()]
        digest = hashlib.sha256(repr(stream).encode()).hexdigest()
        assert (len(stream), digest) == pin, seed
