"""Production-shaped traffic: 10k+ functions, Zipf popularity, tenants.

Production serverless traffic is not a handful of uniform Poisson
streams: it is thousands of functions with heavy-tailed popularity,
grouped under tenants with distinct function mixes, arriving on a
diurnal cycle punctuated by bursts (Ustiugov et al., *Benchmarking,
Analysis, and Optimization of Serverless Function Snapshots*;
Shahrad et al., *Serverless in the Wild*).  This module generates that
shape deterministically from a :class:`TrafficSpec` seed.

Scale without materialization: simulating 10k independent modulated
Poisson processes would need 10k generators and a merge heap.  By the
superposition theorem the union of independent Poisson processes is a
Poisson process at the summed rate, with each point labelled by a draw
proportional to the per-process rate at that instant.  So the generator
samples ONE aggregate :class:`~repro.workloads.trace.ArrivalProcess`
(via the shared thinning sampler) and assigns each accepted point to a
function by weighted choice — O(1) memory, lazily streamed, byte-
identical for a given spec whatever consumes it.

Burst semantics: each seeded burst multiplies the arrival rate of ONE
tenant's functions for a window, so bursts skew the function mix while
they are active (the mixture decomposition in ``_assign`` keeps the
label distribution exactly proportional to per-function instantaneous
rates).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.workloads.profile import profile_by_name
from repro.workloads.trace import ArrivalProcess

# Sub-seed offsets: independent deterministic streams per concern so
# adding a knob to one never perturbs the others.
_SEED_TENANTS = 0x7E4A17
_SEED_SHAPES = 0x5A43E5
_SEED_BURSTS = 0xB0257
_SEED_ARRIVALS = 0xA221FA

#: Default function shapes: the small/fast profiles, so calibration and
#: CI-scale figure runs stay cheap while still mixing working sets.
DEFAULT_SHAPES = ("json", "html", "pyaes")


@dataclass(frozen=True)
class TrafficSpec:
    """Seeded description of a production-shaped workload.

    Frozen and JSON-round-trippable (``canonical()`` / ``from_dict``)
    so it nests inside :class:`~repro.cluster.spec.ClusterSpec` without
    breaking the content-addressed result store.
    """

    #: Distinct functions, Zipf-ranked by popularity.
    n_functions: int = 10_000
    #: Tenants; each function belongs to exactly one.
    n_tenants: int = 8
    #: Zipf exponent for function popularity (weight ~ 1/rank^s).
    zipf_s: float = 1.1
    #: Aggregate arrival rate across every function, requests/second.
    total_rps: float = 2000.0
    #: Workload horizon, seconds.
    duration: float = 60.0
    #: Sinusoidal diurnal modulation amplitude in [0, 1).
    diurnal_amplitude: float = 0.4
    #: Diurnal period, seconds (compressed from 86400 s for sim scale).
    diurnal_period: float = 40.0
    #: Phase offset in cycles (0.25 puts the peak at t=0).
    diurnal_phase: float = 0.0
    #: Seeded tenant-targeted bursts over the horizon.
    n_bursts: int = 4
    #: Rate multiplier applied to the bursting tenant's functions.
    burst_multiplier: float = 4.0
    #: Burst window length, seconds.
    burst_duration: float = 3.0
    #: Function shapes (profile names); tenants weight these differently.
    shapes: tuple[str, ...] = DEFAULT_SHAPES
    #: Master seed for every derived stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ValueError(
                f"n_functions must be >= 1, got {self.n_functions}")
        if not 1 <= self.n_tenants <= self.n_functions:
            raise ValueError(
                f"need 1 <= n_tenants <= n_functions, got "
                f"{self.n_tenants} tenants / {self.n_functions} functions")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if self.total_rps <= 0:
            raise ValueError("total_rps must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if self.n_bursts < 0:
            raise ValueError("n_bursts must be >= 0")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if self.burst_duration <= 0:
            raise ValueError("burst_duration must be positive")
        if not self.shapes:
            raise ValueError("shapes must name at least one profile")
        for shape in self.shapes:
            try:
                profile_by_name(shape)
            except KeyError:
                raise ValueError(
                    f"unknown function shape {shape!r}") from None
        # Tuples survive asdict() as lists; normalize on the way in so
        # from_dict(canonical()) round-trips to an equal spec.
        object.__setattr__(self, "shapes", tuple(self.shapes))

    def canonical(self) -> dict:
        data = asdict(self)
        data["shapes"] = list(self.shapes)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficSpec":
        data = dict(data)
        data["shapes"] = tuple(data.get("shapes", DEFAULT_SHAPES))
        return cls(**data)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.n_functions} fns / {self.n_tenants} tenants @ "
                f"{self.total_rps}/s for {self.duration}s "
                f"(zipf {self.zipf_s}, {self.n_bursts} bursts)")


@dataclass(frozen=True)
class TrafficFunction:
    """One generated function: identity, owner, shape, popularity."""

    name: str
    tenant: int
    shape: str
    #: Normalized popularity weight (sums to 1 over the population).
    weight: float


@dataclass(frozen=True)
class TenantBurst:
    """A seeded spike multiplying one tenant's arrival rate."""

    start: float
    duration: float
    multiplier: float
    tenant: int

    def active(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration


def traffic_functions(spec: TrafficSpec) -> list[TrafficFunction]:
    """The seeded function population, Zipf-ranked by index.

    ``fn00000`` is the most popular function.  Tenant membership is a
    seeded uniform draw; shape follows per-tenant preference weights
    (another seeded draw), so each tenant has a distinct function mix —
    the thing per-tenant SLOs are measured over.
    """
    tenant_rng = random.Random(spec.seed ^ _SEED_TENANTS)
    shape_rng = random.Random(spec.seed ^ _SEED_SHAPES)
    # Per-tenant shape preferences: a Dirichlet-ish draw normalized to 1.
    prefs: list[list[float]] = []
    for _ in range(spec.n_tenants):
        raw = [shape_rng.random() + 0.1 for _ in spec.shapes]
        total = sum(raw)
        prefs.append([w / total for w in raw])

    weights = [1.0 / (rank + 1) ** spec.zipf_s
               for rank in range(spec.n_functions)]
    norm = sum(weights)
    width = max(5, len(str(spec.n_functions - 1)))

    functions: list[TrafficFunction] = []
    for rank in range(spec.n_functions):
        # Round-robin the first n_tenants ranks so every tenant owns at
        # least one function, then draw uniformly.
        tenant = (rank if rank < spec.n_tenants
                  else tenant_rng.randrange(spec.n_tenants))
        shape = shape_rng.choices(spec.shapes, weights=prefs[tenant])[0]
        functions.append(TrafficFunction(
            name=f"fn{rank:0{width}d}", tenant=tenant, shape=shape,
            weight=weights[rank] / norm))
    return functions


def burst_schedule(spec: TrafficSpec) -> tuple[TenantBurst, ...]:
    """Seeded tenant-targeted bursts, sorted by start time."""
    rng = random.Random(spec.seed ^ _SEED_BURSTS)
    bursts = []
    for _ in range(spec.n_bursts):
        start = rng.uniform(0.0, max(1e-9, spec.duration
                                     - spec.burst_duration))
        bursts.append(TenantBurst(
            start=start, duration=spec.burst_duration,
            multiplier=spec.burst_multiplier,
            tenant=rng.randrange(spec.n_tenants)))
    return tuple(sorted(bursts, key=lambda b: (b.start, b.tenant)))


@dataclass(frozen=True)
class Invocation:
    """One traffic-plane invocation event (lazily generated)."""

    time: float
    function: str
    tenant: int
    shape: str


class TrafficProcess(ArrivalProcess):
    """The aggregate superposed process behind ``iter_invocations``.

    ``rate(t) = total_rps * diurnal(t) * (1 + sum_t (m_t(t) - 1) * W_t)``
    where ``m_t`` is tenant *t*'s stacked burst multiplier at ``t`` and
    ``W_t`` its share of total popularity weight — exactly the sum of
    every per-function instantaneous rate.
    """

    def __init__(self, spec: TrafficSpec,
                 functions: list[TrafficFunction] | None = None):
        self.spec = spec
        self.functions = (functions if functions is not None
                          else traffic_functions(spec))
        self.bursts = burst_schedule(spec)

        # Tenant weight shares and per-tenant cumulative distributions.
        self.tenant_share = [0.0] * spec.n_tenants
        per_tenant: list[list[TrafficFunction]] = [
            [] for _ in range(spec.n_tenants)]
        for fn in self.functions:
            self.tenant_share[fn.tenant] += fn.weight
            per_tenant[fn.tenant].append(fn)
        self.tenant_functions = per_tenant
        self.tenant_cum: list[list[float]] = []
        for fns in per_tenant:
            cum, total = [], 0.0
            for fn in fns:
                total += fn.weight
                cum.append(total)
            self.tenant_cum.append(cum)
        self.global_cum: list[float] = []
        total = 0.0
        for fn in self.functions:
            total += fn.weight
            self.global_cum.append(total)
        self._build_segments()

    # -- rate envelope -------------------------------------------------------
    def _diurnal(self, t: float) -> float:
        s = self.spec
        return 1.0 + s.diurnal_amplitude * math.sin(
            2.0 * math.pi * (t / s.diurnal_period + s.diurnal_phase))

    def _burst_factor(self, t: float) -> float:
        """``1 + sum_t (m_t - 1) * W_t`` at instant ``t`` (same-tenant
        overlaps stack multiplicatively)."""
        extra = 0.0
        for tenant, mult in self._tenant_multipliers(t):
            extra += (mult - 1.0) * self.tenant_share[tenant]
        return 1.0 + extra

    def _tenant_multipliers(self, t: float) -> list[tuple[int, float]]:
        stacked: dict[int, float] = {}
        for b in self.bursts:
            if b.active(t):
                stacked[b.tenant] = stacked.get(b.tenant, 1.0) * b.multiplier
        return sorted(stacked.items())

    def _build_segments(self) -> None:
        """The burst-segment table behind :meth:`rate` and :meth:`_assign`.

        The edges are 0 and every burst start and end, sorted.  No edge
        lies inside a segment ``[edges[i], edges[i + 1])``, so every
        burst's ``start <= t < start + duration`` test is constant over
        it, and the scan's value at the left edge is its value at every
        ``t`` in the segment, bit for bit.  (Before 0 and after the last
        edge no burst is active, so ``t < 0`` may use the last segment.)
        Per segment the table keeps the active tenants' stacked
        multipliers, the burst factor and ``_assign``'s mixture total.
        """
        self._edges = sorted({0.0}
                             | {b.start for b in self.bursts}
                             | {b.start + b.duration for b in self.bursts})
        self._mults = [self._tenant_multipliers(edge) for edge in self._edges]
        self._factors = [self._burst_factor(edge) for edge in self._edges]
        self._totals = [1.0 + sum((m - 1.0) * self.tenant_share[tn]
                                  for tn, m in mults)
                        for mults in self._mults]
        self._peak = (self.spec.total_rps
                      * (1.0 + self.spec.diurnal_amplitude)
                      * max(self._factors))

    def rate(self, t: float) -> float:
        return (self.spec.total_rps * self._diurnal(t)
                * self._factors[bisect.bisect_right(self._edges, t) - 1])

    @property
    def peak_rate(self) -> float:
        return self._peak

    # -- labelling -----------------------------------------------------------
    def _assign(self, rng: random.Random, t: float) -> TrafficFunction:
        """Label an accepted point with a function, proportional to each
        function's instantaneous rate ``w_i * m_tenant(i)(t)``.

        Mixture decomposition: with probability ``1/S`` draw from the
        base Zipf distribution; with probability ``(m_t - 1) W_t / S``
        draw from tenant *t*'s internal distribution — summing to the
        exact per-function proportions without per-function work.
        """
        segment = bisect.bisect_right(self._edges, t) - 1
        mults = self._mults[segment]
        if not mults:
            return self._draw_global(rng)
        u = rng.random() * self._totals[segment]
        if u < 1.0:
            return self._draw_global(rng)
        u -= 1.0
        for tenant, mult in mults:
            mass = (mult - 1.0) * self.tenant_share[tenant]
            if u < mass:
                return self._draw_tenant(rng, tenant)
            u -= mass
        return self._draw_tenant(rng, mults[-1][0])  # float-edge fallback

    def _draw_global(self, rng: random.Random) -> TrafficFunction:
        u = rng.random() * self.global_cum[-1]
        return self.functions[bisect.bisect_left(self.global_cum, u)]

    def _draw_tenant(self, rng: random.Random,
                     tenant: int) -> TrafficFunction:
        cum = self.tenant_cum[tenant]
        u = rng.random() * cum[-1]
        return self.tenant_functions[tenant][bisect.bisect_left(cum, u)]

    def invocations(self) -> Iterator[Invocation]:
        """Lazily stream the labelled invocation events, ascending in
        time; deterministic per spec and safely restartable (each call
        builds a fresh RNG)."""
        rng = random.Random(self.spec.seed ^ _SEED_ARRIVALS)
        for t in self.sample(rng, self.spec.duration):
            fn = self._assign(rng, t)
            yield Invocation(time=t, function=fn.name,
                             tenant=fn.tenant, shape=fn.shape)


def iter_invocations(spec: TrafficSpec) -> Iterator[Invocation]:
    """Lazy, seeded stream of :class:`Invocation` events for ``spec``."""
    return TrafficProcess(spec).invocations()


def expected_invocations(spec: TrafficSpec) -> float:
    """Analytic mean of the invocation count (sizing aid for CLIs/docs).

    The diurnal sinusoid integrates to ~1 over whole cycles; each burst
    adds ``(m - 1) * W_t * duration * total_rps`` in expectation
    (approximating the diurnal factor as 1 within the window).
    """
    base = spec.total_rps * spec.duration
    if spec.n_bursts == 0:
        return base
    # Expected tenant share is 1/n_tenants for a seeded uniform target.
    extra = (spec.n_bursts * (spec.burst_multiplier - 1.0)
             * spec.burst_duration * spec.total_rps / spec.n_tenants)
    return base + extra
