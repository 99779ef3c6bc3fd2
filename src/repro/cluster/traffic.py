"""Drive production-shaped traffic through the cluster plane.

Per-page simulation of 1M+ invocations is infeasible (each invocation
is thousands of DES events), so the traffic plane runs at *modeled
fidelity with measured constants*: ``calibrate_service_times`` first
runs, for every function *shape* x the spec's restore approach, a
one-function page-level :class:`~repro.platform.node.FaaSNode`'s record
phase and its first two requests (a cold start after the record phase's
cache drop, then a warm start on the sandbox it parked), then
:class:`TrafficNode` replays those measured service times per
invocation.  Warm-pool bookkeeping, keep-alive/pre-warm policies,
routing, autoscaling, and per-node concurrency limits all still run for
real inside the DES — the :class:`~repro.cluster.fleet.Fleet` build-out
the page-level cluster figure runs too — so the figure-level quantities
(cold-start ratio, per-tenant tail latency, fleet size) emerge from the
same control plane; only the data plane inside one invocation is
replaced by its measured cost.

Scale: invocations stream lazily from
:class:`~repro.workloads.traffic.TrafficProcess`; accounting goes into
bounded per-tenant histograms and a rolling SHA-256 digest, so memory
stays O(tenants + functions) however many invocations run.

Determinism: a pure function of the spec.  Calibration runs in fresh
private environments (seeded like everything else), the event stream is
seeded, and the digest pins the full per-request outcome sequence —
byte-identical across serial and ``--jobs N`` sweeps.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from repro.metrics.registry import Histogram
from repro.metrics.results import ScenarioResult
from repro.platform.node import FaaSNode, RequestResult
from repro.platform.workload import Arrival
from repro.sim import Environment
from repro.trace import Tracer
from repro.workloads.profile import profile_by_name
from repro.workloads.traffic import TrafficProcess

from repro.cluster.fleet import Fleet


@dataclass(frozen=True)
class ServiceTimes:
    """Measured per-invocation costs for one (shape, approach) pair."""

    cold: float
    warm: float
    prepare: float


def calibrate_service_times(approach_name: str, shapes: tuple[str, ...],
                            device_kind: str = "ssd",
                            ram_bytes: int | None = None,
                            costs=None) -> dict[str, ServiceTimes]:
    """Measure cold/warm/prepare seconds per shape with real mini-runs.

    Each shape gets a one-function :class:`~repro.platform.node.FaaSNode`
    on a fresh private kernel (``ram_bytes`` applies as in
    :func:`~repro.harness.experiment.make_kernel`).  Its record phase
    (``prepare()``, which ends with a cache drop) is the prepare time;
    its first two requests are the cold time (spawn + invoke) and the
    warm time (resume + invoke of the sandbox the first one parked), in
    simulated seconds.
    """
    from repro.harness.experiment import make_kernel

    out: dict[str, ServiceTimes] = {}
    for shape in shapes:
        kernel = make_kernel(device_kind, ram_bytes, costs)
        env = kernel.env
        # Any TTL keeps the cold start's sandbox for the warm request,
        # which follows at once; draining the environment afterwards lets
        # the reapers tear the sandbox down.
        node = FaaSNode(kernel, approach_name, [profile_by_name(shape)],
                        warm_pool_ttl=1.0)
        env.run(env.process(node.prepare(), name=f"calib-prepare-{shape}"))
        prepare = env.now  # a fresh host starts at time 0
        cold, warm = (
            env.run(env.process(node.handle(Arrival(env.now, shape, 0)),
                                name=f"calib-{shape}")).latency
            for _ in range(2))
        env.run()
        out[shape] = ServiceTimes(cold=cold, warm=warm, prepare=prepare)
    return out


class TrafficNode:
    """A fleet member that replays calibrated service times.

    Duck-types the :class:`~repro.platform.node.FaaSNode` surface the
    gateway and autoscaler drive — ``handle`` / ``prepare`` /
    ``shutdown`` / ``approaches`` — with a bounded-concurrency server:
    ``slots`` invocations run at once, excess requests queue FIFO (the
    queueing delay is what pushes p99.9 E2E under bursts).  Warm pools
    are per-function expiry timestamps; parking, expiry, and pre-warm
    all consult the shared keep-alive policy exactly like the real node.

    One snapshot per *shape* (functions of a shape share a base image),
    so a node's record phase costs ``sum(prepare per shape)`` no matter
    how many thousands of functions it may serve.
    """

    def __init__(self, env: Environment, shapes: dict[str, str],
                 times: dict[str, ServiceTimes], keepalive, slots: int):
        self.env = env
        #: function name -> shape name.
        self.shapes = shapes
        self.times = times
        self.keepalive = keepalive
        self.slots = slots
        #: Gateway residency probes find no snapshot -> residency 0.
        self.approaches: dict = {}
        self.prepared = False
        self._in_service = True
        self._active = 0
        self._waiters: deque = deque()
        #: function -> list of pool-entry expiry times (ascending-ish).
        self._pool: dict[str, list[float]] = {}
        # Plain counters; the runner rolls them into the registry.
        self.requests = 0
        self.cold_starts = 0
        self.warm_starts = 0
        self.prewarms = 0

    # -- lifecycle -----------------------------------------------------------
    def prepare(self):
        """Generator: record phase, one snapshot per served shape."""
        for shape in sorted(set(self.shapes.values())):
            yield self.env.timeout(self.times[shape].prepare)
        self.prepared = True

    def shutdown(self) -> int:
        self._in_service = False
        self._pool.clear()
        return 0  # no page cache at modeled fidelity

    # -- bounded concurrency -------------------------------------------------
    def _acquire(self):
        if self._active < self.slots:
            self._active += 1
            return
        gate = self.env.event()
        self._waiters.append(gate)
        yield gate

    def _release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()  # slot handed over, FIFO
        else:
            self._active -= 1

    # -- warm pool -----------------------------------------------------------
    def _take_warm(self, function: str) -> bool:
        """Claim a live pool entry (expiry >= now); prune dead ones."""
        now = self.env.now
        entries = self._pool.get(function)
        if not entries:
            return False
        live = [e for e in entries if e >= now]
        if not live:
            self._pool[function] = []
            return False
        live.pop(0)
        self._pool[function] = live
        return True

    def _park(self, function: str, ttl: float) -> None:
        env = self.env
        expiry = env.now + ttl
        self._pool.setdefault(function, []).append(expiry)

        def reaper():
            yield env.timeout(ttl)
            entries = self._pool.get(function)
            if entries and expiry in entries and env.now >= expiry:
                entries.remove(expiry)
                self._maybe_prewarm(function)

        env.process(reaper(), name=f"treaper-{function}")

    def _maybe_prewarm(self, function: str) -> None:
        env = self.env
        when = self.keepalive.prewarm_at(function, env.now)
        if when is None or not self._in_service:
            return
        self.keepalive.pending_prewarms += 1

        def prewarm():
            try:
                yield env.timeout(max(0.0, when - env.now))
                if not self._in_service or self._pool.get(function):
                    return
                st = self.times[self.shapes[function]]
                # Spawn-only cost: the cold path minus the invoke the
                # warm path shares (clamped; charged to the node).
                yield env.timeout(max(0.0, st.cold - st.warm))
                self.prewarms += 1
                ttl = self.keepalive.ttl(function)
                if ttl is not None and self._in_service:
                    self._park(function, ttl)
            finally:
                self.keepalive.pending_prewarms -= 1

        env.process(prewarm(), name=f"tprewarm-{function}")

    # -- request path --------------------------------------------------------
    def handle(self, arrival: Arrival):
        """Generator: serve one request; returns a RequestResult."""
        if not self.prepared:
            raise RuntimeError("node.prepare() has not run")
        env = self.env
        self.keepalive.observe(arrival.function, env.now)
        start = env.now
        yield from self._acquire()
        try:
            st = self.times[self.shapes[arrival.function]]
            warm = self._take_warm(arrival.function)
            yield env.timeout(st.warm if warm else st.cold)
        finally:
            self._release()
        self.requests += 1
        if warm:
            self.warm_starts += 1
        else:
            self.cold_starts += 1
        ttl = self.keepalive.ttl(arrival.function)
        if ttl is not None:
            self._park(arrival.function, ttl)
        return RequestResult(function=arrival.function,
                             arrival_time=arrival.time,
                             latency=env.now - start, cold=not warm,
                             input_seed=arrival.input_seed)


@dataclass
class TrafficReport:
    """Everything one traffic run produced (bounded, list-free)."""

    policy: str
    keepalive: str
    invocations: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    completed: int = 0
    timeouts: int = 0
    failures: int = 0
    reroutes: int = 0
    prewarms: int = 0
    #: SHA-256 over the full per-request outcome sequence.
    digest: str = ""
    #: DES events the run processed (throughput denominator).
    events_processed: int = 0
    node_timeline: list[tuple[float, float]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: tenant id -> flat SLO floats (p99/p99.9 E2E + cold, ratio, count).
    slo: dict[int, dict[str, float]] = field(default_factory=dict)
    #: Fleet-wide tail estimates from the bounded histograms.
    p99_e2e: float = 0.0
    p999_e2e: float = 0.0

    @property
    def cold_ratio(self) -> float:
        served = self.cold_starts + self.warm_starts
        return self.cold_starts / served if served else 0.0

    def fingerprint(self) -> str:
        """Canonical digest for byte-identity checks across job counts."""
        return repr((self.policy, self.keepalive, self.invocations,
                     self.cold_starts, self.digest,
                     [(round(t, 9), n) for t, n in self.node_timeline],
                     sorted((k, round(v, 9))
                            for k, v in self.metrics.items()),
                     sorted((t, sorted((k, round(v, 9))
                                       for k, v in d.items()))
                            for t, d in self.slo.items())))


def run_traffic(spec, tracer: Tracer | None = None,
                telemetry=None) -> TrafficReport:
    """Run the traffic scenario described by ``spec`` (a ScenarioSpec
    whose ``cluster.traffic`` is set)."""
    cspec = spec.cluster
    if cspec is None or cspec.traffic is None:
        raise ValueError("spec.cluster.traffic is not set")
    tspec = cspec.traffic

    times = calibrate_service_times(
        spec.approach, tspec.shapes, device_kind=spec.device_kind,
        ram_bytes=spec.ram_bytes, costs=spec.costs)

    traffic = TrafficProcess(tspec)
    shapes = {fn.name: fn.shape for fn in traffic.functions}

    t_requests = dict.fromkeys(range(tspec.n_tenants), 0)
    if telemetry is not None:
        telemetry.attach_tenant_counts(t_requests)
    fleet = Fleet(spec, tracer=tracer, telemetry=telemetry)
    env, gateway, keepalive = fleet.env, fleet.gateway, fleet.keepalive
    registry = fleet.registry
    nodes: list[TrafficNode] = []

    # Per-tenant bounded accounting on the cluster registry.
    t_e2e: dict[int, Histogram] = {}
    t_cold_hist: dict[int, Histogram] = {}
    t_cold = dict.fromkeys(range(tspec.n_tenants), 0)
    for tenant in range(tspec.n_tenants):
        t_e2e[tenant] = registry.histogram(
            f"traffic_tenant{tenant}_e2e_seconds",
            f"E2E latency, tenant {tenant}", base=1e-4)
        t_cold_hist[tenant] = registry.histogram(
            f"traffic_tenant{tenant}_cold_seconds",
            f"cold-start E2E latency, tenant {tenant}", base=1e-4)
    all_e2e = registry.histogram(
        "traffic_e2e_seconds", "E2E latency, all tenants", base=1e-4)

    def build_node() -> TrafficNode:
        node = TrafficNode(env, shapes, times, keepalive,
                           slots=cspec.overflow_inflight)
        nodes.append(node)
        return node

    base = fleet.stage(build_node)
    digest = hashlib.sha256()
    state = {"submitted": 0, "done": 0, "stream_done": False,
             "cold": 0, "timeouts": 0, "failures": 0, "reroutes": 0}
    all_done = env.event()

    def check_done() -> None:
        if (state["stream_done"] and state["done"] == state["submitted"]
                and not all_done.triggered):
            all_done.succeed()

    def request(inv):
        arrival = Arrival(time=inv.time, function=inv.function,
                          input_seed=0)
        result = yield from gateway.submit(arrival)
        latency = result.latency
        all_e2e.observe(latency)
        t_e2e[inv.tenant].observe(latency)
        t_requests[inv.tenant] += 1
        if result.cold:
            state["cold"] += 1
            t_cold[inv.tenant] += 1
            t_cold_hist[inv.tenant].observe(latency)
        if result.status == "timeout":
            state["timeouts"] += 1
        elif result.status in ("failed", "unroutable"):
            state["failures"] += 1
        state["reroutes"] += result.reroutes
        digest.update(repr((inv.function, round(inv.time, 9),
                            result.cold, round(latency, 9),
                            result.status)).encode())
        state["done"] += 1
        check_done()

    def driver():
        # Lazy: one invocation in hand at a time; requests run as
        # independent processes so a slow one never stalls the stream.
        for seq, inv in enumerate(traffic.invocations()):
            target = base + inv.time
            if target > env.now:
                yield env.timeout(target - env.now)
            state["submitted"] += 1
            env.process(request(inv), name=f"treq-{seq}")
        state["stream_done"] = True
        check_done()

    env.process(driver(), name="traffic-driver")
    fleet.drain(all_done)

    def node_rollup() -> dict[str, float]:
        return {
            "node_requests_total": float(sum(n.requests for n in nodes)),
            "node_cold_starts_total": float(sum(n.cold_starts
                                                for n in nodes)),
            "node_warm_starts_total": float(sum(n.warm_starts
                                                for n in nodes)),
            "node_prewarms_total": float(sum(n.prewarms for n in nodes)),
        }

    registry.register_collector(node_rollup)
    for tenant in range(tspec.n_tenants):
        registry.counter(f"traffic_tenant{tenant}_requests_total",
                         f"requests, tenant {tenant}"
                         ).inc(t_requests[tenant])
        registry.counter(f"traffic_tenant{tenant}_cold_total",
                         f"cold starts, tenant {tenant}"
                         ).inc(t_cold[tenant])

    slo: dict[int, dict[str, float]] = {}
    for tenant in range(tspec.n_tenants):
        reqs = t_requests[tenant]
        slo[tenant] = {
            "requests": float(reqs),
            "cold_ratio": (t_cold[tenant] / reqs if reqs else 0.0),
            "p99_e2e": t_e2e[tenant].percentile(99.0),
            "p999_e2e": t_e2e[tenant].percentile(99.9),
            "p99_cold": t_cold_hist[tenant].percentile(99.0),
            "p999_cold": t_cold_hist[tenant].percentile(99.9),
        }

    fleet.publish()

    return TrafficReport(
        policy=cspec.policy,
        keepalive=cspec.keepalive,
        invocations=state["submitted"],
        cold_starts=state["cold"],
        warm_starts=state["done"] - state["cold"],
        completed=state["done"] - state["timeouts"] - state["failures"],
        timeouts=state["timeouts"],
        failures=state["failures"],
        reroutes=state["reroutes"],
        prewarms=sum(n.prewarms for n in nodes),
        digest=digest.hexdigest(),
        events_processed=env.events_processed,
        node_timeline=list(gateway.node_timeline),
        metrics=registry.snapshot(),
        slo=slo,
        p99_e2e=all_e2e.percentile(99.0),
        p999_e2e=all_e2e.percentile(99.9))


def run_traffic_scenario(spec) -> ScenarioResult:
    """Adapt a traffic run to the standard ScenarioResult shape.

    Flat floats only in ``extra`` (the exact-JSON-round-trip contract of
    the warm result store): per-tenant SLO rows are flattened to
    ``slo_t{n}_*`` keys and the outcome digest rides as the integer
    value of its first 12 hex digits.
    """
    report = run_traffic(spec)
    extra: dict[str, float] = {
        "traffic_invocations": float(report.invocations),
        "traffic_cold_starts": float(report.cold_starts),
        "traffic_warm_starts": float(report.warm_starts),
        "traffic_cold_ratio": float(report.cold_ratio),
        "traffic_completed": float(report.completed),
        "traffic_timeouts": float(report.timeouts),
        "traffic_failures": float(report.failures),
        "traffic_reroutes": float(report.reroutes),
        "traffic_prewarms": float(report.prewarms),
        "traffic_p99_e2e": float(report.p99_e2e),
        "traffic_p999_e2e": float(report.p999_e2e),
        "traffic_events_processed": float(report.events_processed),
        "traffic_digest": float(int(report.digest[:12], 16)),
        "traffic_nodes_peak": float(max(
            (n for _, n in report.node_timeline), default=0.0)),
        "traffic_nodes_final": float(report.node_timeline[-1][1]
                                     if report.node_timeline else 0.0),
    }
    for tenant, row in sorted(report.slo.items()):
        for key, value in sorted(row.items()):
            extra[f"slo_t{tenant}_{key}"] = float(value)
    return ScenarioResult(
        function=spec.function_name,
        approach=spec.approach,
        n_instances=spec.n_instances,
        invocations=[],
        metrics=report.metrics,
        extra=extra,
    )
