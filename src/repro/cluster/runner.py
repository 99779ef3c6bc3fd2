"""Drive one page-level cluster scenario: nodes, workload, aggregation.

``run_cluster(spec)`` runs page-level ``FaaSNode`` hosts (one
``make_kernel`` host per node, each with its own device, frame pool,
and metrics registry) in the :class:`~repro.cluster.fleet.Fleet`
build-out it shares with ``run_traffic``: ONE shared DES environment
behind one gateway.  It routes a Poisson arrival stream through the
gateway, optionally crashes nodes, and returns a :class:`ClusterReport`.
``run_cluster_scenario(spec)`` wraps that into the standard
:class:`~repro.metrics.results.ScenarioResult` shape (per-cluster
counters in ``extra``, cluster registry snapshot in ``metrics``) so the
sweep engine, result store, and figure builders work unchanged.

Determinism: the whole run is a pure function of the spec (plus an
optional fault config/seed) — seeded arrival stream, seeded routing,
sorted node iteration for crash draws, and insertion-ordered in-flight
tracking.  Equal specs produce byte-identical results under any job
count, which the store-replay tests pin.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from repro.harness.experiment import make_kernel
from repro.metrics.registry import nearest_rank
from repro.metrics.results import ScenarioResult
from repro.mm.kernel import Kernel
from repro.platform.node import FaaSNode
from repro.platform.workload import poisson_arrivals
from repro.trace import Tracer

from repro.cluster.fleet import Fleet
from repro.cluster.gateway import ClusterRequestResult

#: How often the fault plane rolls a crash die per routable node.
CRASH_CHECK_INTERVAL = 0.25

#: Per-node degradation counters rolled up into the cluster registry
#: (the FaaSNode publishes these on its kernel's registry).
NODE_METRIC_NAMES = (
    "node_requests_total",
    "node_requests_completed_total",
    "node_request_retries_total",
    "node_request_timeouts_total",
    "node_request_failures_total",
    "node_cold_starts_total",
    "node_warm_starts_total",
)


def cluster_profiles(base, n_functions: int):
    """``n_functions`` clones of the base profile with distinct names and
    record seeds — distinct snapshot files, warm pools, and hash-ring
    positions, but identical shape so results compare across policies."""
    return [replace(base, name=f"{base.name}-{i}", seed=base.seed + i)
            for i in range(n_functions)]


@dataclass
class ClusterReport:
    """Everything one cluster run produced."""

    policy: str
    results: list[ClusterRequestResult]
    #: (time, routable node count) after every membership change.
    node_timeline: list[tuple[float, float]]
    #: Cluster-registry snapshot (cluster_* plus node_* rollups).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Fleet-wide kernel aggregates (summed over every node ever built).
    peak_memory_bytes: int = 0
    end_memory_bytes: int = 0
    device_requests: int = 0
    device_bytes_read: int = 0
    device_bytes_written: int = 0
    cache_adds: int = 0
    #: Workload window (arrival base time and final drain time).
    start_time: float = 0.0
    end_time: float = 0.0

    # -- summaries ----------------------------------------------------------
    @property
    def requests(self) -> int:
        return len(self.results)

    @property
    def served(self) -> list[ClusterRequestResult]:
        return [r for r in self.results if r.status != "unroutable"]

    @property
    def cold_starts(self) -> int:
        return sum(1 for r in self.served if r.cold)

    @property
    def warm_starts(self) -> int:
        return len(self.served) - self.cold_starts

    @property
    def cold_ratio(self) -> float:
        served = len(self.served)
        return self.cold_starts / served if served else 0.0

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.status == "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for r in self.results if r.status == "timeout")

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results
                   if r.status in ("failed", "unroutable"))

    @property
    def reroutes(self) -> int:
        return sum(r.reroutes for r in self.results)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.served]

    def mean_latency(self) -> float:
        values = self.latencies()
        return statistics.fmean(values) if values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of served-request latencies."""
        values = sorted(self.latencies())
        if not values:
            return 0.0
        return values[nearest_rank(len(values), p)]

    def per_node_served(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.served:
            out[r.node_id] = out.get(r.node_id, 0) + 1
        return dict(sorted(out.items()))

    def node_seconds(self) -> float:
        """Integral of the routable-node count over the workload window
        (the capacity the run paid for)."""
        total = 0.0
        count = 0.0
        last = self.start_time
        for when, n in self.node_timeline:
            if when > self.start_time:
                total += count * (min(when, self.end_time) - last)
                last = min(max(when, self.start_time), self.end_time)
            count = n
        total += count * max(0.0, self.end_time - last)
        return total

    def fingerprint(self) -> str:
        """Canonical digest of everything observable — what the
        determinism tests compare across job counts and processes."""
        rows = [(r.function, round(r.arrival_time, 9), round(r.latency, 9),
                 r.cold, r.node_id, r.status, r.reroutes, r.retries)
                for r in self.results]
        return repr((self.policy, rows,
                     [(round(t, 9), n) for t, n in self.node_timeline],
                     sorted(self.metrics.items())))


def run_cluster(spec, fault_config=None, fault_seed: int = 0,
                tracer: Tracer | None = None,
                telemetry=None) -> ClusterReport:
    """Run the fleet scenario described by ``spec`` (a ScenarioSpec
    whose ``cluster`` field is set).

    ``telemetry`` (a :class:`~repro.serve.hub.TelemetryHub`) observes
    the run live: it is wired to the DES engine's per-event hook, the
    cluster registry, the tracer, and a fleet-topology provider built
    from the gateway's node table.  Observation-only — attaching a hub
    changes no report field or fingerprint.
    """
    cspec = spec.cluster
    if cspec is None:
        raise ValueError("spec.cluster is not set; use run_scenario")
    if cspec.traffic is not None:
        raise ValueError("spec.cluster.traffic is set; use "
                         "repro.cluster.traffic.run_traffic")

    fleet = Fleet(spec, tracer=tracer, telemetry=telemetry)
    env, gateway, keepalive = fleet.env, fleet.gateway, fleet.keepalive
    tracer = fleet.tracer
    profiles = cluster_profiles(spec.function, cspec.n_functions)
    kernels: list[Kernel] = []

    schedule = None
    if fault_config is not None:
        from repro.faults import FaultSchedule
        schedule = FaultSchedule(seed=fault_seed, config=fault_config)

    # Shared snapstore plane: one chunk namespace and one remote object
    # store for the whole fleet.  Each node overlays a local tier on it;
    # a locality miss on routing now costs real staged remote fetches.
    shared_chunks = None
    shared_remote = None
    snapstores = []
    if spec.snapstore is not None:
        from repro.snapstore import ChunkRegistry
        from repro.storage.remote import RemoteObjectStore
        shared_chunks = ChunkRegistry()
        shared_remote = RemoteObjectStore(
            env, rtt=spec.snapstore.remote_latency,
            bandwidth=spec.snapstore.remote_bandwidth)

        if telemetry is not None:
            def snapstore_occupancy() -> dict:
                return {
                    "placement": spec.snapstore.placement,
                    "chunk_pages": spec.snapstore.chunk_pages,
                    "dedup_factor": float(shared_chunks.dedup_factor),
                    "logical_bytes": float(shared_chunks.logical_bytes),
                    "unique_bytes": float(shared_chunks.unique_bytes),
                    "remote_bytes": float(shared_chunks.unique_bytes),
                    "gc_reclaimed_bytes":
                        float(shared_chunks.gc_reclaimed_bytes),
                    "local_bytes":
                        float(sum(s.local_bytes for s in snapstores)),
                    "hdd_bytes":
                        float(sum(s.hdd_bytes for s in snapstores)),
                    "nodes": [s.occupancy() for s in snapstores],
                }

            telemetry.attach_snapstore_provider(snapstore_occupancy)

    def build_node() -> FaaSNode:
        kernel = make_kernel(spec.device_kind, spec.ram_bytes, spec.costs,
                             env=env, tracer=tracer)
        if schedule is not None:
            schedule.install(kernel)
        if spec.snapstore is not None:
            from repro.snapstore import install_snapstore
            store = install_snapstore(kernel, spec.snapstore,
                                      chunks=shared_chunks,
                                      remote=shared_remote)
            snapstores.append(store)
        kernels.append(kernel)
        return FaaSNode(kernel, spec.approach, profiles,
                        warm_pool_ttl=cspec.warm_pool_ttl,
                        request_deadline=cspec.request_deadline,
                        keepalive=keepalive)

    def attach_policy(node: FaaSNode) -> None:
        from repro.core.policies import attach_evict_policy
        attach_evict_policy(node.kernel, spec.evict_policy)

    base = fleet.stage(build_node, on_ready=(
        attach_policy if spec.evict_policy is not None else None))

    # -- node-crash fault process -------------------------------------------
    if (schedule is not None
            and schedule.config.node_crash_rate > 0):
        def crasher():
            while fleet.running:
                yield env.timeout(CRASH_CHECK_INTERVAL)
                if not fleet.running:
                    return
                for cnode in gateway.routable_nodes():
                    if len(gateway.routable_nodes()) <= 1:
                        break  # never strand the fleet entirely
                    if cnode.routable and schedule.node.draw_crash():
                        gateway.crash(cnode)

        env.process(crasher(), name="node-crasher")

    # -- workload ------------------------------------------------------------
    arrivals = poisson_arrivals(
        [(p, cspec.rate_per_function) for p in profiles],
        cspec.duration, seed=spec.input_seed, vary_inputs=spec.vary_inputs)

    def request(arrival):
        yield env.timeout(max(0.0, base + arrival.time - env.now))
        result = yield from gateway.submit(arrival)
        return result

    processes = [env.process(request(a), name=f"creq-{i}")
                 for i, a in enumerate(arrivals)]
    fleet.drain(env.all_of(processes))

    # Roll per-node degradation counters up into the cluster registry so
    # one text exposition shows fleet-wide node_* next to cluster_*.
    def node_rollup() -> dict[str, float]:
        out: dict[str, float] = {}
        for kernel in kernels:
            for name in NODE_METRIC_NAMES:
                if name in kernel.metrics:
                    out[name] = (out.get(name, 0.0)
                                 + kernel.metrics.get(name).value)
        return out

    registry = fleet.registry
    registry.register_collector(node_rollup)

    if snapstores:
        # Dedup state is fleet-shared (one chunk namespace); tier
        # occupancy and fetch counters are per-node and summed.
        def snapstore_rollup() -> dict[str, float]:
            out = {
                "snapstore_dedup_factor":
                    float(shared_chunks.dedup_factor),
                "snapstore_logical_bytes":
                    float(shared_chunks.logical_bytes),
                "snapstore_unique_bytes":
                    float(shared_chunks.unique_bytes),
                "snapstore_remote_bytes":
                    float(shared_chunks.unique_bytes),
                "snapstore_gc_reclaimed_bytes_total":
                    float(shared_chunks.gc_reclaimed_bytes),
                "snapstore_local_bytes":
                    float(sum(s.local_bytes for s in snapstores)),
            }
            if any(s.hdd is not None for s in snapstores):
                out["snapstore_hdd_bytes"] = float(
                    sum(s.hdd_bytes for s in snapstores))
            for name in ("snapstore_remote_fetches_total",
                         "snapstore_remote_fetch_bytes_total",
                         "snapstore_staged_chunks_total",
                         "snapstore_chunk_hits_local_total",
                         "snapstore_chunk_hits_hdd_total",
                         "snapstore_demotions_total",
                         "snapstore_fetch_retries_total",
                         "snapstore_degraded_fetches_total"):
                out[name] = float(sum(
                    k.metrics.get(name).value for k in kernels
                    if name in k.metrics))
            return out

        registry.register_collector(snapstore_rollup)

    fleet.publish()

    return ClusterReport(
        policy=cspec.policy,
        results=[p.value for p in processes],
        node_timeline=list(gateway.node_timeline),
        metrics=registry.snapshot(),
        peak_memory_bytes=sum(k.frames.peak_bytes for k in kernels),
        end_memory_bytes=sum(k.memory_in_use_bytes() for k in kernels),
        device_requests=sum(k.device.stats.requests for k in kernels),
        device_bytes_read=sum(k.device.stats.bytes_read for k in kernels),
        device_bytes_written=sum(k.device.stats.bytes_written
                                 for k in kernels),
        cache_adds=sum(k.page_cache.stats.adds for k in kernels),
        start_time=base, end_time=env.now)


def run_cluster_scenario(spec) -> ScenarioResult:
    """Adapt a cluster run to the standard ScenarioResult shape.

    ``invocations`` stays empty (there is no single-host E2E breakdown);
    every cluster-level statistic rides in ``extra`` as floats and the
    cluster registry snapshot in ``metrics`` — the exact-JSON-round-trip
    contract the warm result store depends on.

    A spec whose cluster carries a :class:`~repro.workloads.traffic.
    TrafficSpec` dispatches to the traffic plane (modeled-fidelity
    nodes, production-shaped load) instead of the page-level fleet.
    """
    if spec.cluster is not None and spec.cluster.traffic is not None:
        from repro.cluster.traffic import run_traffic_scenario
        return run_traffic_scenario(spec)
    report = run_cluster(spec)
    extra = {
        "cluster_requests": float(report.requests),
        "cluster_cold_starts": float(report.cold_starts),
        "cluster_warm_starts": float(report.warm_starts),
        "cluster_cold_ratio": float(report.cold_ratio),
        "cluster_completed": float(report.completed),
        "cluster_timeouts": float(report.timeouts),
        "cluster_failures": float(report.failures),
        "cluster_reroutes": float(report.reroutes),
        "cluster_mean_latency": float(report.mean_latency()),
        "cluster_p50_latency": float(report.percentile(50)),
        "cluster_p95_latency": float(report.percentile(95)),
        "cluster_p99_latency": float(report.percentile(99)),
        "cluster_node_seconds": float(report.node_seconds()),
        "cluster_nodes_final": float(report.node_timeline[-1][1]
                                     if report.node_timeline else 0.0),
        "cluster_nodes_peak": float(max(
            (n for _, n in report.node_timeline), default=0.0)),
        "cluster_scale_ups": float(
            report.metrics.get("cluster_scale_ups_total", 0.0)),
        "cluster_scale_downs": float(
            report.metrics.get("cluster_scale_downs_total", 0.0)),
        "cluster_crashes": float(
            report.metrics.get("cluster_node_crashes_total", 0.0)),
        "cluster_rebalance_evictions": float(
            report.metrics.get("cluster_rebalance_evictions_total", 0.0)),
    }
    # Snapstore plane: dedup and per-tier bytes, present only when the
    # spec enables the store (storeless extras stay byte-identical).
    for key in ("snapstore_dedup_factor", "snapstore_logical_bytes",
                "snapstore_unique_bytes", "snapstore_local_bytes",
                "snapstore_hdd_bytes", "snapstore_remote_bytes"):
        if key in report.metrics:
            extra[key] = float(report.metrics[key])
    for key in ("snapstore_remote_fetches_total",
                "snapstore_remote_fetch_bytes_total",
                "snapstore_staged_chunks_total",
                "snapstore_demotions_total",
                "snapstore_fetch_retries_total",
                "snapstore_degraded_fetches_total",
                "snapstore_gc_reclaimed_bytes_total"):
        if report.metrics.get(key):
            extra[key.removesuffix("_total")] = float(report.metrics[key])
    return ScenarioResult(
        function=spec.function_name,
        approach=spec.approach,
        n_instances=spec.n_instances,
        invocations=[],
        peak_memory_bytes=report.peak_memory_bytes,
        end_memory_bytes=report.end_memory_bytes,
        device_requests=report.device_requests,
        device_bytes_read=report.device_bytes_read,
        device_bytes_written=report.device_bytes_written,
        cache_adds=report.cache_adds,
        metrics=report.metrics,
        extra=extra,
    )
