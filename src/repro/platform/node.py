"""A serverless node: many functions, one host kernel, shared page cache.

The node owns one prefetching approach *instance per function* (each
instance holds that function's snapshot and record-phase artifacts) on a
single shared kernel, so concurrent sandboxes of different functions
compete for the same page cache and device — the cross-function
interference a single-scenario run cannot show.

Warm pooling: the node is a :class:`~repro.cluster.keepalive.WarmPool`.
After an invocation the sandbox is parked for however long the node's
:class:`~repro.cluster.keepalive.KeepAlivePolicy` says (no policy: no
pooling); a request finding a parked sandbox gets a *warm start* (no
restore, EPT already populated) and only pool misses pay the cold-start
path under test.  Histogram policies can also *pre-warm*: spawn a
sandbox ahead of the predicted next arrival after a pool entry expires,
charging the cold start to the node instead of a request.  The node
itself only says how a pre-warmed ``MicroVM`` is spawned (through the
function's approach) and torn down.

One request path: :meth:`FaaSNode.run` and a fleet's ``run_cluster``
share the eager driver :func:`~repro.platform.workload.start_arrivals`,
the :class:`RequestResult` record (a gateway writes its latency, node
and reroutes onto it) and :class:`NodeReport`'s exact statistics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.baselines.base import Approach, approach_registry
from repro.cluster.keepalive import FixedTTLPolicy, KeepAlivePolicy, WarmPool
from repro.metrics.registry import nearest_rank
from repro.mm.kernel import Kernel
from repro.platform.workload import Arrival, start_arrivals
from repro.units import USEC
from repro.vmm.microvm import MicroVM
from repro.workloads.profile import FunctionProfile
from repro.workloads.trace import generate_trace

#: Unpausing a parked sandbox (firecracker resume).
WARM_RESUME_SECONDS = 400 * USEC


@dataclass
class RequestResult:
    """Outcome of one request, served by a node on its own or through a
    fleet's gateway."""

    function: str
    arrival_time: float
    latency: float
    cold: bool
    input_seed: int
    #: "ok", "timeout" (request deadline expired), "failed" (EIO
    #: survived the cold-start retry), or "unroutable" (no routable node
    #: appeared within the gateway's wait limit).
    status: str = "ok"
    #: Cold-start retries this request needed (0 or 1).
    retries: int = 0
    #: The fleet node that served it (-1: no gateway, or unroutable).
    node_id: int = -1
    #: Times the gateway re-routed it because its node crashed.
    reroutes: int = 0


@dataclass
class NodeReport:
    """Aggregate outcome of a workload run, exact over its records.

    Latency statistics and start counts cover the served requests (all
    but "unroutable" ones); a statistic over no request is 0.0.
    """

    results: list[RequestResult]
    peak_memory_bytes: int

    @property
    def requests(self) -> int:
        return len(self.results)

    @property
    def served(self) -> list[RequestResult]:
        return [r for r in self.results if r.status != "unroutable"]

    def latencies(self, cold: bool | None = None) -> list[float]:
        return [r.latency for r in self.served
                if cold is None or r.cold == cold]

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

    def percentile(self, p: float, cold: bool | None = None) -> float:
        """Nearest-rank percentile: the smallest value with at least
        ``p`` percent of the sample at or below it (so p=50 on 10 sorted
        samples is the 5th value, index 4 — not index 5)."""
        values = sorted(self.latencies(cold))
        if not values:
            return 0.0
        return values[nearest_rank(len(values), p)]

    def mean_latency(self, cold: bool | None = None) -> float:
        values = self.latencies(cold)
        return statistics.fmean(values) if values else 0.0

    # -- fault plane --------------------------------------------------------
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
    def request_retries(self) -> int:
        return sum(r.retries for r in self.results)

    @property
    def reroutes(self) -> int:
        return sum(r.reroutes for r in self.results)


class FaaSNode(WarmPool):
    """One host serving a mix of functions with one restore approach;
    ``keepalive`` parks its sandboxes (``None``: no pooling)."""

    #: Newest first, a TrafficNode's oldest first: the fleet pins hold both
    #: orders until a declared model change keeps one (ROADMAP item 3).
    take_newest = True

    def __init__(self, kernel: Kernel, approach: str,
                 profiles: list[FunctionProfile],
                 request_deadline: float | None = None,
                 keepalive: KeepAlivePolicy | None = None):
        factory = approach_registry()[approach]
        self.kernel = kernel
        self.profiles = {p.name: p for p in profiles}
        self.approaches: dict[str, Approach] = {
            p.name: factory(kernel) for p in profiles}
        super().__init__(kernel.env, (keepalive if keepalive is not None
                                      else FixedTTLPolicy(None)),
                         functions=self.profiles)
        #: Wall-clock budget per request.  Past it the request reports a
        #: "timeout" result; the in-flight attempt is abandoned (it still
        #: finishes in the background and cleans up its sandbox).
        self.request_deadline = request_deadline
        self._vm_seq = 0
        self.prepared = False
        # Degradation counters, published on the machine's registry so
        # node-level health shows up in the same Prometheus exposition
        # as reclaim_* / sweep_* (names mirror NodeReport's counts).
        metrics = kernel.metrics
        self._m_requests = metrics.counter(
            "node_requests_total", "requests handled by this host")
        self._m_completed = metrics.counter(
            "node_requests_completed_total", "requests finishing ok")
        self._m_retries = metrics.counter(
            "node_request_retries_total", "cold-start retries after EIO")
        self._m_timeouts = metrics.counter(
            "node_request_timeouts_total", "requests past their deadline")
        self._m_failures = metrics.counter(
            "node_request_failures_total", "requests failed after retry")
        self._m_cold = metrics.counter(
            "node_cold_starts_total", "requests served by a cold start")
        self._m_warm = metrics.counter(
            "node_warm_starts_total", "requests served from the warm pool")
        self._m_prewarms = metrics.counter(
            "node_prewarms_total", "sandboxes spawned ahead of arrivals")

    # -- lifecycle ----------------------------------------------------------------
    def prepare(self):
        """Generator: record phase for every function (offline)."""
        for name, approach in self.approaches.items():
            profile = self.profiles[name]
            yield from approach.prepare(profile, generate_trace(profile, 0))
        if self.kernel.snapstore is not None:
            # Node-boot pre-placement: apply the spec's tier placement
            # (e.g. base-local keeps only the deduplicated base-image
            # chunks warm; everything else stages on first restore).
            self.kernel.snapstore.apply_placement()
        self.kernel.drop_caches()
        self.kernel.device.reset_stats()
        self.kernel.frames.reset_peak()
        self.prepared = True

    # -- request path -----------------------------------------------------------------
    def handle(self, arrival: Arrival):
        """Generator: serve one request; returns a RequestResult.

        Degradation ladder: an attempt that dies with EIO (a media error
        that survived every lower-layer retry) gets exactly one fresh
        cold-start retry; the optional ``request_deadline`` bounds the
        whole request, abandoning the in-flight attempt past it.  Either
        way a result is always returned — faults never crash the node.
        """
        if not self.prepared:
            raise RuntimeError("node.prepare() has not run")
        env = self.kernel.env
        self.keepalive.observe(arrival.function, env.now)
        profile = self.profiles[arrival.function]
        approach = self.approaches[arrival.function]
        trace = generate_trace(profile, arrival.input_seed)
        start = env.now

        retries = 0
        status = "ok"
        cold = False
        while True:
            info = {"cold": False}
            self._vm_seq += 1
            vm_id = f"{arrival.function}-{self._vm_seq}"
            attempt = env.process(
                self._attempt(arrival, profile, approach, trace, info,
                              vm_id, force_cold=retries > 0),
                name=f"attempt-{vm_id}")
            try:
                if self.request_deadline is not None:
                    remaining = max(0.0,
                                    start + self.request_deadline - env.now)
                    yield env.any_of([attempt, env.timeout(remaining)])
                    if not attempt.triggered:
                        # Deadline expired mid-attempt: report the
                        # timeout now; the attempt finishes (or fails,
                        # already defused) in the background.
                        status = "timeout"
                        cold = info["cold"]
                        break
                else:
                    yield attempt
                cold = info["cold"]
                break
            except IOError:
                cold = info["cold"]
                if retries >= 1:
                    status = "failed"
                    break
                retries += 1

        latency = env.now - start
        self._m_requests.inc()
        self._m_retries.inc(retries)
        (self._m_cold if cold else self._m_warm).inc()
        if status == "ok":
            self._m_completed.inc()
        elif status == "timeout":
            self._m_timeouts.inc()
        else:
            self._m_failures.inc()
        tracer = env.tracer
        if tracer is not None and tracer.enabled:
            tracer.complete(f"req {arrival.function}", "node", start,
                            end=env.now, track="node", cold=cold,
                            status=status, retries=retries)
        return RequestResult(function=arrival.function,
                             arrival_time=arrival.time, latency=latency,
                             cold=cold, input_seed=arrival.input_seed,
                             status=status, retries=retries)

    def _attempt(self, arrival: Arrival, profile: FunctionProfile,
                 approach: Approach, trace, info: dict, vm_id: str,
                 force_cold: bool = False):
        """Generator: one serving attempt, sandbox cleanup included (so
        an attempt abandoned at the deadline still parks or tears down
        its sandbox when it eventually finishes)."""
        env = self.kernel.env
        vm = None if force_cold else self.take(arrival.function)
        try:
            if vm is not None:
                info["cold"] = False
                start = env.now
                yield env.timeout(WARM_RESUME_SECONDS)
                vm._spawn_time = start
                yield from vm.invoke(trace)
            else:
                info["cold"] = True
                vm = yield from approach.spawn(profile, vm_id=vm_id)
                yield from vm.invoke(trace)
                approach.post_invoke(vm)
        except IOError:
            if vm is not None and not vm.space.dead:
                vm.teardown()
            raise
        self.park(arrival.function, vm)

    # -- warm pool ------------------------------------------------------------
    def _spawn_prewarmed(self, function: str):
        """Generator: restore a sandbox through the function's approach."""
        self._vm_seq += 1
        vm = yield from self.approaches[function].spawn(
            self.profiles[function],
            vm_id=f"{function}-prewarm-{self._vm_seq}")
        self._m_prewarms.inc()
        return vm

    def _teardown(self, vm: MicroVM) -> None:
        vm.teardown()

    # -- workload driver ----------------------------------------------------------------
    def run(self, arrivals: list[Arrival]) -> NodeReport:
        """Drive a full workload to completion; returns the report."""
        env = self.kernel.env
        if not self.prepared:
            env.run(env.process(self.prepare(), name="node-prepare"))
        processes = start_arrivals(env, arrivals, self.handle, env.now)
        env.run(env.all_of(processes))
        env.run()  # drain reapers

        return NodeReport(
            results=[p.value for p in processes],
            peak_memory_bytes=self.kernel.frames.peak_bytes)

    def snapshot_residency(self, function: str) -> int:
        """Pages of ``function``'s snapshot file resident in this host's
        page cache (the per-ino counters the memory plane keeps): what
        snapshot-locality routing reads."""
        snapshot = getattr(self.approaches.get(function), "snapshot", None)
        if snapshot is None:
            return 0
        return self.kernel.page_cache.cached_pages(snapshot.file.ino)

    def shutdown(self) -> int:
        """Take the host out of service: tear down every parked sandbox
        (warm pools expire immediately) and drop the page cache.

        Returns the number of resident pages discarded — the locality
        the fleet loses when this node goes away (the cluster plane
        counts it as rebalance evictions).  In-flight attempts finish in
        the background against the empty cache.
        """
        self.close_pool()
        if self.kernel.snapstore is not None:
            # Decommission the local tier and release this node's
            # snapshot references; chunks still referenced by other
            # nodes' manifests survive in the shared tiers (refcounted
            # GC reclaims only the last owner's bytes).
            self.kernel.snapstore.drop_local()
            self.kernel.snapstore.release_all()
        return self.kernel.drop_caches()
