"""The cluster front end: routes requests onto a fleet of FaaS nodes.

The gateway owns the fleet membership (:class:`ClusterNode` wraps one
:class:`~repro.platform.node.FaaSNode` with routing state), applies one
pluggable :class:`~repro.cluster.routing.RoutingPolicy` per run, and
absorbs node crashes: a request whose node dies mid-flight is
re-routed — with a fresh attempt — to a surviving node, so faults
degrade latency, never lose requests.

A request's record is the node's: :meth:`Gateway.submit` writes its own
latency (routing waits and reroutes included), the serving node's id
and the reroute count onto the
:class:`~repro.platform.node.RequestResult` the node returned, and
builds a record only for a request no node could take ("unroutable").

Determinism: nodes are kept in an insertion-ordered dict keyed by a
monotonically assigned ``node_id``; routable listings are sorted by id;
in-flight processes are tracked in lists (insertion order), so crash
interrupts deliver in a reproducible order.  All cluster-level counters
live in one :class:`~repro.metrics.registry.MetricsRegistry` separate
from the per-node kernel registries.
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry
from repro.platform.node import FaaSNode, RequestResult
from repro.platform.workload import Arrival
from repro.sim import Environment, Interrupt

from repro.cluster.routing import RoutingError, RoutingPolicy

#: Node lifecycle states.
BOOTING = "booting"     # spawned, record phase not finished
UP = "up"               # routable
DRAINING = "draining"   # unroutable, finishing in-flight requests
RETIRED = "retired"     # drained and torn down
CRASHED = "crashed"     # killed mid-run

#: How long a request waits between route attempts when no node is
#: routable (e.g. every survivor crashed and a replacement is booting),
#: and how long it keeps trying before giving up as "unroutable".
ROUTE_RETRY_SECONDS = 0.05
ROUTE_WAIT_LIMIT = 30.0


class ClusterNode:
    """One fleet member: a FaaSNode plus the gateway's routing state."""

    def __init__(self, node_id: int, node: FaaSNode, state: str = UP):
        self.node_id = node_id
        #: Set once: ``node_id`` never changes.
        self.name = f"node{node_id}"
        self.node = node
        self.state = state
        self.inflight = 0
        self.served = 0
        #: Consecutive autoscaler evaluations with zero in-flight work.
        self.idle_intervals = 0
        #: In-flight handle() processes, insertion-ordered, so a crash
        #: interrupts them in a reproducible order.
        self.procs: list = []

    @property
    def routable(self) -> bool:
        return self.state == UP

    @property
    def live(self) -> bool:
        return self.state in (BOOTING, UP, DRAINING)

    def snapshot_residency(self, function: str) -> int:
        """Pages of ``function``'s snapshot resident on this node, as
        the node model counts them."""
        return self.node.snapshot_residency(function)


class Gateway:
    """Routes an arrival stream onto the fleet under one policy."""

    def __init__(self, env: Environment, policy: RoutingPolicy,
                 registry: MetricsRegistry | None = None, tracer=None):
        self.env = env
        self.policy = policy
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer
        self.nodes: dict[int, ClusterNode] = {}
        self._next_id = 0
        #: The routable nodes in id order, rebuilt on every membership
        #: or state change (see routable_nodes()).
        self._routable: tuple[ClusterNode, ...] = ()
        #: (time, routable node count) after every membership/state change.
        self.node_timeline: list[tuple[float, float]] = []

        m = self.registry
        self._requests = m.counter(
            "cluster_requests_total", "requests submitted to the gateway")
        self._routes = m.counter(
            "cluster_routes_total", "routing decisions taken")
        self._cold = m.counter(
            "cluster_cold_starts_total", "requests served by a cold start")
        self._warm = m.counter(
            "cluster_warm_starts_total", "requests served from a warm pool")
        self._timeouts = m.counter(
            "cluster_request_timeouts_total", "requests past their deadline")
        self._failures = m.counter(
            "cluster_request_failures_total",
            "requests failed (EIO ladder exhausted or unroutable)")
        self._reroutes = m.counter(
            "cluster_crash_reroutes_total",
            "requests re-routed after their node crashed")
        self._crashes = m.counter(
            "cluster_node_crashes_total", "nodes killed by the fault plane")
        self._scale_ups = m.counter(
            "cluster_scale_ups_total", "nodes added by the autoscaler")
        self._scale_downs = m.counter(
            "cluster_scale_downs_total", "nodes retired by the autoscaler")
        self._rebalance_evictions = m.counter(
            "cluster_rebalance_evictions_total",
            "resident pages discarded by node drain/retire")
        self._nodes_gauge = m.gauge(
            "cluster_nodes", "currently routable nodes")
        self._latency = m.histogram(
            "cluster_request_latency_seconds", "gateway-observed E2E latency")

    # -- membership ---------------------------------------------------------
    def add_node(self, node: FaaSNode, state: str = UP) -> ClusterNode:
        cnode = ClusterNode(self._next_id, node, state=state)
        self._next_id += 1
        self.nodes[cnode.node_id] = cnode
        self._record_membership()
        return cnode

    def routable_nodes(self) -> tuple[ClusterNode, ...]:
        """The routable nodes in id order.  A new tuple replaces the old
        one on every membership or state change and none is ever
        mutated, so a caller may keep iterating one it was handed."""
        return self._routable

    def live_nodes(self) -> list[ClusterNode]:
        return [n for n in self.nodes.values() if n.live]

    def mark(self, cnode: ClusterNode, state: str) -> None:
        cnode.state = state
        self._record_membership()

    def topology(self) -> dict:
        """Every node's id, name, state, in-flight and served counts,
        plus the node count per state: the serve hub's fleet view."""
        counts: dict[str, int] = {}
        nodes = []
        for cnode in self.nodes.values():
            counts[cnode.state] = counts.get(cnode.state, 0) + 1
            nodes.append({"id": cnode.node_id, "name": cnode.name,
                          "state": cnode.state,
                          "inflight": cnode.inflight,
                          "served": cnode.served})
        return {"nodes": nodes, "counts": counts}

    def _record_membership(self) -> None:
        self._routable = tuple(n for n in self.nodes.values() if n.routable)
        count = len(self._routable)
        self.node_timeline.append((self.env.now, float(count)))
        self._nodes_gauge.set(count)

    # -- lifecycle events ---------------------------------------------------
    def crash(self, cnode: ClusterNode) -> None:
        """Kill a node: fail its in-flight requests (their waiters
        re-route) and discard its sandbox/page-cache state."""
        self.mark(cnode, CRASHED)
        self._crashes.inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(f"crash {cnode.name}", "cluster",
                                self.env.now, track="gateway",
                                inflight=cnode.inflight)
        for proc in list(cnode.procs):
            if proc.is_alive:
                proc.interrupt("node-crash")
        cnode.node.shutdown()

    def drain(self, cnode: ClusterNode) -> None:
        """Stop routing to a node; it finishes its in-flight requests."""
        self.mark(cnode, DRAINING)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(f"drain {cnode.name}", "cluster",
                                self.env.now, track="gateway")

    def retire(self, cnode: ClusterNode) -> None:
        """Tear down a drained node: warm pools die, caches are dropped
        (counted as rebalance evictions — that state must be rebuilt
        elsewhere)."""
        self.mark(cnode, RETIRED)
        dropped = cnode.node.shutdown()
        self._rebalance_evictions.inc(dropped)
        self._scale_downs.inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(f"retire {cnode.name}", "cluster",
                                self.env.now, track="gateway",
                                evicted_pages=dropped)

    # -- request path -------------------------------------------------------
    def route(self, function: str) -> ClusterNode:
        """One routing decision over the currently routable nodes."""
        nodes = self._routable
        if not nodes:
            raise RoutingError("no routable nodes")
        chosen = self.policy.choose(function, nodes)
        self._routes.inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(f"route {function}", "cluster",
                                self.env.now, track="gateway",
                                node=chosen.name,
                                inflight=chosen.inflight)
        return chosen

    def submit(self, arrival: Arrival):
        """Generator: serve one request; returns its RequestResult.

        ``arrival`` needs only a ``time`` and a ``function`` (an
        ``Arrival``, or a traffic ``Invocation`` as it is).  A crash of
        the serving node surfaces here as an
        :class:`~repro.sim.Interrupt`; the request then re-routes (a
        fresh cold attempt) to a survivor.  If the whole fleet is
        momentarily unroutable the request polls until a node comes up
        or the wait limit expires.
        """
        env = self.env
        start = env.now
        self._requests.inc()
        reroutes = 0
        while True:
            try:
                cnode = self.route(arrival.function)
            except RoutingError:
                if env.now - start >= ROUTE_WAIT_LIMIT:
                    self._failures.inc()
                    return RequestResult(
                        function=arrival.function,
                        arrival_time=arrival.time,
                        latency=env.now - start, cold=False,
                        # An Invocation has none; a replay node says 0.
                        input_seed=getattr(arrival, "input_seed", 0),
                        status="unroutable", reroutes=reroutes)
                yield env.timeout(ROUTE_RETRY_SECONDS)
                continue
            cnode.inflight += 1
            proc = env.process(cnode.node.handle(arrival),
                               name=f"{cnode.name}-{arrival.function}")
            cnode.procs.append(proc)
            try:
                result = yield proc
            except Interrupt:
                reroutes += 1
                self._reroutes.inc()
                continue
            finally:
                cnode.inflight -= 1
                try:
                    cnode.procs.remove(proc)
                except ValueError:
                    pass
            break

        cnode.served += 1
        latency = env.now - start
        self._latency.observe(latency)
        (self._cold if result.cold else self._warm).inc()
        if result.status == "timeout":
            self._timeouts.inc()
        elif result.status == "failed":
            self._failures.inc()
        # The node built this record for this request alone.
        result.latency = latency
        result.node_id = cnode.node_id
        result.reroutes = reroutes
        return result

    # -- end-of-run ---------------------------------------------------------
    def finalize(self) -> None:
        """Publish derived end-of-run gauges."""
        cold = self._cold.value
        warm = self._warm.value
        ratio = cold / (cold + warm) if cold + warm else 0.0
        self.registry.gauge(
            "cluster_cold_start_ratio",
            "cold starts / served requests at end of run").set(ratio)
        overflow = getattr(self.policy, "overflow_routes", 0)
        self.registry.gauge(
            "cluster_locality_overflow_routes",
            "snapshot-locality routes that overflowed the home node"
        ).set(overflow)
