"""One fleet build-out for both fleet drivers.

``run_cluster`` (page-level :class:`~repro.platform.node.FaaSNode`
hosts) and ``run_traffic`` (:class:`~repro.cluster.traffic.TrafficNode`
replaying calibrated service times) run the same fleet around different
nodes: one shared DES environment and tracer, one cluster registry, the
spec's routing policy behind a :class:`~repro.cluster.gateway.Gateway`,
one fleet-wide keep-alive policy, the serve hub's wiring, ``n_nodes``
staged through their record phases, the optional autoscaler, and the
drain-and-finalize tail.  :class:`Fleet` is that build-out; a driver
brings its node factory (plus an optional hook run as each node comes
up), its arrivals and its report.
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry
from repro.sim import Environment
from repro.trace import Tracer

from repro.cluster.autoscaler import ClusterAutoscaler
from repro.cluster.gateway import BOOTING, UP, Gateway
from repro.cluster.keepalive import make_keepalive_policy
from repro.cluster.routing import make_routing_policy


class Fleet:
    """The environment, gateway and control plane of one fleet run."""

    def __init__(self, spec, tracer: Tracer | None = None, telemetry=None):
        cspec = self.cspec = spec.cluster
        self.env = env = Environment()
        if tracer is None:  # not ``or``: a Tracer with no spans is falsy
            tracer = Tracer()
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.gateway = Gateway(
            env, make_routing_policy(
                cspec.policy, seed=spec.input_seed,
                overflow_inflight=cspec.overflow_inflight),
            registry=self.registry, tracer=tracer)
        # One keep-alive policy for the whole fleet (platform-level view of
        # arrival history); nodes park/pre-warm through it, the autoscaler
        # reads its pending pre-warms as imminent load.
        self.keepalive = make_keepalive_policy(
            cspec.keepalive, warm_pool_ttl=cspec.warm_pool_ttl,
            percentile=cspec.keepalive_percentile,
            min_ttl=cspec.keepalive_min_ttl, max_ttl=cspec.keepalive_max_ttl,
            min_samples=cspec.keepalive_min_samples, prewarm=cspec.prewarm)
        self.autoscaler: ClusterAutoscaler | None = None
        #: Cleared once the workload is done and the fleet drains.
        self.running = True
        self.phase = (f"traffic:{cspec.keepalive}" if cspec.traffic
                      is not None else f"cluster:{cspec.policy}")
        self.telemetry = telemetry
        if telemetry is not None:
            env.telemetry = telemetry
            telemetry.attach_registry(self.registry)
            telemetry.attach_tracer(tracer)
            telemetry.attach_fleet_provider(self.gateway.topology)
            telemetry.attach_engine(env)
            telemetry.flush(phase=self.phase)

    def stage(self, build_node, on_ready=None) -> float:
        """Boot the initial ``n_nodes`` (record phases run before any
        traffic) and start the autoscaler.  ``build_node()`` makes one
        unprepared node; ``on_ready(node)`` runs as each node, initial
        or autoscaled, finishes its record phase.  Returns the workload's
        base time.

        Neither callable may hold the Fleet itself: the autoscaler keeps
        both, and a Fleet -> autoscaler -> callable -> Fleet cycle leaves
        the whole finished fleet to the cyclic garbage collector instead
        of freeing it when the run returns.  The fleet pins in
        ``tests/integration/test_result_digests.py`` run with the
        collector paused and fail on any such cycle."""
        env, gateway, cspec = self.env, self.gateway, self.cspec

        def spawn():
            return gateway.add_node(build_node(), state=BOOTING)

        def ready(cnode) -> None:
            if on_ready is not None:
                on_ready(cnode.node)
            gateway.mark(cnode, UP)

        for _ in range(cspec.n_nodes):
            cnode = spawn()
            env.run(env.process(cnode.node.prepare(),
                                name=f"prepare-{cnode.name}"))
            ready(cnode)
        if cspec.autoscale:
            self.autoscaler = ClusterAutoscaler(
                env, gateway, spawn, on_node_ready=ready,
                target_inflight=cspec.target_inflight,
                min_nodes=cspec.min_nodes, max_nodes=cspec.max_nodes,
                scale_interval=cspec.scale_interval,
                drain_idle_intervals=cspec.drain_idle_intervals,
                node_boot_seconds=cspec.node_boot_seconds,
                tracer=self.tracer, keepalive=self.keepalive)
        base = env.now
        duration = (cspec.traffic.duration if cspec.traffic is not None
                    else cspec.duration)
        self.keepalive.horizon = base + duration
        return base

    def drain(self, done) -> None:
        """Run until the workload's ``done`` event, stop the control
        loops, drain what is left (reapers, pre-warms, in-flight boots,
        final control ticks) and set the gateway's end-of-run gauges."""
        self.env.run(done)
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self.running = False
        self.env.run()
        self.gateway.finalize()

    def publish(self) -> None:
        """The serve hub's final publish, after the driver's rollups."""
        if self.telemetry is not None:
            self.telemetry.publish(sim_time=self.env.now, force=True,
                                   phase=f"{self.phase} done")
