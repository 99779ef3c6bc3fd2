"""Fleet autoscaling as a DES process.

The :class:`ClusterAutoscaler` evaluates the fleet every
``scale_interval`` simulated seconds: when mean in-flight load per
routable node exceeds ``target_inflight`` (and nothing is already
booting) it spawns one node — boot delay, then the record phase for
every function, all in simulated time — and when a node has been idle
for ``drain_idle_intervals`` consecutive evaluations it drains it
(unroutable, finishes in-flight work) and retires it once empty (warm
pools die, page cache discarded).

One boot at a time and one drain victim per evaluation keeps scaling
decisions a deterministic function of fleet state; the victim is the
*newest* idle node, so the stable core of the fleet (and its cache
residency) survives load dips.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.gateway import DRAINING, UP, ClusterNode, Gateway


class ClusterAutoscaler:
    """Periodic scale-up/scale-down controller for one gateway."""

    def __init__(self, env, gateway: Gateway,
                 spawn_node: Callable[[], ClusterNode], *,
                 on_node_ready: Callable[[ClusterNode], None] | None = None,
                 target_inflight: float = 4.0, min_nodes: int = 1,
                 max_nodes: int = 8, scale_interval: float = 0.5,
                 drain_idle_intervals: int = 4,
                 node_boot_seconds: float = 0.5, tracer=None,
                 keepalive=None):
        self.env = env
        self.gateway = gateway
        #: Builds a fresh (unprepared) node and registers it with the
        #: gateway in state BOOTING; the autoscaler drives its boot.
        self.spawn_node = spawn_node
        #: Finishes a boot (e.g. attaches eviction policies) and marks
        #: the node UP; defaults to just flipping the gateway state.
        self.on_node_ready = on_node_ready
        self.target_inflight = target_inflight
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.scale_interval = scale_interval
        self.drain_idle_intervals = drain_idle_intervals
        self.node_boot_seconds = node_boot_seconds
        self.tracer = tracer
        #: Shared :class:`~repro.cluster.keepalive.KeepAlivePolicy`: its
        #: pending pre-warms count as imminent load, so the fleet scales
        #: ahead of predicted arrivals instead of reacting to them.
        self.keepalive = keepalive
        self.scale_ups = 0
        self._booting = 0
        self._running = True
        self.process = env.process(self._loop(), name="autoscaler")

    def stop(self) -> None:
        """Let the loop wind down at its next evaluation."""
        self._running = False

    # -- control loop -------------------------------------------------------
    def _loop(self):
        while self._running:
            yield self.env.timeout(self.scale_interval)
            if not self._running:
                return
            self._evaluate()

    def _evaluate(self) -> None:
        gateway = self.gateway
        # Retire drained nodes whose last in-flight request finished.
        for cnode in [n for n in gateway.nodes.values()
                      if n.state == DRAINING and n.inflight == 0]:
            gateway.retire(cnode)

        up = gateway.routable_nodes()
        if not up:
            return
        live = len(gateway.live_nodes())
        pending = (self.keepalive.pending_prewarms
                   if self.keepalive is not None else 0)
        load = (sum(n.inflight for n in up) + pending) / len(up)

        if (load > self.target_inflight and self._booting == 0
                and live < self.max_nodes):
            self._booting += 1
            self.env.process(self._boot(), name="autoscaler-boot")
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.instant("scale-up", "cluster", self.env.now,
                                    track="autoscaler", load=load)
            return

        for cnode in up:
            cnode.idle_intervals = (cnode.idle_intervals + 1
                                    if cnode.inflight == 0 else 0)
        if len(up) > self.min_nodes:
            idle = [n for n in up
                    if n.idle_intervals >= self.drain_idle_intervals]
            if idle:
                victim = max(idle, key=lambda n: n.node_id)
                gateway.drain(victim)
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.instant("scale-down", "cluster",
                                        self.env.now, track="autoscaler",
                                        node=victim.name)

    def _boot(self):
        cnode = self.spawn_node()
        yield self.env.timeout(self.node_boot_seconds)
        yield from cnode.node.prepare()
        if self.on_node_ready is not None:
            self.on_node_ready(cnode)
        else:
            self.gateway.mark(cnode, UP)
        self.gateway._scale_ups.inc()
        self.scale_ups += 1
        self._booting -= 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(f"node-up {cnode.name}", "cluster",
                                self.env.now, track="autoscaler")
