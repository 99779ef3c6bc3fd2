"""Pluggable request-routing policies for the cluster gateway.

A policy sees the fleet through duck-typed node handles exposing
``node_id`` (int, stable), ``inflight`` (requests currently on the
node), and ``snapshot_residency(function)`` (pages of the function's
snapshot file resident in that node's page cache — the per-ino counters
the memory plane keeps).  The gateway always passes the routable nodes
sorted by ``node_id``, so every policy is a deterministic function of
(seeded policy state, fleet state) and the same arrival stream replays
identically under any job count.

``snapshot-locality`` is the paper-motivated policy: consistent hashing
on the function name pins each function to a home node (so its snapshot
pages stay hot in exactly one page cache), with residency-aware
overflow — when the home node is saturated the request goes to whichever
other node already holds the most of this function's snapshot, because a
node that never saw the function is a guaranteed cold cache.
"""

from __future__ import annotations

import bisect
import hashlib
import random


class RoutingError(RuntimeError):
    """Raised when a route is requested with no routable nodes."""


def _point(text: str) -> int:
    """A stable 64-bit hash-ring point (sha256, not salted hash())."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class RoutingPolicy:
    """Base: pick one node handle from a non-empty sorted list."""

    name = "abstract"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def choose(self, function: str, nodes: list):
        raise NotImplementedError


class RandomRouting(RoutingPolicy):
    """Uniform random spraying (the locality-oblivious baseline)."""

    name = "random"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._rng = random.Random(f"route:{seed}:random")

    def choose(self, function: str, nodes: list):
        return nodes[self._rng.randrange(len(nodes))]


class RoundRobinRouting(RoutingPolicy):
    """Strict rotation over the current membership order."""

    name = "round-robin"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._next = 0

    def choose(self, function: str, nodes: list):
        node = nodes[self._next % len(nodes)]
        self._next += 1
        return node


class LeastLoadedRouting(RoutingPolicy):
    """Fewest in-flight requests; ties broken by lowest node id."""

    name = "least-loaded"

    def choose(self, function: str, nodes: list):
        return min(nodes, key=lambda n: (n.inflight, n.node_id))


class SnapshotLocalityRouting(RoutingPolicy):
    """Consistent hashing on function name with residency-aware overflow.

    Each node contributes :data:`VNODES` points to a sha256 ring; a
    function routes to the first point clockwise of its own hash, so
    membership changes only remap the functions whose arc moved.  When
    the home node already carries ``overflow_inflight`` or more requests
    the policy overflows to the node holding the most resident snapshot
    pages for this function (ties: least loaded, then lowest id).
    """

    name = "snapshot-locality"
    VNODES = 32

    def __init__(self, seed: int = 0, overflow_inflight: int = 8):
        super().__init__(seed)
        self.overflow_inflight = overflow_inflight
        self.overflow_routes = 0
        self._members: tuple[int, ...] = ()
        #: The node tuple the ring was last checked against: the gateway
        #: hands out the same tuple until its membership changes.
        self._nodes: tuple | None = None
        self._ring: list[tuple[int, int]] = []
        self._by_id: dict[int, object] = {}
        #: function -> its ring search key; ``_point`` is pure.
        self._keys: dict[str, tuple[int, float]] = {}

    def _rebuild(self, nodes: list) -> None:
        self._members = tuple(n.node_id for n in nodes)
        self._by_id = {n.node_id: n for n in nodes}
        self._ring = sorted(
            (_point(f"node:{node_id}:{replica}"), node_id)
            for node_id in self._members
            for replica in range(self.VNODES))

    def home(self, function: str, nodes: list):
        """The ring-preferred node for ``function`` (no overflow)."""
        if nodes is not self._nodes:
            if tuple(n.node_id for n in nodes) != self._members:
                self._rebuild(nodes)
            # Only a tuple is known not to change under the same object.
            self._nodes = nodes if type(nodes) is tuple else None
        key = self._keys.get(function)
        if key is None:
            key = self._keys[function] = (_point(f"fn:{function}"),
                                          float("inf"))
        index = bisect.bisect_right(self._ring, key)
        if index == len(self._ring):
            index = 0
        return self._by_id[self._ring[index][1]]

    def choose(self, function: str, nodes: list):
        home = self.home(function, nodes)
        if home.inflight < self.overflow_inflight or len(nodes) == 1:
            return home
        self.overflow_routes += 1
        others = [n for n in nodes if n.node_id != home.node_id]
        return max(others, key=lambda n: (n.snapshot_residency(function),
                                          -n.inflight, -n.node_id))


#: Policy name -> class, the registry the spec and CLI validate against.
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    RandomRouting.name: RandomRouting,
    RoundRobinRouting.name: RoundRobinRouting,
    LeastLoadedRouting.name: LeastLoadedRouting,
    SnapshotLocalityRouting.name: SnapshotLocalityRouting,
}


def make_routing_policy(name: str, seed: int = 0,
                        overflow_inflight: int = 8) -> RoutingPolicy:
    """Instantiate a policy by registry name."""
    try:
        cls = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; choose from "
            f"{', '.join(sorted(ROUTING_POLICIES))}") from None
    if cls is SnapshotLocalityRouting:
        return cls(seed=seed, overflow_inflight=overflow_inflight)
    return cls(seed=seed)
