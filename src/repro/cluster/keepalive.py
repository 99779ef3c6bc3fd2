"""Keep-alive policies: how long a warm sandbox stays parked.

The fixed warm-pool TTL every node used until now treats a function
invoked every 50 ms and one invoked every 30 s identically — wasteful
for the first, useless for the second.  Production platforms instead
learn per-function idle-time distributions and pick the keep-alive from
a percentile (Shahrad et al., *Serverless in the Wild*, the
histogram-policy FaaS scheduler Azure Functions shipped).

A :class:`KeepAlivePolicy` answers three questions for the node:

* ``observe(function, now)`` — an arrival happened; update state;
* ``ttl(function)`` — how long to park this function's sandbox after an
  invocation (``None`` = do not pool, tear down immediately);
* ``prewarm_at(function, now)`` — after a pool entry expires, when (if
  ever) to spawn a sandbox *ahead* of the predicted next arrival.

One policy instance is shared by every node in a fleet (and consulted
by the autoscaler for in-flight pre-warm load), so its view of a
function's arrival history is cluster-wide — matching a platform-level
scheduler, and keeping state O(functions), not O(nodes x functions).

A :class:`WarmPool` enforces those answers on one node: it parks,
takes, reaps and pre-warms sandboxes.  Both node models inherit it, the
page-level :class:`~repro.platform.node.FaaSNode` and the calibrated
replay :class:`~repro.cluster.traffic.TrafficNode`.

Determinism: policies are pure state machines over observed arrival
times; no RNG, no wall clock.  Equal arrival streams produce equal TTL
decisions whatever process replays them.
"""

from __future__ import annotations

from repro.metrics.registry import Histogram

#: Registry of policy names for ClusterSpec validation / CLI choices.
KEEPALIVE_POLICIES = ("fixed", "histogram")


class KeepAlivePolicy:
    """Base: per-function warm-pool TTL and pre-warm decisions."""

    #: Pre-warm processes currently scheduled (maintained by the nodes,
    #: read by the autoscaler as imminent load).
    pending_prewarms: int = 0
    #: End of the workload horizon; nodes set this so pre-warms are
    #: never scheduled past the last possible arrival.
    horizon: float | None = None

    def observe(self, function: str, now: float) -> None:
        """An arrival for ``function`` at sim-time ``now``."""

    def ttl(self, function: str) -> float | None:
        """Park duration after an invocation (``None`` = no pooling)."""
        raise NotImplementedError

    def prewarm_at(self, function: str, now: float) -> float | None:
        """After a pool expiry at ``now``: sim-time to pre-warm a
        sandbox for the predicted next arrival, or ``None``."""
        return None


class FixedTTLPolicy(KeepAlivePolicy):
    """The historic behavior: one TTL for every function, no pre-warm
    (``None`` disables pooling outright)."""

    def __init__(self, ttl: float | None):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self._ttl = ttl

    def ttl(self, function: str) -> float | None:
        return self._ttl


class HistogramKeepAlivePolicy(KeepAlivePolicy):
    """Per-function idle-time histograms choose TTL and pre-warm windows.

    Each arrival records the gap since the function's previous arrival
    in a bounded log2-bucket :class:`Histogram`.  After ``min_samples``
    gaps the TTL becomes the ``percentile``-th gap (clamped to
    ``[min_ttl, max_ttl]``): frequently-invoked functions get a pool
    that covers nearly all their gaps, rare functions stop hoarding
    sandboxes.  When the *typical* gap (p50) exceeds the TTL — the pool
    will lose the race — the policy instead pre-warms a sandbox just
    before the predicted next arrival (``margin`` early, bounded by the
    workload horizon).
    """

    def __init__(self, *, percentile: float = 99.0,
                 min_ttl: float = 0.25, max_ttl: float = 8.0,
                 default_ttl: float = 1.5, min_samples: int = 4,
                 prewarm: bool = True, margin: float = 0.1):
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], "
                             f"got {percentile}")
        if not 0 < min_ttl <= max_ttl:
            raise ValueError(f"need 0 < min_ttl <= max_ttl, "
                             f"got {min_ttl}..{max_ttl}")
        if default_ttl <= 0:
            raise ValueError("default_ttl must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0 <= margin < 1:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self.percentile = percentile
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.default_ttl = default_ttl
        self.min_samples = min_samples
        self.prewarm = prewarm
        self.margin = margin
        self._last_seen: dict[str, float] = {}
        self._gaps: dict[str, Histogram] = {}

    def _histogram(self, function: str) -> Histogram:
        hist = self._gaps.get(function)
        if hist is None:
            # Standalone (unregistered) histogram: lock-free, 1 ms base
            # covers gaps from 1 ms to ~12 days in 40 log2 buckets.
            hist = Histogram(f"keepalive_gap_{function}", base=1e-3)
            self._gaps[function] = hist
        return hist

    def observe(self, function: str, now: float) -> None:
        last = self._last_seen.get(function)
        if last is not None and now > last:
            self._histogram(function).observe(now - last)
        self._last_seen[function] = now

    def ttl(self, function: str) -> float | None:
        hist = self._gaps.get(function)
        if hist is None or hist.count < self.min_samples:
            return self.default_ttl
        # Upper-bound percentile clamped to the observed max: a function
        # arriving every g seconds exactly gets ttl == g (within clamp),
        # so the pool covers its steady state with zero slack.
        estimate = hist.percentile(self.percentile)
        return min(self.max_ttl, max(self.min_ttl, estimate))

    def prewarm_at(self, function: str, now: float) -> float | None:
        if not self.prewarm:
            return None
        hist = self._gaps.get(function)
        last = self._last_seen.get(function)
        if hist is None or last is None or hist.count < self.min_samples:
            return None
        typical = hist.percentile(50.0)
        current_ttl = self.ttl(function)
        if current_ttl is None or typical <= current_ttl:
            return None  # the pool already covers the typical gap
        when = last + typical * (1.0 - self.margin)
        if when <= now:
            return None  # prediction already in the past
        if self.horizon is not None and when >= self.horizon:
            return None  # past the last possible arrival
        return when

    # -- introspection -------------------------------------------------------
    def tracked_functions(self) -> int:
        return len(self._gaps)


class WarmPool:
    """One node's parked sandboxes, kept as its keep-alive policy says.

    A node model inherits the pool and brings how it spawns a pre-warmed
    sandbox (``_spawn_prewarmed``, a generator; an ``IOError`` abandons
    the pre-warm) and how it tears one down (``_teardown``).  Every park
    gets a fresh token, and its reaper tears down only that park: a
    sandbox taken and re-parked before the old TTL ran out is left
    alone.  A reap asks the policy whether to pre-warm.

    A base class, not a member object: a pool object holding its node's
    bound spawn and teardown methods would form a node <-> pool cycle,
    which only the cyclic collector frees.
    """

    #: ``take`` hands out the newest parked sandbox, or the oldest.
    take_newest: bool

    def __init__(self, env, keepalive: KeepAlivePolicy, functions=()):
        self.env = env
        self.keepalive = keepalive
        self._in_service = True
        #: function -> {park token: sandbox} in park order; functions
        #: named up front keep their order for ``close_pool``.
        self._pool: dict[str, dict] = {f: {} for f in functions}

    def take(self, function: str):
        """Remove and return a parked sandbox of ``function``, or None."""
        entries = self._pool.get(function)
        if not entries:
            return None
        if self.take_newest:
            return entries.popitem()[1]
        return entries.pop(next(iter(entries)))

    def park(self, function: str, sandbox, keep: bool = True) -> None:
        """Park ``sandbox`` for the policy's TTL, or tear it down if the
        policy does not pool or ``keep`` is false."""
        ttl = self.keepalive.ttl(function)
        if ttl is None or not keep:
            self._teardown(sandbox)
            return
        token = object()
        self._pool.setdefault(function, {})[token] = sandbox
        self.env.process(self._reap(function, token, ttl),
                         name=f"reaper-{function}")

    def _reap(self, function: str, token: object, ttl: float):
        yield self.env.timeout(ttl)
        entries = self._pool[function]
        if token in entries:
            self._teardown(entries.pop(token))
            self._maybe_prewarm(function)

    def _maybe_prewarm(self, function: str) -> None:
        """A pool entry expired: ask the policy whether (and when) to
        spawn a sandbox ahead of the predicted next arrival."""
        when = self.keepalive.prewarm_at(function, self.env.now)
        if when is None or not self._in_service:
            return
        self.keepalive.pending_prewarms += 1
        self.env.process(self._prewarm(function, when),
                         name=f"prewarm-{function}")

    def _prewarm(self, function: str, when: float):
        env = self.env
        try:
            yield env.timeout(max(0.0, when - env.now))
            if not self._in_service or self._pool.get(function):
                return  # shut down, or an arrival already re-parked
            try:
                sandbox = yield from self._spawn_prewarmed(function)
            except IOError:
                return  # media error: abandon the speculative spawn
            self.park(function, sandbox, keep=self._in_service)
        finally:
            self.keepalive.pending_prewarms -= 1

    def close_pool(self) -> None:
        """Take the pool out of service: tear down every parked sandbox
        and start no more pre-warms.  A request still in flight parks its
        sandbox as usual, and that park's reaper tears it down."""
        self._in_service = False
        for entries in self._pool.values():
            for sandbox in entries.values():
                self._teardown(sandbox)
            entries.clear()

    def pooled_sandboxes(self, function: str) -> int:
        return len(self._pool.get(function, ()))


def make_keepalive_policy(name: str, *, warm_pool_ttl: float | None = 1.5,
                          percentile: float = 99.0, min_ttl: float = 0.25,
                          max_ttl: float = 8.0, min_samples: int = 4,
                          prewarm: bool = True) -> KeepAlivePolicy:
    """Build a policy by registry name (ClusterSpec / CLI entry point)."""
    if name == "fixed":
        return FixedTTLPolicy(warm_pool_ttl)
    if name == "histogram":
        default = warm_pool_ttl if warm_pool_ttl is not None else 1.5
        return HistogramKeepAlivePolicy(
            percentile=percentile, min_ttl=min_ttl, max_ttl=max_ttl,
            default_ttl=default, min_samples=min_samples, prewarm=prewarm)
    raise ValueError(f"unknown keep-alive policy {name!r}; choose from "
                     f"{', '.join(KEEPALIVE_POLICIES)}")
