"""Seeded fault schedules.

A :class:`FaultSchedule` owns one sub-seeded RNG stream per layer
(device, filestore, ebpf) plus a shared :class:`FaultStats` counter
block.  Because the simulation is a deterministic discrete-event system,
per-request draws happen in a reproducible order, so a whole chaos run
is a pure function of ``(workload seed, fault seed, config)``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates and severities for one schedule.

    Rates are per-opportunity probabilities (per device request, per
    snapshot-file read, per program attach); multipliers scale service
    times.  The default config injects nothing.
    """

    #: Probability that a device request fails with a media error.
    media_error_rate: float = 0.0
    #: Fraction of injected media errors that are persistent (the
    #: extent stays bad; retries see the same error).
    persistent_fraction: float = 0.0
    #: Probability that a request hits a latency spike.
    latency_spike_rate: float = 0.0
    #: Service-time multiplier applied to spiked requests.
    latency_spike_multiplier: float = 8.0
    #: Service-time multiplier applied to *every* request (degraded
    #: mode, e.g. a device doing background media scans).
    degraded_multiplier: float = 1.0
    #: Probability that a snapshot-file read surfaces a torn page.
    torn_page_rate: float = 0.0
    #: Probability that a BPF program attach fails.
    attach_failure_rate: float = 0.0
    #: If set, clamp requested BPF map capacities to this many entries.
    map_capacity_cap: int | None = None
    #: Probability that a kswapd wakeup stalls before scanning (the mm
    #: analogue of a latency spike: reclaim CPU stolen by other work).
    reclaim_stall_rate: float = 0.0
    #: Duration of one injected reclaim stall, in seconds.
    reclaim_stall_seconds: float = 500e-6
    #: Probability that a node is killed at one crash opportunity (the
    #: cluster plane rolls this per routable node per check interval;
    #: single-node runs never draw from the stream, so rate 0 keeps
    #: fingerprints byte-identical to earlier releases).
    node_crash_rate: float = 0.0
    #: Probability that one remote-object-store fetch returns an EIO
    #: (object-store 5xx).  Transient: the snapstore's retry/backoff
    #: ladder re-fetches, then degrades to a surviving tier if one holds
    #: the chunks.  Draws happen only in runs with a snapstore staging
    #: from the remote tier, so rate 0 keeps fingerprints byte-identical.
    remote_fetch_error_rate: float = 0.0
    #: Probability that one remote fetch stalls before being served
    #: (congested network path / slow storage frontend).
    remote_fetch_stall_rate: float = 0.0
    #: Duration of one injected remote-fetch stall, in seconds.
    remote_fetch_stall_seconds: float = 2e-3

    def __post_init__(self) -> None:
        for name in ("media_error_rate", "persistent_fraction",
                     "latency_spike_rate", "torn_page_rate",
                     "attach_failure_rate", "reclaim_stall_rate",
                     "node_crash_rate", "remote_fetch_error_rate",
                     "remote_fetch_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_spike_multiplier < 1.0:
            raise ValueError("latency_spike_multiplier must be >= 1")
        if self.degraded_multiplier < 1.0:
            raise ValueError("degraded_multiplier must be >= 1")
        if self.map_capacity_cap is not None and self.map_capacity_cap < 1:
            raise ValueError("map_capacity_cap must be >= 1")
        if self.reclaim_stall_seconds < 0.0:
            raise ValueError("reclaim_stall_seconds must be >= 0")
        if self.remote_fetch_stall_seconds < 0.0:
            raise ValueError("remote_fetch_stall_seconds must be >= 0")


#: The standard chaos mix: 1 % transient media errors, a few latency
#: spikes, and the odd torn snapshot page.  Deliberately *no* persistent
#: errors: a persistent fault marks the extent bad forever, and a bad
#: extent inside the one shared snapshot file makes every later cold
#: start of that function unservable — real deployments handle that by
#: re-replicating the snapshot, which is outside this model.  Persistent
#: faults stay available through :class:`FaultConfig` and the forcing
#: hooks for targeted tests.
DEFAULT_CHAOS = FaultConfig(
    media_error_rate=0.01,
    latency_spike_rate=0.02,
    latency_spike_multiplier=8.0,
    torn_page_rate=0.002,
)


@dataclass(frozen=True)
class ChaosSpec:
    """The serving phase of one chaos cell.

    Nested in :class:`~repro.harness.spec.ScenarioSpec` as ``chaos``: the
    scenario serves ``n_requests`` cold starts on one node, one every
    :data:`~repro.harness.chaos.REQUEST_INTERVAL` seconds, under
    ``FaultSchedule(fault_seed, config)`` installed after a clean record
    phase.  ``request_deadline`` bounds each request in seconds
    (``None`` = unbounded).
    """

    config: FaultConfig = DEFAULT_CHAOS
    fault_seed: int = 0
    n_requests: int = 8
    request_deadline: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, FaultConfig):
            raise TypeError(f"config must be a FaultConfig, "
                            f"got {type(self.config).__name__}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, "
                             f"got {self.n_requests}")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError(f"request_deadline must be positive or None, "
                             f"got {self.request_deadline}")

    def canonical(self) -> dict:
        return {"config": asdict(self.config),
                "fault_seed": self.fault_seed,
                "n_requests": self.n_requests,
                "request_deadline": self.request_deadline}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        data = dict(data)
        data["config"] = FaultConfig(**data["config"])
        return cls(**data)


@dataclass
class FaultStats:
    """Counters for everything the schedule injected."""

    media_errors: int = 0
    persistent_errors: int = 0
    latency_spikes: int = 0
    torn_pages: int = 0
    attach_failures: int = 0
    map_squeezes: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class FaultSchedule:
    """One seeded schedule with per-layer injectors.

    ``install(kernel)`` plugs the injectors into a kernel's device,
    file store, and kprobe manager; layers that were never installed
    simply run fault-free.
    """

    seed: int = 0
    config: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        # Deferred import: injectors pull in storage/ebpf error types.
        from repro.faults.injectors import (
            DeviceFaultInjector,
            EbpfFaultInjector,
            FileStoreFaultInjector,
            MemFaultInjector,
            NodeFaultInjector,
            RemoteFetchInjector,
        )

        self.stats = FaultStats()
        self.device = DeviceFaultInjector(
            self._stream("device"), self.config, self.stats)
        self.filestore = FileStoreFaultInjector(
            self._stream("filestore"), self.config, self.stats)
        self.ebpf = EbpfFaultInjector(
            self._stream("ebpf"), self.config, self.stats)
        self.mm = MemFaultInjector(
            self._stream("mm"), self.config, self.stats)
        self.node = NodeFaultInjector(
            self._stream("node"), self.config, self.stats)
        self.remote = RemoteFetchInjector(
            self._stream("remote"), self.config, self.stats)

    def _stream(self, layer: str) -> random.Random:
        """An independent, layer-local RNG derived from the seed."""
        return random.Random(f"faults:{self.seed}:{layer}")

    def install(self, kernel) -> "FaultSchedule":
        """Attach this schedule's injectors to a kernel's layers."""
        kernel.faults = self
        kernel.device.fault_injector = self.device
        kernel.filestore.fault_injector = self.filestore
        kernel.kprobes.fault_injector = self.ebpf
        reclaim = getattr(kernel, "reclaim", None)
        if reclaim is not None:
            reclaim.fault_injector = self.mm
        snapstore = getattr(kernel, "snapstore", None)
        if snapstore is not None:
            snapstore.fault_injector = self.remote
        # Publish the injection counters through the machine's registry
        # (``fault_*`` keys) so one snapshot covers the whole stack.  The
        # injectors keep owning the plain attributes; a collector is the
        # registry's view onto them.
        kernel.metrics.register_collector(
            lambda: {f"fault_{key}": value
                     for key, value in self.stats.snapshot().items()})
        return self
