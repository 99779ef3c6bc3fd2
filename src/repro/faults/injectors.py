"""Per-layer fault injectors.

Each injector owns a layer-local RNG stream from the parent
:class:`~repro.faults.schedule.FaultSchedule` and a shared
:class:`~repro.faults.schedule.FaultStats` counter block.  Layers query
their injector at each fault opportunity (device request, snapshot-file
read, program attach, map creation); injectors also expose ``*_next``
forcing hooks so tests can stage exact fault sequences without relying
on rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.schedule import FaultConfig, FaultStats

#: Media-error kinds: a transient error clears on retry, a persistent
#: one marks the extent bad so every later overlapping request fails too.
TRANSIENT = "transient"
PERSISTENT = "persistent"


@dataclass(frozen=True)
class DeviceFaultDecision:
    """What the device should do with one request."""

    #: ``None`` for success, else :data:`TRANSIENT` or :data:`PERSISTENT`.
    error: str | None = None
    #: Service-time multiplier (degraded mode and/or latency spike).
    multiplier: float = 1.0
    #: Whether a latency spike was drawn (for stats attribution).
    spiked: bool = False


class DeviceFaultInjector:
    """Media errors and service-time degradation for a block device."""

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        #: Forced error kinds consumed before any rate draws (tests).
        self._forced: list[str] = []
        #: Byte extents that failed persistently: (offset, end) pairs.
        self.bad_extents: list[tuple[int, int]] = []

    def fail_next(self, n: int = 1, persistent: bool = False) -> None:
        """Force the next ``n`` requests to fail (FIFO with prior calls)."""
        self._forced.extend([PERSISTENT if persistent else TRANSIENT] * n)

    def _extent_bad(self, offset: int, end: int) -> bool:
        return any(offset < bad_end and bad_start < end
                   for bad_start, bad_end in self.bad_extents)

    def on_request(self, request) -> DeviceFaultDecision:
        """Decide one request's fate.  Exactly one RNG draw sequence per
        request regardless of outcome keeps the stream aligned across
        runs with the same seed."""
        cfg = self.config
        error: str | None = None
        if self._forced:
            error = self._forced.pop(0)
        elif self._extent_bad(request.offset, request.end):
            error = PERSISTENT
        elif cfg.media_error_rate and self.rng.random() < cfg.media_error_rate:
            error = PERSISTENT if (
                cfg.persistent_fraction
                and self.rng.random() < cfg.persistent_fraction
            ) else TRANSIENT
        multiplier = cfg.degraded_multiplier
        spiked = False
        if cfg.latency_spike_rate and self.rng.random() < cfg.latency_spike_rate:
            multiplier *= cfg.latency_spike_multiplier
            spiked = True
            self.stats.latency_spikes += 1
        if error == PERSISTENT:
            if not self._extent_bad(request.offset, request.end):
                self.bad_extents.append((request.offset, request.end))
            self.stats.persistent_errors += 1
        elif error == TRANSIENT:
            self.stats.media_errors += 1
        return DeviceFaultDecision(error=error, multiplier=multiplier,
                                   spiked=spiked)


class FileStoreFaultInjector:
    """Torn/corrupt snapshot pages: the device read succeeds but the
    payload fails integrity checking at the file-store layer."""

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        self._forced_tears = 0

    def tear_next(self, n: int = 1) -> None:
        """Force the next ``n`` reads to surface torn pages (tests)."""
        self._forced_tears += n

    def on_read(self, file, start_page: int, npages: int):
        """Return a ``TornPageError`` to inject, or ``None``."""
        torn = False
        if self._forced_tears > 0:
            self._forced_tears -= 1
            torn = True
        elif (self.config.torn_page_rate
                and self.rng.random() < self.config.torn_page_rate):
            torn = True
        if not torn:
            return None
        from repro.storage.filestore import TornPageError

        page = start_page + (self.rng.randrange(npages) if npages > 1 else 0)
        self.stats.torn_pages += 1
        return TornPageError(file.name, page)


class MemFaultInjector:
    """Reclaim stalls: kswapd wakes but loses the CPU before scanning.

    The injector keeps its own ``reclaim_stalls`` counter rather than a
    :class:`FaultStats` field (every chaos result's metrics carry each
    ``fault_*`` field), so chaos results of configs that never enable
    the pressure plane stay byte-identical to earlier releases.
    """

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        self._forced_stalls = 0
        #: Stalls injected so far (kswapd counts the ones it served in
        #: ``reclaim_stalls_total``).
        self.reclaim_stalls = 0

    def stall_next(self, n: int = 1) -> None:
        """Force the next ``n`` kswapd wakeups to stall (tests)."""
        self._forced_stalls += n

    def on_wakeup(self) -> float:
        """Seconds kswapd must stall before this wakeup's scan (0 = none).

        One RNG draw per wakeup whenever a rate is configured, so the
        stream stays aligned across runs regardless of outcomes."""
        stall = False
        if self._forced_stalls > 0:
            self._forced_stalls -= 1
            stall = True
        elif (self.config.reclaim_stall_rate
                and self.rng.random() < self.config.reclaim_stall_rate):
            stall = True
        if not stall:
            return 0.0
        self.reclaim_stalls += 1
        return self.config.reclaim_stall_seconds


class NodeFaultInjector:
    """Whole-node crashes for the cluster plane.

    Like :class:`MemFaultInjector`, the crash count lives here as a
    plain attribute rather than a :class:`FaultStats` field, so chaos
    results of single-node configs (whose metrics carry the FaultStats
    key set) stay byte-identical when the crash kind is inactive.
    """

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        self._forced_crashes = 0
        #: Crashes injected so far (surfaced via cluster_* metrics).
        self.node_crashes = 0

    def crash_next(self, n: int = 1) -> None:
        """Force the next ``n`` crash draws to fire (tests)."""
        self._forced_crashes += n

    def draw_crash(self) -> bool:
        """One crash opportunity (per node per crash-check tick).

        One RNG draw per opportunity whenever a rate is configured, so
        the stream stays aligned across runs regardless of outcomes."""
        crash = False
        if self._forced_crashes > 0:
            self._forced_crashes -= 1
            crash = True
        elif (self.config.node_crash_rate
                and self.rng.random() < self.config.node_crash_rate):
            crash = True
        if crash:
            self.node_crashes += 1
        return crash


@dataclass(frozen=True)
class RemoteFetchDecision:
    """What one remote-object-store fetch should suffer."""

    #: Inject an EIO after the transfer (object-store 5xx); transient,
    #: so the snapstore's retry ladder re-fetches.
    error: bool = False
    #: Seconds the fetch stalls before being served (0 = none).
    stall_seconds: float = 0.0


class RemoteFetchInjector:
    """Remote-fetch EIOs and latency stalls for the snapstore.

    Like :class:`MemFaultInjector`, the counters live here as plain
    attributes rather than :class:`FaultStats` fields, so chaos results
    of configs without a snapstore (whose metrics carry the FaultStats
    key set) stay byte-identical to earlier releases.
    """

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        self._forced_errors = 0
        self._forced_stalls = 0
        #: Faults injected so far (surfaced via snapstore counters).
        self.remote_fetch_errors = 0
        self.remote_fetch_stalls = 0

    def fail_next(self, n: int = 1) -> None:
        """Force the next ``n`` fetches to return an EIO (tests)."""
        self._forced_errors += n

    def stall_next(self, n: int = 1) -> None:
        """Force the next ``n`` fetches to stall (tests)."""
        self._forced_stalls += n

    def on_fetch(self) -> RemoteFetchDecision:
        """Decide one fetch's fate.  One RNG draw per configured rate
        per fetch, so the stream stays aligned across runs regardless
        of outcomes."""
        cfg = self.config
        error = False
        if self._forced_errors > 0:
            self._forced_errors -= 1
            error = True
        elif (cfg.remote_fetch_error_rate
                and self.rng.random() < cfg.remote_fetch_error_rate):
            error = True
        stall_seconds = 0.0
        stall = False
        if self._forced_stalls > 0:
            self._forced_stalls -= 1
            stall = True
        elif (cfg.remote_fetch_stall_rate
                and self.rng.random() < cfg.remote_fetch_stall_rate):
            stall = True
        if stall:
            stall_seconds = cfg.remote_fetch_stall_seconds
            self.remote_fetch_stalls += 1
        if error:
            self.remote_fetch_errors += 1
        return RemoteFetchDecision(error=error, stall_seconds=stall_seconds)


class EbpfFaultInjector:
    """BPF runtime failures: attach rejections and map-capacity caps."""

    def __init__(self, rng: random.Random, config: FaultConfig,
                 stats: FaultStats):
        self.rng = rng
        self.config = config
        self.stats = stats
        self._forced_attach_failures = 0

    def fail_next_attach(self, n: int = 1) -> None:
        """Force the next ``n`` attach attempts to fail (tests)."""
        self._forced_attach_failures += n

    def on_attach(self, hook_name: str, program) -> None:
        """Raise ``AttachError`` if this attach should fail."""
        fail = False
        if self._forced_attach_failures > 0:
            self._forced_attach_failures -= 1
            fail = True
        elif (self.config.attach_failure_rate
                and self.rng.random() < self.config.attach_failure_rate):
            fail = True
        if fail:
            from repro.ebpf.kprobe import AttachError

            self.stats.attach_failures += 1
            raise AttachError(
                f"injected attach failure on {hook_name!r} "
                f"for {getattr(program, 'name', program)!r}")

    def map_capacity(self, requested: int) -> int:
        """Clamp a requested map capacity to the configured cap."""
        cap = self.config.map_capacity_cap
        if cap is not None and requested > cap:
            self.stats.map_squeezes += 1
            return cap
        return requested
