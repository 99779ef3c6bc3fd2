"""Abstract block device with a fixed-depth hardware queue.

Requests are admitted into ``queue_depth`` concurrent service slots (SATA
NCQ-style); each slot serves one request for a device-specific service
time.  Subclasses implement :meth:`service_time`, which may depend on the
previous request's end offset (sequentiality) — that is the hook the HDD
model uses to penalize random I/O and the SSD model mostly ignores, which
is exactly the asymmetry SnapBPF's "metadata-only prefetch" design bets on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.registry import Histogram, MetricsRegistry
from repro.sim import Environment, Event, Resource, Timeout
from repro.sim.engine import URGENT
from repro.units import PAGE_SIZE

READ = "read"
WRITE = "write"

#: Request priorities: synchronous (fault-path) reads overtake queued
#: readahead/prefetch I/O, mirroring the block layer's REQ_RAHEAD
#: deprioritization.
PRIO_SYNC = 0
PRIO_READAHEAD = 10


@dataclass(slots=True)
class IORequest:
    """One block-layer request: a contiguous byte range on the device."""

    offset: int
    nbytes: int
    op: str = READ
    prio: int = PRIO_SYNC
    submit_time: float = 0.0
    complete_time: float = 0.0

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"request size must be positive, got {self.nbytes}")
        if self.offset < 0:
            raise ValueError(f"request offset must be >= 0, got {self.offset}")
        if self.op not in (READ, WRITE):
            raise ValueError(f"unknown op {self.op!r}")

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class BlockIOError(IOError):
    """A block request failed with a media error.

    ``transient`` distinguishes errors that may clear on retry from
    persistent ones (a bad extent keeps failing), which is what the
    page-cache retry policy keys on.
    """

    def __init__(self, request: "IORequest", transient: bool = True):
        kind = "transient" if transient else "persistent"
        super().__init__(f"{kind} I/O error on {request.op} "
                         f"[{request.offset}, {request.end})")
        self.request = request
        self.transient = transient



class DeviceStats:
    """Cumulative accounting used by the benchmarks (I/O amplification).

    A read-compatible facade over registry metrics: every counter the old
    dataclass exposed is still an attribute here, but the values live in
    the machine's :class:`~repro.metrics.registry.MetricsRegistry` so the
    harness can read all layers through one ``snapshot()``.  Per-request
    latency is a fixed log2-bucket :class:`Histogram` (O(1) memory per
    request instead of an unbounded list) with p50/p95/p99 accessors.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        c = registry.counter
        self._requests = c("device_requests_total")
        self._read_requests = c("device_read_requests_total")
        self._write_requests = c("device_write_requests_total")
        self._bytes_read = c("device_bytes_read_total")
        self._bytes_written = c("device_bytes_written_total")
        self._sequential = c("device_sequential_requests_total")
        self._errors = c("device_errors_total")
        self._transient_errors = c("device_transient_errors_total")
        self._persistent_errors = c("device_persistent_errors_total")
        self._busy_time = c("device_busy_seconds_total")
        #: Per-request wall latency, submission to completion.
        self.latency: Histogram = registry.histogram(
            "device_request_latency_seconds",
            help="per-request wall latency, queueing included")

    # -- recording (called by BlockDevice only) ----------------------------
    def record_success(self, request: IORequest, sequential: bool,
                       duration: float) -> None:
        self._requests.inc()
        self._busy_time.inc(duration)
        self.latency.observe(duration)
        if sequential:
            self._sequential.inc()
        if request.op == READ:
            self._read_requests.inc()
            self._bytes_read.inc(request.nbytes)
        else:
            self._write_requests.inc()
            self._bytes_written.inc(request.nbytes)

    def record_failure(self, duration: float, transient: bool) -> None:
        """Failed requests still occupied the device for their service
        time: charge busy time and latency, but none of the success
        counters (requests/bytes/sequential)."""
        self._errors.inc()
        (self._transient_errors if transient
         else self._persistent_errors).inc()
        self._busy_time.inc(duration)
        self.latency.observe(duration)

    # -- read-compatible counter views -------------------------------------
    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def read_requests(self) -> int:
        return self._read_requests.value

    @property
    def write_requests(self) -> int:
        return self._write_requests.value

    @property
    def bytes_read(self) -> int:
        return self._bytes_read.value

    @property
    def bytes_written(self) -> int:
        return self._bytes_written.value

    @property
    def sequential_requests(self) -> int:
        return self._sequential.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def transient_errors(self) -> int:
        return self._transient_errors.value

    @property
    def persistent_errors(self) -> int:
        return self._persistent_errors.value

    @property
    def busy_time(self) -> float:
        return self._busy_time.value

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    # -- latency percentiles (report columns) ------------------------------
    @property
    def p50_latency(self) -> float:
        return self.latency.percentile(50)

    @property
    def p95_latency(self) -> float:
        return self.latency.percentile(95)

    @property
    def p99_latency(self) -> float:
        return self.latency.percentile(99)

    def snapshot(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "sequential_requests": self.sequential_requests,
            "errors": self.errors,
            "busy_time": self.busy_time,
        }

    def reset(self) -> None:
        """Zero this device's metrics in place (other layers untouched)."""
        for metric in (self._requests, self._read_requests,
                       self._write_requests, self._bytes_read,
                       self._bytes_written, self._sequential, self._errors,
                       self._transient_errors, self._persistent_errors,
                       self._busy_time, self.latency):
            metric.reset()


class BlockDevice:
    """Base class: queue admission + stats; timing left to subclasses.

    Service is a two-stage pipeline: a serialized *controller/bus* stage
    (capacity 1 — this is what caps aggregate IOPS and bandwidth) followed
    by a *media* stage that runs in parallel across the ``queue_depth``
    slots (flash-plane access latency, or the mechanical seek for HDDs
    where ``queue_depth`` should be 1).
    """

    def __init__(self, env: Environment, capacity_bytes: int,
                 queue_depth: int = 32, name: str = "blk0",
                 registry: MetricsRegistry | None = None):
        if capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.env = env
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.queue_depth = queue_depth
        #: The machine-wide metrics registry; a standalone device (tests,
        #: examples) gets a private one, and the Kernel adopts whichever
        #: registry its device carries so all layers share it.
        self.registry = registry or MetricsRegistry()
        self.stats = DeviceStats(self.registry)
        self._slots = Resource(env, capacity=queue_depth)
        self._controller = Resource(env, capacity=1)
        self._last_end: int | None = None
        #: Fault plane hook (duck-typed; see repro.faults).  When set,
        #: each request is submitted to ``fault_injector.on_request``,
        #: whose decision can fail the request with a media error after
        #: its service time elapses and/or stretch its service time.
        self.fault_injector = None

    # -- subclass interface -------------------------------------------------
    def controller_time(self, request: IORequest) -> float:
        """Serialized per-request time (bus transfer + command overhead)."""
        raise NotImplementedError

    def media_time(self, request: IORequest, sequential: bool) -> float:
        """Per-slot media access time (parallel across the queue depth)."""
        raise NotImplementedError

    # -- submission -----------------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Submit a request; returns the completion event (value: request)."""
        if request.end > self.capacity_bytes:
            raise ValueError(
                f"request [{request.offset}, {request.end}) exceeds device "
                f"capacity {self.capacity_bytes}")
        request.submit_time = self.env.now
        return self._serve(request)

    def read(self, offset: int, nbytes: int) -> Event:
        return self.submit(IORequest(offset, nbytes, READ))

    def write(self, offset: int, nbytes: int) -> Event:
        return self.submit(IORequest(offset, nbytes, WRITE))

    def _serve(self, request: IORequest) -> Event:
        """Start serving ``request`` at the current time; returns the
        event that fires (URGENT) when it completes or fails."""
        return _Service(self, request).done

    def _trace_request(self, request: IORequest, start: float,
                       sequential: bool, failed: bool) -> None:
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.complete(
                f"{request.op} {request.nbytes}B", "device", start,
                end=self.env.now, track=self.name, offset=request.offset,
                nbytes=request.nbytes, prio=request.prio,
                sequential=sequential, error=failed)

    # -- misc -----------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the device counters in place (the stats object survives)."""
        self.stats.reset()

    @property
    def pages_capacity(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} {self.name} "
                f"cap={self.capacity_bytes} qd={self.queue_depth}>")


class _Service:
    """One request in flight, served without a DES process.

    Each stage is a bound method appended to the one event it waits
    on: the start event (URGENT, at submit), the queue-slot grant, the
    controller grant, the controller timeout and the media timeout.
    The last stage fires ``done`` (URGENT) with the request, or fails
    it with :class:`BlockIOError`.  These are the events, priorities
    and scheduling order a generator process serving the request would
    produce, so the simulation is the same event for event.
    """

    __slots__ = ("device", "request", "done", "start", "decision",
                 "multiplier", "slot", "ctrl", "sequential")

    def __init__(self, device: BlockDevice, request: IORequest):
        self.device = device
        self.request = request
        self.done = Event(device.env)
        begin = Event(device.env)
        begin.callbacks.append(self.begin)
        begin.succeed(priority=URGENT)

    def begin(self, _event: Event) -> None:
        device, request = self.device, self.request
        self.start = device.env.now
        injector = device.fault_injector
        decision = self.decision = (injector.on_request(request)
                                    if injector is not None else None)
        self.multiplier = (decision.multiplier if decision is not None
                           else 1.0)
        slot = self.slot = device._slots.request(priority=request.prio)
        slot.callbacks.append(self.admitted)

    def admitted(self, _slot: Event) -> None:
        ctrl = self.ctrl = self.device._controller.request(
            priority=self.request.prio)
        ctrl.callbacks.append(self.transfer)

    def transfer(self, _ctrl: Event) -> None:
        device, request = self.device, self.request
        self.sequential = device._last_end == request.offset
        device._last_end = request.end
        Timeout(device.env, device.controller_time(request)
                * self.multiplier).callbacks.append(self.transferred)

    def transferred(self, _timeout: Event) -> None:
        device = self.device
        device._controller.release(self.ctrl)
        Timeout(device.env, device.media_time(self.request, self.sequential)
                * self.multiplier).callbacks.append(self.finish)

    def finish(self, _timeout: Event) -> None:
        device, request = self.device, self.request
        device._slots.release(self.slot)
        request.complete_time = device.env.now
        duration = request.complete_time - self.start
        decision = self.decision
        failed = decision is not None and decision.error is not None
        device._trace_request(request, self.start, self.sequential, failed)
        if failed:
            transient = decision.error != "persistent"
            device.stats.record_failure(duration, transient)
            self.done.fail(BlockIOError(request, transient=transient),
                           priority=URGENT)
            return
        device.stats.record_success(request, self.sequential, duration)
        self.done.succeed(request, priority=URGENT)
