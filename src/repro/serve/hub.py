"""TelemetryHub: the serve plane's versioned snapshot bus.

The hub sits between the simulation/sweep thread (the *publisher*) and
the HTTP server threads (the *consumers*).  Publishers push cheap
section updates — sweep progress, fleet topology, the current sim time —
and the hub assembles them, together with a locked copy of the metrics
registry and a bounded ring of recent trace spans, into an immutable
versioned state snapshot.  Consumers only ever read a fully-built
snapshot under the hub lock, so a scrape can never observe a
half-updated histogram or a torn topology list.

Observation-only, same standard as the tracer: nothing in the simulation
reads the hub, a run with no hub attached pays one ``is None`` check per
event, and enabling it changes no figure output, chaos result, or
store key (identity-tested).

Two throttles bound the publish cost:

* ``sim_interval`` — the DES engine calls :meth:`on_sim_event` on every
  event; snapshots are only rebuilt every so many *simulated* seconds.
* ``wall_interval`` — section updates (e.g. one per finished sweep cell)
  are coalesced: a rebuild happens at most every so many *wall* seconds,
  except for forced flushes (run start/end).

``state_path`` additionally persists each published snapshot as an
atomically-replaced JSON file — the attach surface: a separate
``repro serve --attach`` process watches that file and serves the same
dashboard without touching the running sweep.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

from repro.metrics.registry import Histogram, MetricsRegistry

#: Version tag of the state-snapshot JSON schema (bump on breaking
#: changes; ``repro serve --attach`` refuses newer files).
SERVE_SCHEMA = 1

#: Histogram percentiles surfaced in the ``histograms`` section.
PERCENTILES = (50, 95, 99)


def span_to_dict(span) -> dict:
    """One trace span as the JSON shape the dashboard renders."""
    out = {"name": span.name, "cat": span.cat, "ph": span.ph,
           "ts": span.ts, "dur": span.dur, "track": span.track}
    if span.args:
        out["args"] = span.args
    return out


class TelemetryHub:
    """Thread-safe, versioned state bus between one run and its servers.

    Every mutation happens under one condition variable; consumers block
    in :meth:`wait_for_newer` and are woken on each published version.
    Snapshots are immutable once built — :meth:`state` hands out the
    current dict by reference and the next rebuild replaces, never
    mutates, it.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer=None, *, span_ring: int = 64,
                 sim_interval: float = 0.25, wall_interval: float = 0.5,
                 state_path: str | Path | None = None):
        if span_ring < 0:
            raise ValueError(f"span_ring must be >= 0, got {span_ring}")
        if sim_interval <= 0 or wall_interval < 0:
            raise ValueError("intervals must be positive")
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._registry = registry
        self._tracer = tracer
        self._fleet_provider: Callable[[], dict] | None = None
        self._snapstore_provider: Callable[[], dict] | None = None
        self._engine = None
        self._tenant_counts: dict[int, int] | None = None
        #: (wall monotonic, events_processed, invocations) at the last
        #: snapshot build — the deltas behind the live rates.
        self._last_throughput: tuple[float, int, float] | None = None
        self.span_ring = span_ring
        self.sim_interval = sim_interval
        self.wall_interval = wall_interval
        self.state_path = Path(state_path) if state_path else None
        self._version = 0
        self._state: dict | None = None
        self._phase = ""
        self._sim_time = 0.0
        self._sweep: dict = {}
        self._next_sim = 0.0    # only the sim thread reads/writes this
        self._next_wall = 0.0

    # -- wiring (publisher side) --------------------------------------------
    def attach_registry(self, registry: MetricsRegistry) -> None:
        with self._lock:
            self._registry = registry

    def attach_tracer(self, tracer) -> None:
        with self._lock:
            self._tracer = tracer

    def attach_fleet_provider(self, provider: Callable[[], dict]) -> None:
        """``provider()`` is called at snapshot-build time on the
        publisher's thread; it must return a fresh dict each call."""
        with self._lock:
            self._fleet_provider = provider

    def attach_snapstore_provider(self, provider: Callable[[], dict]) -> None:
        """``provider()`` is called at snapshot-build time on the
        publisher's thread; it returns the snapshot store's tier
        occupancy (dedup factor, per-tier bytes, per-node stores) for
        the dashboard's tiering tiles."""
        with self._lock:
            self._snapstore_provider = provider

    def attach_engine(self, engine) -> None:
        """Expose a DES :class:`~repro.sim.Environment`'s progress: its
        ``events_processed`` counter and a wall-delta events/sec rate
        appear in the snapshot's ``throughput`` section."""
        with self._lock:
            self._engine = engine
            self._last_throughput = None

    def attach_tenant_counts(self, counts: dict[int, int]) -> None:
        """Live per-tenant request counters (the traffic runner mutates
        the dict in place; the hub reads it at snapshot-build time)."""
        with self._lock:
            self._tenant_counts = counts

    # -- publication (publisher side) ---------------------------------------
    def on_sim_event(self, now: float) -> None:
        """DES engine hook: called after every processed event.  Cheap
        until ``sim_interval`` simulated seconds have passed."""
        if now < self._next_sim:
            return
        self._next_sim = now + self.sim_interval
        self.publish(sim_time=now)

    def update_sweep(self, **fields) -> None:
        """Merge sweep-progress fields and publish (wall-throttled)."""
        with self._cond:
            self._sweep.update(fields)
            self._publish_locked(force=False)

    def publish(self, *, phase: str | None = None,
                sim_time: float | None = None, force: bool = False) -> None:
        with self._cond:
            if phase is not None:
                self._phase = phase
            if sim_time is not None:
                self._sim_time = sim_time
            self._publish_locked(force=force)

    def flush(self, phase: str | None = None) -> None:
        """Force a publish past the wall throttle (run start/end)."""
        self.publish(phase=phase, force=True)

    def feed_state(self, state: dict) -> None:
        """Attach mode: adopt a whole snapshot read from a state file.

        The local version stays monotonic even if the file regresses
        (e.g. the watched run restarted from scratch).
        """
        with self._cond:
            self._version = max(self._version + 1,
                                int(state.get("version", 0)))
            state = dict(state)
            state["version"] = self._version
            self._state = state
            self._sweep = dict(state.get("sweep", {}))
            self._cond.notify_all()

    def kick(self) -> None:
        """Wake every waiting consumer without publishing (shutdown)."""
        with self._cond:
            self._cond.notify_all()

    def _publish_locked(self, force: bool) -> None:
        now = time.monotonic()
        if not force and now < self._next_wall:
            return
        self._next_wall = now + self.wall_interval
        self._version += 1
        self._state = self._build_state_locked()
        self._cond.notify_all()
        if self.state_path is not None:
            self._write_state_locked()

    def _build_state_locked(self) -> dict:
        state = {
            "schema": SERVE_SCHEMA,
            "version": self._version,
            "wall_time": time.time(),
            "sim_time": self._sim_time,
            "phase": self._phase,
            "metrics": {},
            "histograms": {},
            "sweep": dict(self._sweep),
            "fleet": {},
            "snapstore": {},
            "throughput": {},
            "spans": [],
            "spans_dropped": 0,
        }
        engine = self._engine
        if engine is not None:
            now = time.monotonic()
            events = engine.events_processed
            invocations = 0.0
            per_tenant: dict[str, float] = {}
            counts = self._tenant_counts
            if counts is not None:
                for tenant in sorted(counts):
                    per_tenant[str(tenant)] = float(counts[tenant])
                invocations = float(sum(counts.values()))
            events_rate = 0.0
            inv_rate = 0.0
            last = self._last_throughput
            if last is not None and now > last[0]:
                dt = now - last[0]
                events_rate = max(0.0, (events - last[1]) / dt)
                inv_rate = max(0.0, (invocations - last[2]) / dt)
            self._last_throughput = (now, events, invocations)
            state["throughput"] = {
                "events_processed": events,
                "events_per_sec": events_rate,
                "invocations": invocations,
                "invocations_per_sec": inv_rate,
                "tenants": per_tenant,
            }
        registry = self._registry
        if registry is not None:
            with registry.lock:
                state["metrics"] = registry.snapshot()
                for name in registry.names():
                    metric = registry.get(name)
                    if isinstance(metric, Histogram):
                        state["histograms"][name] = {
                            "count": metric.count,
                            "sum": metric.sum,
                            "mean": metric.mean,
                            "max": metric.max,
                            **{f"p{p}": metric.percentile(p)
                               for p in PERCENTILES},
                        }
        provider = self._fleet_provider
        if provider is not None:
            state["fleet"] = provider()
        provider = self._snapstore_provider
        if provider is not None:
            state["snapstore"] = provider()
        tracer = self._tracer
        if tracer is not None:
            state["spans"] = [span_to_dict(s)
                              for s in tracer.recent(self.span_ring)]
            state["spans_dropped"] = tracer.dropped
        return state

    def _write_state_locked(self) -> None:
        """Atomic write (temp + replace), same discipline as the result
        store: an attached reader can never see a torn snapshot."""
        path = self.state_path
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fp:
                json.dump(self._state, fp, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- consumption (server side) ------------------------------------------
    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def state(self) -> dict:
        """The latest published snapshot (never mutated after build);
        an empty pre-first-publish hub returns a minimal stub."""
        with self._lock:
            if self._state is None:
                return {"schema": SERVE_SCHEMA, "version": 0,
                        "phase": self._phase, "metrics": {},
                        "histograms": {}, "sweep": {}, "fleet": {},
                        "snapstore": {}, "throughput": {}, "spans": [],
                        "spans_dropped": 0,
                        "sim_time": 0.0, "wall_time": time.time()}
            return self._state

    def wait_for_newer(self, version: int,
                       timeout: float | None = None) -> dict | None:
        """Block until a snapshot newer than ``version`` is published;
        returns it, or None on timeout / bare wakeup (shutdown kick)."""
        with self._cond:
            if self._version > version and self._state is not None:
                return self._state
            self._cond.wait(timeout)
            if self._version > version and self._state is not None:
                return self._state
            return None

    def scrape(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``.

        Live mode renders the attached registry (typed, locked); attach
        mode re-renders the last snapshot's flat metrics as untyped
        samples — still spec-valid for scrapers.
        """
        registry = self._registry
        if registry is not None:
            return registry.text_exposition()
        metrics = self.state().get("metrics", {})
        lines = []
        for name in sorted(metrics):
            lines.append(f"# TYPE {name} untyped")
            lines.append(f"{name} {metrics[name]:g}")
        return "\n".join(lines) + ("\n" if lines else "")


class StateFileWatcher:
    """Attach-mode feeder: polls a state file published by a running
    sweep (``--serve-state``) and feeds each new snapshot into a hub.

    Tolerant by design — a missing file (the run has not started yet),
    a torn read raced with the atomic replace, or a newer schema just
    skip the poll; the watcher keeps serving the last good snapshot.
    """

    def __init__(self, path: str | Path, hub: TelemetryHub,
                 interval: float = 0.5):
        self.path = Path(path)
        self.hub = hub
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_stamp: tuple | None = None

    def poll_once(self) -> bool:
        """Read the file if it changed; returns True when fed."""
        try:
            stat = self.path.stat()
        except OSError:
            return False
        stamp = (stat.st_mtime_ns, stat.st_size)
        if stamp == self._last_stamp:
            return False
        try:
            state = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(state, dict):
            return False
        if state.get("schema", 0) > SERVE_SCHEMA:
            return False
        self._last_stamp = stamp
        self.hub.feed_state(state)
        return True

    def _run(self) -> None:
        while not self._stop.is_set():
            self.poll_once()
            self._stop.wait(self.interval)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-attach",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
