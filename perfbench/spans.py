"""Host-time spans for the benchmark's traced run.

The traced run wraps each layer's public entry points from outside the
program (nothing under ``src/`` changes).  Every wrapped call records a
span with a name, start, end and parent; a generator entry point records
one span per *resumption*, so time a DES coroutine spends running is
charged to the layer whose code runs, not to the engine that resumed it.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed per layer as spans close, because a
restore sweep closes tens of millions of spans; only the first
``keep`` spans are stored for the trace file written at the end.  Summed
over every span, self time telescopes to the time covered by root
spans, so ``wall - covered_s`` is exactly the time no layer accounts
for (``unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

#: Entry points per layer: (layer, module, attribute path).  Approach
#: classes and kfuncs are added by :meth:`Instrumentation.install`,
#: because they are found through registries.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Environment.step"),
    ("sim", "repro.sim.engine", "Environment.process"),
    ("mm", "repro.mm.address_space", "AddressSpace.handle_fault"),
    ("mm", "repro.mm.page_cache", "PageCache.lookup"),
    ("mm", "repro.mm.page_cache", "PageCache.add_to_page_cache_lru"),
    ("mm", "repro.mm.page_cache", "PageCache.populate"),
    ("mm", "repro.mm.page_cache", "PageCache.read_range"),
    ("mm", "repro.mm.page_cache", "PageCache.page_cache_ra_unbounded"),
    ("mm", "repro.mm.page_cache", "PageCache.drop_caches"),
    ("mm", "repro.mm.frames", "FrameAllocator.alloc"),
    ("mm", "repro.mm.frames", "FrameAllocator.free"),
    ("reclaim", "repro.mm.reclaim", "ReclaimController.shrink"),
    ("reclaim", "repro.mm.reclaim", "ReclaimController.direct_reclaim"),
    ("reclaim", "repro.mm.reclaim", "ReclaimController._kswapd_loop"),
    ("kvm", "repro.kvm.kvm", "KVM.nested_fault"),
    ("kvm", "repro.kvm.vcpu", "VCpu.run_trace"),
    ("kvm", "repro.kvm.vcpu", "VCpu._touch_range"),
    ("guest", "repro.guest.kernel", "GuestKernel.alloc_pages"),
    ("guest", "repro.guest.kernel", "GuestKernel.free_pages"),
    ("vmm", "repro.vmm.microvm", "MicroVM.invoke"),
    ("vmm", "repro.vmm.builder", "SnapshotBuilder.build"),
    ("ebpf", "repro.ebpf.kprobe", "KprobeManager.fire"),
    ("ebpf", "repro.ebpf.kprobe", "KprobeManager.fire_verdict"),
    ("ebpf", "repro.ebpf.kprobe", "KprobeManager.attach"),
    ("ebpf", "repro.ebpf.interp", "Interpreter.run"),
    ("storage", "repro.storage.device", "BlockDevice.submit"),
    ("storage", "repro.storage.device", "BlockDevice._serve"),
    ("storage", "repro.storage.filestore", "FileStore.read_pages"),
    ("storage", "repro.storage.filestore", "FileStore.write_pages"),
    ("snapstore", "repro.snapstore.store", "SnapStore.record"),
    ("snapstore", "repro.snapstore.store", "SnapStore.record_derived"),
    ("snapstore", "repro.snapstore.store", "SnapStore.plan_read"),
    ("snapstore", "repro.snapstore.store", "SnapStore.stage"),
    ("snapstore", "repro.snapstore.store", "SnapStore._fetch"),
    ("snapstore", "repro.snapstore.store", "SnapStore.apply_placement"),
    ("cluster", "repro.cluster.gateway", "Gateway.route"),
    ("cluster", "repro.cluster.gateway", "Gateway.submit"),
    ("cluster", "repro.cluster.keepalive", "FixedTTLPolicy.ttl"),
    ("cluster", "repro.cluster.keepalive", "HistogramKeepAlivePolicy.observe"),
    ("cluster", "repro.cluster.keepalive", "HistogramKeepAlivePolicy.ttl"),
    ("cluster", "repro.cluster.keepalive",
     "HistogramKeepAlivePolicy.prewarm_at"),
    ("cluster", "repro.cluster.traffic", "calibrate_service_times"),
    ("cluster", "repro.cluster.traffic", "TrafficNode.prepare"),
    ("cluster", "repro.cluster.traffic", "TrafficNode.handle"),
    ("cluster", "repro.cluster.autoscaler", "ClusterAutoscaler._loop"),
    ("platform", "repro.platform.node", "FaaSNode.prepare"),
    ("platform", "repro.platform.node", "FaaSNode.handle"),
    ("workloads", "repro.workloads.trace", "generate_trace"),
    ("workloads", "repro.workloads.traffic", "traffic_functions"),
    ("workloads", "repro.workloads.traffic", "TrafficProcess.invocations"),
    ("metrics", "repro.metrics.registry", "Counter.inc"),
    ("metrics", "repro.metrics.registry", "Gauge.set"),
    ("metrics", "repro.metrics.registry", "Gauge.inc"),
    ("metrics", "repro.metrics.registry", "Histogram.observe"),
    ("metrics", "repro.metrics.registry", "MetricsRegistry.snapshot"),
    ("harness", "repro.harness.sweep", "ResultStore.save_scenario"),
)

#: Entry points whose return value classifies the call as a hit.
OUTCOMES = {
    "mm.PageCache.lookup": lambda entry: entry is not None and entry.uptodate,
}

#: Approach methods wrapped besides every generator method (the
#: prefetchers and fault handlers an approach runs as DES processes).
APPROACH_METHODS = ("prepare", "spawn", "post_invoke")


class SpanRecorder:
    """Collects spans and aggregates self and inclusive time per name.

    ``clock`` is injectable so tests can drive synthetic timelines.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 20_000):
        self.clock = clock
        self.keep = keep
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        #: Calls whose return value matched the name's OUTCOMES predicate.
        self.hits: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        #: Stored spans: [name id, start, end, parent index or -1].
        self.spans: list[list] = []
        self._ids: dict[str, int] = {}
        #: [time inside root spans, spans not stored].
        self._totals = [0.0, 0]
        self.push, self.pop = self._hooks()

    @property
    def covered_s(self) -> float:
        """Time inside root spans (spans opened with nothing open)."""
        return self._totals[0]

    @property
    def dropped(self) -> int:
        return self._totals[1]

    def _hooks(self):
        """``push(nid)``/``pop()`` as closures over locals: they run
        around every traced call, so attribute lookups matter."""
        clock, keep, spans, totals = (self.clock, self.keep, self.spans,
                                      self._totals)
        self_s, incl_s = self.self_s, self.incl_s
        stack: list[list] = []

        def push(nid: int) -> None:
            start = clock()
            if len(spans) < keep:
                index = len(spans)
                spans.append([nid, start, start,
                              stack[-1][3] if stack else -1])
            else:
                index = -1
                totals[1] += 1
            stack.append([nid, start, 0.0, index])

        def pop() -> None:
            end = clock()
            nid, start, child, index = stack.pop()
            duration = end - start
            self_s[nid] += duration - child
            incl_s[nid] += duration
            if stack:
                stack[-1][2] += duration
            else:
                totals[0] += duration
            if index >= 0:
                spans[index][2] = end

        return push, pop

    def entry(self, layer: str, name: str) -> int:
        """Id for span name ``name`` charged to ``layer``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.hits.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return nid

    # -- wrappers -----------------------------------------------------------
    def wrap(self, layer: str, name: str, fn):
        """``fn`` wrapped to record a span per call, or per resumption of
        the generator it returns when it is a generator function."""
        nid = self.entry(layer, name)
        calls, push, pop = self.calls, self.push, self.pop
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[nid] += 1
                return self.resumptions(nid, fn(*args, **kwargs))
            return traced_generator

        outcome = OUTCOMES.get(name)
        if outcome is not None:
            hits = self.hits

            @functools.wraps(fn)
            def classified(*args, **kwargs):
                calls[nid] += 1
                push(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop()
                if outcome(result):
                    hits[nid] += 1
                return result
            return classified

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            push(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        return traced

    def resumptions(self, nid: int, generator):
        """Drive ``generator`` with one span around each resumption."""
        push, pop = self.push, self.pop
        send, throw = generator.send, generator.throw
        value = error = None
        while True:
            push(nid)
            try:
                target = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                pop()
            try:
                value, error = (yield target), None
            except BaseException as exc:  # delivered into the generator
                value, error = None, exc

    # -- reports ------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, seconds in zip(self.layers, self.self_s):
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def named(self, values: list) -> dict[str, float]:
        return dict(zip(self.names, values))

    def write_chrome_trace(self, path) -> None:
        """Stored spans in chrome://tracing "complete event" form."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": self.names[nid], "cat": self.layers[nid],
                   "ph": "X", "pid": 0, "tid": 0,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"parent": parent}}
                  for nid, start, end, parent in self.spans]
        with open(path, "w") as fp:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped}}, fp)


class Instrumentation:
    """Installs a recorder's wrappers into the loaded ``repro`` modules
    and restores the originals on :meth:`uninstall`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, layer: str, name: str) -> None:
        original = owner.__dict__[attr]
        wrapped = self.recorder.wrap(layer, name, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            # Module functions are also bound by name in importers.
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and module.__name__.startswith("repro")
                        and module.__dict__.get(attr) is original):
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> "Instrumentation":
        for layer, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._patch(owner, attr, layer, f"{layer}.{path}")
        self._install_approaches()
        self._install_kfuncs()
        return self

    def _install_approaches(self) -> None:
        from repro.baselines.base import approach_registry
        seen: set[type] = set()
        for approach in approach_registry().values():
            for cls in approach.__mro__:
                module = cls.__module__
                if cls in seen or not module.startswith(
                        ("repro.baselines", "repro.core")):
                    continue
                seen.add(cls)
                layer = "core" if module.startswith("repro.core") \
                    else "baselines"
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (
                            attr in APPROACH_METHODS
                            or inspect.isgeneratorfunction(fn)):
                        self._patch(cls, attr, layer,
                                    f"{layer}.{cls.__name__}.{attr}")

    def _install_kfuncs(self) -> None:
        """kfuncs are bound into compiled programs when registered, so
        the registry's ``register`` wraps each one on the way in."""
        from repro.ebpf.kfunc import KfuncRegistry
        original = KfuncRegistry.register
        recorder = self.recorder

        def register(registry, name, func, *args, **kwargs):
            traced = recorder.wrap("core", f"core.kfunc.{name}", func)
            return original(registry, name, traced, *args, **kwargs)

        self._undo.append((KfuncRegistry, "register", original))
        KfuncRegistry.register = register

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
