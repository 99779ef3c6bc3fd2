"""Scenario runner.

One scenario = one cold-start measurement: build a fresh simulated host,
let the approach record the function's working set (offline), drop the
page cache and reset counters, then spawn ``n_instances`` sandboxes at
the same instant (the paper's concurrent-invocation setup, identical
inputs) and measure per-sandbox E2E latency and system-wide peak memory.
"""

from __future__ import annotations

from repro.baselines.base import Approach, approach_registry
from repro.harness.spec import ScenarioSpec, stable_hash
from repro.metrics.registry import MetricsRegistry
from repro.metrics.results import ScenarioResult
from repro.mm.costs import CostModel
from repro.mm.kernel import Kernel
from repro.sim import Environment
from repro.storage.hdd import HDDevice
from repro.storage.ssd import SSDevice
from repro.trace import Tracer
from repro.units import GIB, PAGE_SIZE
from repro.workloads.trace import generate_trace


def make_kernel(device_kind: str = "ssd", ram_bytes: int | None = None,
                costs: CostModel | None = None, *,
                env: Environment | None = None,
                tracer: Tracer | None = None) -> Kernel:
    """Fresh host with the requested storage device.

    ``ram_bytes`` follows :attr:`ScenarioSpec.ram_bytes`: ``None`` keeps
    the 256 GiB pool with the pressure plane off; an int sizes the frame
    pool and enables watermarks + kswapd (a memory-pressure host).
    A fleet's hosts share one ``env`` and one ``tracer``; by default the
    host gets its own.
    """
    if env is None:
        env = Environment()
    if device_kind == "ssd":
        device = SSDevice(env)
    elif device_kind == "hdd":
        device = HDDevice(env)
    else:
        raise ValueError(f"unknown device kind {device_kind!r}")
    kernel = Kernel(env=env, device=device,
                    ram_bytes=256 * GIB if ram_bytes is None else ram_bytes,
                    costs=costs, tracer=tracer)
    if ram_bytes is not None:
        kernel.reclaim.enable_watermarks()
    return kernel


def run_scenario(spec: ScenarioSpec, *,
                 kernel: Kernel | None = None) -> ScenarioResult:
    """Run one scenario described by a :class:`ScenarioSpec`.

    ``run_scenario(spec)`` is the only entrypoint; the historic
    ``run_scenario(profile, approach, n_instances=..., ...)`` kwargs
    form is gone.  The approach is ``spec.approach``'s registry class,
    constructed with ``spec.approach_params`` (the readahead window,
    FaaSnap's coalescing gap, the KVM CoW patch), so every variant is
    a hashable, cacheable spec.  One keyword-only escape hatch covers
    what a spec cannot express: ``kernel``, a pre-built (typically
    instrumented) host to run on instead of a fresh default one;
    unusable with cluster and chaos specs.

    ``spec.vary_inputs`` gives every concurrent instance a *different*
    input (trace seed), instead of the paper's identical-inputs setup —
    the varying-inputs deduplication study the paper leaves to future
    work.  The record phase always uses ``spec.input_seed``.
    """
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"run_scenario takes a ScenarioSpec (repro.harness.spec), "
            f"got {type(spec).__name__}; the legacy (profile, approach) "
            f"kwargs form was removed")
    if spec.cluster is not None or spec.chaos is not None:
        if kernel is not None:
            plane = "cluster" if spec.cluster is not None else "chaos"
            raise TypeError(f"{plane} scenarios build their own hosts; "
                            f"the kernel argument is not usable")
        # Deferred imports: both runners compose the platform stack on
        # top of this module's layer.
        if spec.chaos is not None:
            from repro.harness.chaos import run_chaos_scenario
            return run_chaos_scenario(spec)
        from repro.cluster.runner import run_cluster_scenario
        return run_cluster_scenario(spec)
    return _run_scenario(spec, kernel)


def _run_scenario(spec: ScenarioSpec,
                  kernel: Kernel | None) -> ScenarioResult:
    profile = spec.function
    n_instances = spec.n_instances
    input_seed = spec.input_seed
    if kernel is None:
        kernel = make_kernel(spec.device_kind, spec.ram_bytes, spec.costs)
    if spec.snapstore is not None and kernel.snapstore is None:
        from repro.snapstore import install_snapstore
        install_snapstore(kernel, spec.snapstore)
    env = kernel.env
    approach = approach_registry()[spec.approach](
        kernel, **dict(spec.approach_params))
    trace = generate_trace(profile, input_seed)

    # -- offline record phase -----------------------------------------------------
    prep_start = env.now
    prep = env.process(approach.prepare(profile, trace), name="prepare")
    env.run(prep)
    prepare_seconds = env.now - prep_start

    # -- cold-start reset ------------------------------------------------------------
    if kernel.snapstore is not None:
        # Place recorded chunks per the spec before measurement: 'local'
        # pins everything warm (the identity configuration), 'remote'
        # leaves every first access to stage over the network.
        kernel.snapstore.apply_placement()
    kernel.drop_caches()
    kernel.device.reset_stats()
    kernel.frames.reset_peak()
    kernel.reclaim.eviction_log.clear()
    if spec.evict_policy is not None:
        from repro.core.policies import attach_evict_policy
        attach_evict_policy(kernel, spec.evict_policy)
    cache_adds_before = kernel.page_cache.stats.adds
    hook_seconds_before = kernel.page_cache.stats.bpf_hook_seconds

    # -- timed concurrent invocations --------------------------------------------------
    vms: list = []

    def one_instance(index: int):
        start = env.now
        vm = yield from approach.spawn(profile, vm_id=f"vm{index}")
        vms.append(vm)
        instance_trace = trace
        if spec.vary_inputs and index > 0:
            instance_trace = generate_trace(profile, input_seed + index)
        stats = yield from vm.invoke(instance_trace)
        tracer = env.tracer
        if tracer is not None and tracer.enabled:
            # The per-instance E2E span (exactly e2e_seconds long) plus
            # its phase breakdown laid end-to-end beneath it — these are
            # the spans the trace-vs-result consistency test sums.
            track = f"vm{index}"
            tracer.complete(f"restore {track}", "restore", start,
                            dur=stats.e2e_seconds, track=track)
            t = start
            for phase, dur in stats.breakdown.items():
                tracer.complete(phase, "e2e", t, dur=dur, track=track)
                t += dur
        return stats

    processes = [env.process(one_instance(i), name=f"instance-{i}")
                 for i in range(n_instances)]
    done = env.all_of(processes)
    env.run(done)

    usage = kernel.frames.usage()
    result = ScenarioResult(
        function=profile.name,
        approach=approach.name,
        n_instances=n_instances,
        invocations=[p.value for p in processes],
        peak_memory_bytes=kernel.frames.peak_bytes,
        end_memory_bytes=kernel.memory_in_use_bytes(),
        end_anon_bytes=usage.anon * PAGE_SIZE,
        end_file_bytes=usage.file * PAGE_SIZE,
        device_requests=kernel.device.stats.requests,
        device_bytes_read=kernel.device.stats.bytes_read,
        device_bytes_written=kernel.device.stats.bytes_written,
        cache_adds=kernel.page_cache.stats.adds - cache_adds_before,
        bpf_hook_seconds=(kernel.page_cache.stats.bpf_hook_seconds
                          - hook_seconds_before),
        prepare_seconds=prepare_seconds,
        metrics=kernel.metrics.snapshot(),
        device_p50_latency=kernel.device.stats.p50_latency,
        device_p95_latency=kernel.device.stats.p95_latency,
        device_p99_latency=kernel.device.stats.p99_latency,
    )
    _collect_extras(approach, result)
    if kernel.snapstore is not None:
        result.extra.update(kernel.snapstore.result_extras())
    # Reclaim activity, surfaced only when the run actually evicted, so
    # unpressured runs keep their exact extras (identity contract).  The
    # digest fingerprints the full eviction *sequence*: two runs evicting
    # the same pages in a different order get different digests.
    eviction_log = kernel.reclaim.eviction_log
    if eviction_log:
        result.extra["reclaim_evictions"] = float(len(eviction_log))
        result.extra["reclaim_evict_digest"] = float(int(
            stable_hash([list(key) for key in eviction_log])[:12], 16))
    for vm in vms:
        approach.post_invoke(vm)
        vm.teardown()
    return result


def _collect_extras(approach: Approach, result: ScenarioResult) -> None:
    """Approach-specific metrics surfaced as result extras (the ablation
    figures read them)."""
    for attr, key in (
        ("working_set_pages", "ws_pages"),
        ("ws_file_pages", "ws_file_pages"),
        ("ws_pages_exact", "ws_pages_exact"),
        ("inflation_ratio", "inflation_ratio"),
        ("region_count", "region_count"),
        ("captured_pages", "captured_pages"),
        ("metadata_bytes", "metadata_bytes"),
    ):
        value = getattr(approach, attr, None)
        if value is not None:
            result.extra[key] = float(value)
    map_loads = getattr(approach, "map_load_seconds", None)
    if map_loads:
        result.extra["map_load_seconds"] = (
            sum(map_loads.values()) / len(map_loads))
    result.extra.update(degradation_extras(approach))


#: Fault-plane degradation counters an approach instance may expose.
DEGRADATION_COUNTERS = ("capture_attach_failures", "prefetch_fallbacks",
                        "prefetch_aborts", "demand_retries",
                        "demand_fetch_failures")


def degradation_extras(approach: Approach) -> dict[str, float]:
    """The approach's nonzero degradation counters, as result extras:
    surfaced only when something actually degraded, so fault-free runs
    keep their exact extras."""
    counters = {attr: getattr(approach, attr, 0)
                for attr in DEGRADATION_COUNTERS}
    return {attr: float(value) for attr, value in counters.items() if value}


class ResultCache:
    """Memoizes scenario runs across figure builders (3b and 3c share
    every run, for instance), keyed by :class:`ScenarioSpec`.

    Keying on the full spec fixes the historic collision where the key
    omitted ``costs`` and ``vary_inputs``: a cost-model ablation and the
    baseline run now occupy distinct entries.  An optional on-disk
    ``store`` (see :class:`repro.harness.sweep.ResultStore`) shares the
    same spec hash, so the in-memory and persistent caches can never
    disagree about identity.

    Hit/miss/execution counts are exported through a
    :class:`~repro.metrics.registry.MetricsRegistry` (``sweep_*``
    counters) — the sweep engine and CLI read throughput and hit ratio
    from there.
    """

    def __init__(self, store=None,
                 registry: MetricsRegistry | None = None) -> None:
        self._cache: dict[ScenarioSpec, ScenarioResult] = {}
        self.store = store
        self.metrics = registry or MetricsRegistry()
        self._requests = self.metrics.counter(
            "sweep_cache_requests_total", "scenario lookups")
        self._hits_memory = self.metrics.counter(
            "sweep_cache_hits_memory_total", "lookups served from memory")
        self._hits_disk = self.metrics.counter(
            "sweep_cache_hits_disk_total", "lookups served from the store")
        self._executed = self.metrics.counter(
            "sweep_scenarios_executed_total", "scenarios actually simulated")
        if store is not None and hasattr(store, "corrupt_entries"):
            # The store keeps a plain attribute (it may be shared across
            # worker processes and caches); publish it as a collector so
            # snapshots always see the live count.
            self.metrics.register_collector(lambda: {
                "store_corrupt_entries_total": float(store.corrupt_entries)})

    # -- counters (read by the sweep engine and tests) ----------------------
    @property
    def memory_hits(self) -> int:
        return int(self._hits_memory.value)

    @property
    def disk_hits(self) -> int:
        return int(self._hits_disk.value)

    @property
    def executed(self) -> int:
        return int(self._executed.value)

    # -- cache protocol -----------------------------------------------------
    def lookup(self, spec: ScenarioSpec) -> ScenarioResult | None:
        """Memory-then-store lookup; never executes a scenario."""
        result = self._cache.get(spec)
        if result is not None:
            self._hits_memory.inc()
            return result
        if self.store is not None:
            result = self.store.load_scenario(spec)
            if result is not None:
                self._hits_disk.inc()
                self._cache[spec] = result
                return result
        return None

    def insert(self, spec: ScenarioSpec, result: ScenarioResult,
               persist: bool = True) -> None:
        self._cache[spec] = result
        if persist and self.store is not None:
            self.store.save_scenario(spec, result)

    def record_execution(self, spec: ScenarioSpec,
                         result: ScenarioResult) -> None:
        """Insert a freshly simulated result, counting the execution
        (the sweep engine runs scenarios out-of-band, in workers)."""
        self._executed.inc()
        self.insert(spec, result)

    def get(self, spec: ScenarioSpec) -> ScenarioResult:
        """Cached scenario run, keyed by the spec."""
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"ResultCache.get takes a ScenarioSpec, got "
                f"{type(spec).__name__}; the legacy (profile, approach) "
                f"kwargs form was removed")
        self._requests.inc()
        result = self.lookup(spec)
        if result is None:
            result = run_scenario(spec)
            self._executed.inc()
            self.insert(spec, result)
        return result

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return spec in self._cache
