"""The aggregate Kernel object."""

from repro.mm.kernel import Kernel
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.units import GIB, MIB, PAGE_SIZE


def test_default_wiring():
    kernel = Kernel()
    assert kernel.frames.total_frames == 256 * GIB // PAGE_SIZE
    assert kernel.page_cache.frames is kernel.frames
    assert kernel.kprobes.kfuncs is kernel.kfuncs
    # The page cache declared its hook point.
    assert kernel.kprobes.hook(HOOK_ADD_TO_PAGE_CACHE).ctx_size == 16


def test_interpreter_clock_follows_env():
    kernel = Kernel()
    kernel.env.timeout(1.5)
    kernel.env.run()
    assert kernel.interpreter.time_ns() == int(1.5e9)


def test_memory_in_use(kernel):
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 4)
    kernel.env.run()
    assert kernel.memory_in_use_bytes() == 4 * PAGE_SIZE
    kernel.drop_caches()
    assert kernel.memory_in_use_bytes() == 0


def test_spawn_space_owner(kernel):
    assert kernel.spawn_space("x").owner == "x"
    auto = kernel.spawn_space()
    assert auto.owner.startswith("proc")


def test_run_passthrough(kernel):
    kernel.env.timeout(2.0)
    kernel.run(until=1.0)
    assert kernel.env.now == 1.0


#: The counters the block device, page cache and reclaim controller
#: create on the host registry.
LAYER_COUNTERS = (
    "device_requests_total", "device_read_requests_total",
    "device_write_requests_total", "device_bytes_read_total",
    "device_bytes_written_total", "device_sequential_requests_total",
    "device_errors_total", "device_transient_errors_total",
    "device_persistent_errors_total", "device_busy_seconds_total",
    "cache_adds_total", "cache_hits_total", "cache_misses_total",
    "cache_evictions_total", "cache_bpf_hook_seconds_total",
    "cache_io_retries_total", "cache_io_failures_total",
    "cache_ra_oom_aborts_total",
    "reclaim_scanned_total", "reclaim_reclaimed_total",
    "reclaim_kswapd_wakeups_total", "reclaim_direct_total",
    "reclaim_rotations_total", "reclaim_activations_total",
    "reclaim_promotions_total", "reclaim_demotions_total",
    "reclaim_policy_runs_total", "reclaim_policy_vetoes_total",
    "reclaim_hints_total", "reclaim_hint_keeps_total",
    "reclaim_stalls_total", "reclaim_stall_seconds_total",
    "reclaim_cpu_seconds_total",
)


def test_host_registry_publishes_every_layer_counter():
    """Each layer registers its counters on the one host registry when
    the kernel is built, as int 0: ``cache_hits_total`` and
    ``cache_misses_total`` too, which nothing increments but every
    stored result carries."""
    kernel = Kernel()
    assert kernel.metrics is kernel.device.registry
    snapshot = kernel.metrics.snapshot()
    published = {name: snapshot.get(name) for name in LAYER_COUNTERS}
    assert published == dict.fromkeys(LAYER_COUNTERS, 0)
    assert {type(value) for value in published.values()} == {int}
    assert snapshot["device_request_latency_seconds_count"] == 0
