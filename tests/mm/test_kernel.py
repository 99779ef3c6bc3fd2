"""The aggregate Kernel object."""

from repro.core.grouping import Group
from repro.core.kfuncs import register_snapbpf_kfunc
from repro.core.progs import (build_prefetch_program, load_groups,
                              make_groups_map, make_state_map)
from repro.mm.kernel import Kernel
from repro.mm.page_cache import HOOK_ADD_TO_PAGE_CACHE
from repro.units import GIB, MIB, PAGE_SIZE
from tests.conftest import collector_paused, cyclic_garbage


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


def test_close_with_io_in_flight_leaves_no_cyclic_garbage():
    """A host closed mid-run, with device requests queued and in
    service and a process parked on one, leaves nothing for the cyclic
    collector once its references are dropped."""
    with collector_paused():
        kernel = Kernel()
        file = kernel.filestore.create("f", MIB)
        reads = [kernel.filestore.read_pages(file, index, 1)
                 for index in range(file.size_pages)]

        def waiter():
            yield reads[-1]

        kernel.env.process(waiter())
        kernel.run(reads[0])
        assert kernel.device.queue_depth < len(reads)
        assert not reads[-1].processed
        kernel.close()
        del kernel, file, reads
        assert not cyclic_garbage()


def test_close_with_a_program_attached_leaves_no_cyclic_garbage():
    """A prefetch program still attached when its host closes (its
    sandbox never reached ``post_invoke``) holds the kfunc it calls,
    which closes over the kernel: close() detaches it."""
    with collector_paused():
        kernel = Kernel()
        register_snapbpf_kfunc(kernel)
        file = kernel.filestore.create("snap", MIB)
        groups = make_groups_map("groups", 1)
        load_groups(groups, [Group(start=0, count=8, first_access_ns=0)])
        kernel.kprobes.attach(HOOK_ADD_TO_PAGE_CACHE, build_prefetch_program(
            file.ino, groups, make_state_map("state")))
        kernel.close()
        del kernel, file, groups
        assert not cyclic_garbage()
