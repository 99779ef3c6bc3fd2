"""Exact results, pinned per fault path.

The simulator is deterministic, so a scenario's serialized result and
its DES event count are exact functions of its spec.  These pins catch
a one-byte divergence anywhere on the page-fault path, which is what a
host-time optimisation must never cause: a changed digest means the
change altered what is simulated, not just how fast.

One small cell per fault path:

* linux-ra: file-backed mapping with readahead;
* linux-nora x2: sync faults only, two sandboxes sharing the cache;
* pv-ptes: mirrored-gPFN PV faults;
* reap: userfaultfd installs;
* faasnap: per-region working-set mappings;
* snapbpf x2: capture hook, prefetch kfunc, shared page cache;
* snapbpf x2 under pressure: watermarks on, kswapd and direct reclaim;
* linux-ra x2 under pressure: the reclaim scan's LRU pass (rotations,
  activations, refills from the active list);
* linux-ra x2 under pressure, protect-head: the policy pass (eBPF
  verdicts, vetoes, candidates parked until the sort);
* linux-ra x2 remote: snapshot chunks staged from the remote tier.

Three more cells pin the fleet path, which the page-level cells never
reach:

* traffic: gateway, snapshot-locality routing with overflow, histogram
  keep-alive with pre-warm, autoscaling up and down, and the seeded
  arrival stream (calibration included);
* cluster x2: the page-level fleet (two kernels in one environment)
  behind the same gateway;
* cluster autoscale store: a page-level fleet that boots a node through
  the autoscaler, attaches an eviction policy on every boot, shares
  one snapshot store across nodes and runs kswapd on each node.

Three chaos cells pin the fault plane's serving path: json served by
one node under the standard fault mix (fault seed 7), for snapbpf,
linux-ra and reap.

Two fleet paths are pinned outside ``run_scenario``: the node crasher
(the fault plane's ``FaultConfig`` passed to ``run_cluster``), by its
report's fingerprint, and the service times ``calibrate_service_times``
measures for every approach, bit for bit.

A pin changes only with a declared model change, which re-derives it
from ``run_scenario`` output.

The digest is taken before the measured sandboxes are torn down, so
each cell also checks frame accounting after teardown: no anonymous
frame survives, every file frame in use is a cached page, and no cached
frame is still mapped.

Every cell here also runs with the cyclic garbage collector paused, as
a sweep runs it, and must leave nothing for the collector: once a run
has closed its hosts (``Kernel.close``) and the test has dropped its
own references, reference counting has freed everything.  A reference
cycle anywhere in a finished run fails the cell with the types of the
objects it left behind.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ScenarioSpec, run_scenario
from repro.baselines.base import approach_registry
from repro.cluster.runner import run_cluster
from repro.cluster.spec import ClusterSpec
from repro.cluster.traffic import calibrate_service_times
from repro.faults import ChaosSpec, FaultConfig
from repro.harness.experiment import make_kernel
from repro.harness.figures import pressure_ram_bytes
from repro.sim import Environment
from repro.snapstore.spec import SnapStoreSpec
from repro.units import MIB
from repro.workloads.profile import FunctionProfile, profile_by_name
from repro.workloads.traffic import TrafficSpec
from tests.conftest import collector_paused, cyclic_garbage

#: json scaled down (a third of its working set), so every cell is quick.
SMALL = FunctionProfile(
    name="digest-small", mem_bytes=128 * MIB, ws_bytes=12 * MIB,
    alloc_bytes=4 * MIB, compute_seconds=0.05, write_frac=0.12,
    run_len_mean=8.0, seed=11)

SPECS = {
    "linux-ra": ScenarioSpec(SMALL, "linux-ra"),
    "linux-nora x2": ScenarioSpec(SMALL, "linux-nora", n_instances=2),
    "pv-ptes": ScenarioSpec(SMALL, "pv-ptes"),
    "reap": ScenarioSpec(SMALL, "reap"),
    "faasnap": ScenarioSpec(SMALL, "faasnap"),
    "snapbpf x2": ScenarioSpec(SMALL, "snapbpf", n_instances=2),
    "snapbpf x2 pressure": ScenarioSpec(
        SMALL, "snapbpf", n_instances=2,
        ram_bytes=pressure_ram_bytes(SMALL, "snapbpf", 2, 0.25)),
    "linux-ra x2 pressure": ScenarioSpec(
        SMALL, "linux-ra", n_instances=2,
        ram_bytes=pressure_ram_bytes(SMALL, "linux-ra", 2, 0.25)),
    "linux-ra x2 pressure protect-head": ScenarioSpec(
        SMALL, "linux-ra", n_instances=2,
        ram_bytes=pressure_ram_bytes(SMALL, "linux-ra", 2, 0.25),
        evict_policy="protect-head"),
    "linux-ra x2 remote": ScenarioSpec(
        SMALL, "linux-ra", n_instances=2,
        snapstore=SnapStoreSpec(placement="remote")),
}

#: label -> (sha256 of ScenarioResult.to_json(), DES events processed).
PINS = {
    "linux-ra": (
        "38156810f71bc20530dfe19b214bb8a4d0b296e8fb3783f14230e29d10a23d13",
        17355),
    "linux-nora x2": (
        "db79051fdb749d288b4d3a5703e8a28f1642d5416ecd050f338ec7d90ebccfaf",
        29464),
    "pv-ptes": (
        "8a8755c57fd0194afc5e972b88c627c8ffff24659634e64731e5ab7af8bdc474",
        15728),
    "reap": (
        "cb3780869fbfb9ce0278629c0c39b1e2e596910b968e0b276f19102b80046a90",
        38034),
    "faasnap": (
        "b6d41cd05ebffbfd949a3244e36d29d8f1d341febf3ed117570f67e4bdffe9a2",
        36072),
    "snapbpf x2": (
        "7512c1a680e2474c4b5cf187df2bf0284bb350b368357772b69ccdb27b6facd3",
        28698),
    # Evicts 1296 pages through 117 kswapd wakeups and 5 direct reclaims.
    "snapbpf x2 pressure": (
        "d2583a7b550f7bc4a1128059ff4cce6475f2052eaa5a5868e1c701bb5f59db9a",
        35050),
    # Scans 20075 pages: 1298 rotations, 4573 activations, 467 direct
    # reclaims and 455 kswapd wakeups.
    "linux-ra x2 pressure": (
        "d744db02b81828544d3a49f5d87d5055c8f6150b066e6cb148b4c8d39939c0d3",
        22376),
    # 37038 policy runs, 6305 vetoes and 13205 rotations.
    "linux-ra x2 pressure protect-head": (
        "9954ba168345209952e4439287602472f548a40c580311f68a68b3794a56177b",
        23163),
    "linux-ra x2 remote": (
        "2f5b76797d4c6184e9fbec4642110934be63d27524596459bc431aae6a56b3e3",
        21656),
}


FLEET_SPECS = {
    # 415 invocations: 233 overflow routes, 145 pre-warms, 3 scale-ups
    # and 1 scale-down.
    "traffic": ScenarioSpec(
        profile_by_name("json"), "snapbpf",
        cluster=ClusterSpec(
            keepalive="histogram", n_nodes=2, overflow_inflight=3,
            autoscale=True, min_nodes=2, max_nodes=4, target_inflight=1.5,
            keepalive_percentile=25.0, keepalive_min_samples=2,
            keepalive_min_ttl=0.05,
            traffic=TrafficSpec(
                n_functions=40, n_tenants=3, total_rps=30.0, duration=10.0,
                diurnal_period=6.0, n_bursts=2, burst_multiplier=4.0,
                burst_duration=2.0, shapes=("json",), seed=3))),
    "cluster x2": ScenarioSpec(SMALL, "snapbpf", cluster=ClusterSpec(
        n_nodes=2, n_functions=3, duration=3.0, rate_per_function=2.0,
        overflow_inflight=1)),
    # 1 scale-up and 1 scale-down; the policy attaches on both boots,
    # kswapd reclaims 2300 pages in 78 wakeups, 109 chunks stage.
    "cluster autoscale store": ScenarioSpec(
        SMALL, "snapbpf", ram_bytes=52 * MIB, evict_policy="protect-head",
        snapstore=SnapStoreSpec(placement="base-local"),
        cluster=ClusterSpec(
            n_nodes=1, n_functions=3, duration=3.0, rate_per_function=3.0,
            autoscale=True, min_nodes=1, max_nodes=3, target_inflight=0.5,
            scale_interval=0.25, drain_idle_intervals=2,
            node_boot_seconds=0.1, keepalive="histogram",
            keepalive_min_samples=2, keepalive_min_ttl=0.05)),
}

FLEET_PINS = {
    # The count includes calibration's: a FaaSNode's record phase and
    # its first two requests, each an attempt process that parks its
    # sandbox with a reaper, then the two reapers firing.
    "traffic": (
        "212a2665f0f2e5b07a19126912637080f763adb56f32f709170fe7854377991c",
        84825),
    "cluster x2": (
        "543ac9541a4d37c5bebb24843ff71a9f3cbf22696330d1968b21b028929e9f6f",
        150731),
    "cluster autoscale store": (
        "3240c7218181e8c9a14053d78daf726df71fda1fc4359009fba2ff32ed97395b",
        162149),
}

#: approach -> sha256 of ScenarioResult.to_json() for json's chaos cell.
CHAOS_PINS = {
    "snapbpf":
        "ac338d4f7a7e1899075e7e7659e2440e3936e416180c9c0c40cbfa8f6ac02967",
    "linux-ra":
        "633403aa5f534486371970d767d0af22ed67f2e236cf6ac92249debf18955ba5",
    "reap":
        "8abf4ab0d14bd16bc0aa1d88d62fb91074eba491940425cb0cf7ada3d5bbd1df",
}

#: Long requests on three nodes keep work in flight for the crasher:
#: 2 crashes, 2 reroutes.
CRASH_SPEC = ScenarioSpec(
    FunctionProfile(name="tiny", mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                    alloc_bytes=2 * MIB, compute_seconds=0.25,
                    run_len_mean=8.0, seed=31),
    "snapbpf", cluster=ClusterSpec(
        n_nodes=3, n_functions=2, rate_per_function=4.0, duration=3.0,
        warm_pool_ttl=1.0))

#: sha256 of ClusterReport.fingerprint(), DES events processed.
CRASH_PIN = (
    "18bdd90930137ac24a20bec59c455d1bfdb388785ac5707507cddc9c9b47400d",
    70617)

#: (approach, ram_bytes) -> json's calibrated (cold, warm, prepare)
#: seconds as float.hex.  A 48 MiB pool squeezes snapbpf's cold start.
CALIBRATION_PINS = {
    ("faasnap", None): (
        "0x1.4840cb2a84460p-3", "0x1.9b3d07c84b670p-4",
        "0x1.270bdd4433283p+0"),
    ("reap", None): (
        "0x1.080b93dfafab0p-3", "0x1.9b3d07c84b670p-4",
        "0x1.34e66fcc60c29p+0"),
    ("faast", None): (
        "0x1.2ad6441ca4dd8p-3", "0x1.9b3d07c84b670p-4",
        "0x1.e42548fe3f60ep-1"),
    ("linux-nora", None): (
        "0x1.26b610331dd71p+0", "0x1.9b3d07c84b670p-4", "0x0.0p+0"),
    ("linux-ra", None): (
        "0x1.09eedde6eb46ep-1", "0x1.9b3d07c84b670p-4", "0x0.0p+0"),
    ("snapbpf", None): (
        "0x1.0b87b941f6344p-3", "0x1.9b3d07c84b670p-4",
        "0x1.c62c56b0fc617p-1"),
    ("pv-ptes", None): (
        "0x1.e9377cef76a7dp-2", "0x1.9b3d07c84b674p-4", "0x0.0p+0"),
    ("reap", 48 * MIB): (
        "0x1.080b93dfafab0p-3", "0x1.9b3d07c84b670p-4",
        "0x1.34e66fcc60c29p+0"),
    ("snapbpf", 48 * MIB): (
        "0x1.9d8fd98217734p-3", "0x1.9b3d07c84b670p-4",
        "0x1.c62c56b0fc617p-1"),
}


@pytest.fixture
def environments(monkeypatch):
    """Every Environment created while the test runs."""
    created: list[Environment] = []
    original = Environment.__init__

    def init(env, *args, **kwargs):
        original(env, *args, **kwargs)
        created.append(env)

    monkeypatch.setattr(Environment, "__init__", init)
    return created


@pytest.mark.parametrize("label", list(SPECS))
def test_result_digest(label, environments):
    spec = SPECS[label]
    with collector_paused():
        kernel = make_kernel(spec.device_kind, spec.ram_bytes, spec.costs)
        result = run_scenario(spec, kernel=kernel)
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        events = sum(env.events_processed for env in environments)
        assert (digest, events) == PINS[label]

        frames, cache = kernel.frames, kernel.page_cache
        assert frames.counters.anon == 0
        assert frames.counters.file == frames.in_use == cache.cached_pages()
        assert all(entry.frame.mapcount == 0
                   for entry in cache._entries.values())

        # A caller's kernel outlives run_scenario; its owner closes it.
        kernel.close()
        del kernel, frames, cache, result
        environments.clear()
        assert not cyclic_garbage()


@pytest.mark.parametrize("label", list(FLEET_SPECS))
def test_fleet_result_digest(label, environments):
    with collector_paused():
        result = run_scenario(FLEET_SPECS[label])
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        events = sum(env.events_processed for env in environments)
        assert (digest, events) == FLEET_PINS[label]

        del result
        environments.clear()
        assert not cyclic_garbage()


@pytest.mark.parametrize("approach", list(CHAOS_PINS))
def test_chaos_result_digest(approach):
    with collector_paused():
        result = run_scenario(ScenarioSpec(
            "json", approach, chaos=ChaosSpec(fault_seed=7)))
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == CHAOS_PINS[approach]

        del result
        assert not cyclic_garbage()


def test_node_crash_fleet_digest(environments):
    with collector_paused():
        report = run_cluster(CRASH_SPEC, fault_config=FaultConfig(
            node_crash_rate=0.1), fault_seed=1)
        digest = hashlib.sha256(report.fingerprint().encode()).hexdigest()
        events = sum(env.events_processed for env in environments)
        assert (digest, events) == CRASH_PIN

        del report
        environments.clear()
        assert not cyclic_garbage()


def test_calibration_pins_cover_every_approach():
    assert ({approach for approach, ram in CALIBRATION_PINS if ram is None}
            == set(approach_registry()))


@pytest.mark.parametrize("approach, ram_bytes", list(CALIBRATION_PINS))
def test_calibrated_service_times(approach, ram_bytes):
    with collector_paused():
        times = calibrate_service_times(approach, ("json",),
                                        ram_bytes=ram_bytes)["json"]
        assert ((times.cold.hex(), times.warm.hex(), times.prepare.hex())
                == CALIBRATION_PINS[approach, ram_bytes])
        assert not cyclic_garbage()
