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
* linux-ra x2 remote: snapshot chunks staged from the remote tier.

A pin changes only with a declared model change, which re-derives it
from ``run_scenario`` output.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ScenarioSpec, run_scenario
from repro.harness.figures import pressure_ram_bytes
from repro.sim import Environment
from repro.snapstore.spec import SnapStoreSpec
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

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
    "linux-ra x2 remote": (
        "2f5b76797d4c6184e9fbec4642110934be63d27524596459bc431aae6a56b3e3",
        21656),
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
    result = run_scenario(SPECS[label])
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    events = sum(env.events_processed for env in environments)
    assert (digest, events) == PINS[label]

