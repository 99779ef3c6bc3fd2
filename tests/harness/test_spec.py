"""ScenarioSpec: coercion, hashing, serialization, approach parameters,
and the shim."""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.faults import ChaosSpec
from repro.harness.experiment import run_scenario
from repro.harness.figures import STORAGE_TIERS
from repro.harness.spec import SCHEMA_VERSION, ScenarioSpec, stable_hash
from repro.mm.costs import CostModel
from repro.snapstore.spec import SnapStoreSpec
from repro.workloads.profile import profile_by_name
from repro.workloads.traffic import TrafficSpec


def test_function_name_coerced_to_profile():
    spec = ScenarioSpec(function="json", approach="snapbpf")
    assert spec.function is profile_by_name("json")
    assert spec.function_name == "json"


def test_specs_are_hashable_dict_keys(tiny_profile):
    a = ScenarioSpec(function=tiny_profile, approach="snapbpf")
    b = ScenarioSpec(function=tiny_profile, approach="snapbpf")
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


def test_stable_hash_is_content_addressed(tiny_profile):
    base = ScenarioSpec(function=tiny_profile, approach="snapbpf")
    assert base.stable_hash() == ScenarioSpec(
        function=tiny_profile, approach="snapbpf").stable_hash()
    assert len(base.stable_hash()) == 64
    variants = [
        dataclasses.replace(base, approach="reap"),
        dataclasses.replace(base, n_instances=2),
        dataclasses.replace(base, input_seed=1),
        dataclasses.replace(base, vary_inputs=True),
        dataclasses.replace(base, device_kind="hdd"),
        dataclasses.replace(base, costs=CostModel().scaled(2.0)),
        dataclasses.replace(base, function=profile_by_name("json")),
        dataclasses.replace(base, approach_params={"patched_cow": False}),
    ]
    hashes = {base.stable_hash()} | {v.stable_hash() for v in variants}
    assert len(hashes) == len(variants) + 1, "every field must key the hash"


def test_hash_covers_schema_version(tiny_profile):
    spec = ScenarioSpec(function=tiny_profile, approach="snapbpf")
    assert spec.stable_hash() == stable_hash(
        {"schema": SCHEMA_VERSION, "spec": spec.canonical()})
    assert spec.stable_hash() != stable_hash(
        {"schema": SCHEMA_VERSION + 1, "spec": spec.canonical()})


#: One spec per plane, pinned to the hashes of the commit before the
#: nested chaos field existed: adding an optional field must not move
#: any existing store key or perfbench pin.
GOLDEN_HASHES = {
    "plain":
        "ce5148333b88d18c98e47eaf46439b4309603f0244ffb7d341d5d3b6da54d689",
    "pressure":
        "8f5ac679765f0dfcc33cb69ec1060bf0af541512556223af46fa9b56715c1c5b",
    "cluster":
        "d7f606c2b78699b887612a6d045d1b597223589d08fa2b106f1dcb8dabcc1e00",
    "traffic":
        "5bd73cfe60f322a3af937c0165fe2966b05fa406126d00e77d9fd0a553c3d161",
    "snapstore":
        "f2f1c19816bd49c4da92e768d1860cb9ab324d96f05c05a32365629973935a44",
    # Pinned when the field arrived: the canonical form of a set one.
    "approach_params":
        "b96392f888a43144fd9e4d5e1878c877c275bd4a1bb03159f49aa7ea959708c9",
}


def test_stable_hash_golden_per_plane():
    json_ = profile_by_name("json")
    specs = {
        "plain": ScenarioSpec(json_, "snapbpf"),
        "pressure": ScenarioSpec(json_, "snapbpf", n_instances=10,
                                 ram_bytes=200 * 2**20,
                                 evict_policy="protect-head"),
        "cluster": ScenarioSpec(json_, "snapbpf", cluster=ClusterSpec(
            n_nodes=3, policy="snapshot-locality")),
        "traffic": ScenarioSpec(json_, "reap", cluster=ClusterSpec(
            n_nodes=4, keepalive="histogram",
            traffic=TrafficSpec(n_functions=100, n_tenants=4,
                                total_rps=50.0, duration=10.0, seed=3))),
        "snapstore": ScenarioSpec(json_, "linux-ra", n_instances=4,
                                  snapstore=STORAGE_TIERS["tiered"]),
        "approach_params": ScenarioSpec(
            json_, "snapbpf", n_instances=10,
            approach_params={"patched_cow": False}),
    }
    assert {name: spec.stable_hash()
            for name, spec in specs.items()} == GOLDEN_HASHES


def test_canonical_round_trip(tiny_profile):
    spec = ScenarioSpec(function=tiny_profile, approach="reap",
                        n_instances=3, input_seed=7, vary_inputs=True,
                        device_kind="hdd", costs=CostModel().scaled(4.0))
    assert ScenarioSpec.from_dict(spec.canonical()) == spec
    chaos = ScenarioSpec(function=tiny_profile, approach="snapbpf",
                         ram_bytes=1 << 30,
                         chaos=ChaosSpec(fault_seed=3, n_requests=4,
                                         request_deadline=0.5))
    assert ScenarioSpec.from_dict(chaos.canonical()) == chaos
    params = ScenarioSpec(function=tiny_profile, approach="faasnap",
                          approach_params={"gap_threshold": 64})
    assert params.canonical()["approach_params"] == {"gap_threshold": 64}
    assert ScenarioSpec.from_dict(params.canonical()) == params


def test_default_approach_params_are_the_plain_spec(tiny_profile):
    """A parameter equal to its constructor default is dropped, so the
    ablations' default cells are the paper figures' own cells."""
    plain = ScenarioSpec(function=tiny_profile, approach="linux-ra")
    for params in ({"ra_pages": 32}, (("ra_pages", 32),), {}):
        spec = ScenarioSpec(function=tiny_profile, approach="linux-ra",
                            approach_params=params)
        assert spec == plain and spec.stable_hash() == plain.stable_hash()
        assert "approach_params" not in spec.canonical()
    both = ScenarioSpec(function=tiny_profile, approach="snapbpf",
                        approach_params={"patched_cow": False,
                                         "pv_marking": True})
    assert both.approach_params == (("patched_cow", False),)
    assert hash(both) == hash(dataclasses.replace(
        both, approach_params={"patched_cow": False}))


def test_invalid_approach_params_rejected(tiny_profile):
    with pytest.raises(ValueError, match="ra_pages"):
        ScenarioSpec(function=tiny_profile, approach="snapbpf",
                     approach_params={"ra_pages": 8})
    with pytest.raises(ValueError, match="no parameter"):
        ScenarioSpec(function=tiny_profile, approach="linux-nora",
                     approach_params={"ra_pages": 8})
    with pytest.raises(ValueError, match="unknown approach"):
        ScenarioSpec(function=tiny_profile, approach="nope",
                     approach_params={"ra_pages": 8})
    with pytest.raises(TypeError, match="bool"):
        ScenarioSpec(function=tiny_profile, approach="snapbpf",
                     approach_params={"patched_cow": "no"})
    with pytest.raises(ValueError, match="cluster"):
        ScenarioSpec(function=tiny_profile, approach="linux-ra",
                     cluster=ClusterSpec(n_nodes=2),
                     approach_params={"ra_pages": 8})


def test_invalid_specs_rejected(tiny_profile):
    with pytest.raises(ValueError):
        ScenarioSpec(function=tiny_profile, approach="snapbpf",
                     device_kind="floppy")
    with pytest.raises(ValueError):
        ScenarioSpec(function=tiny_profile, approach="snapbpf",
                     n_instances=0)
    with pytest.raises(TypeError):
        ScenarioSpec(function=tiny_profile, approach=lambda k: None)
    with pytest.raises(TypeError):
        ScenarioSpec(function=tiny_profile, approach="snapbpf",
                     costs="cheap")
    # A chaos cell serves one request at a time on one plain node.
    for fields in ({"cluster": ClusterSpec(n_nodes=2)},
                   {"snapstore": SnapStoreSpec()},
                   {"evict_policy": "protect-head"},
                   {"vary_inputs": True},
                   {"n_instances": 2}):
        with pytest.raises(ValueError, match="chaos"):
            ScenarioSpec(function=tiny_profile, approach="snapbpf",
                         chaos=ChaosSpec(), **fields)
    with pytest.raises(ValueError):
        ChaosSpec(n_requests=0)
    with pytest.raises(ValueError):
        ChaosSpec(request_deadline=0.0)
    with pytest.raises(TypeError):
        ChaosSpec(config={"media_error_rate": 0.1})


def test_run_scenario_requires_a_spec(tiny_profile):
    """The legacy run_scenario(profile, approach, ...) form is gone:
    anything but a ScenarioSpec is a TypeError up front."""
    with pytest.raises(TypeError, match="ScenarioSpec"):
        run_scenario(tiny_profile)
    with pytest.raises(TypeError):
        run_scenario(tiny_profile, "snapbpf")  # old positional approach
    with pytest.raises(TypeError, match="ScenarioSpec"):
        run_scenario({"function": "json", "approach": "snapbpf"})


def test_run_scenario_passes_approach_params(tiny_profile):
    """The readahead window reaches the approach's constructor: Linux-RA
    with no window replays Linux-NoRA byte for byte, under its own
    name."""
    nora = run_scenario(ScenarioSpec(function=tiny_profile,
                                     approach="linux-nora"))
    no_window = run_scenario(ScenarioSpec(
        function=tiny_profile, approach="linux-ra",
        approach_params={"ra_pages": 0}))
    assert no_window.approach == "linux-ra"
    assert dataclasses.replace(
        no_window, approach="linux-nora").to_json() == nora.to_json()
