"""Scenario runner + result cache."""

import pytest

from repro.baselines.base import approach_registry
from repro.harness.experiment import ResultCache, make_kernel, run_scenario
from repro.harness.spec import ScenarioSpec


def test_registry_contains_all_seven_approaches():
    names = set(approach_registry())
    assert names >= {"linux-nora", "linux-ra", "reap", "faast", "faasnap",
                     "snapbpf", "pv-ptes"}


def test_run_scenario_by_name(tiny_profile):
    result = run_scenario(ScenarioSpec(tiny_profile, "linux-nora"))
    assert result.approach == "linux-nora"
    assert result.function == "tiny"
    assert result.n_instances == 1
    assert len(result.invocations) == 1
    assert result.mean_e2e > 0
    assert result.peak_memory_bytes > 0


def test_concurrent_instances_all_measured(tiny_profile):
    result = run_scenario(ScenarioSpec(tiny_profile, "linux-ra",
                                       n_instances=3))
    assert len(result.invocations) == 3
    assert {inv.vm_id for inv in result.invocations} == {"vm0", "vm1", "vm2"}
    assert result.max_e2e >= result.mean_e2e


def test_deterministic_runs(tiny_profile):
    a = run_scenario(ScenarioSpec(tiny_profile, "snapbpf"))
    b = run_scenario(ScenarioSpec(tiny_profile, "snapbpf"))
    assert a.mean_e2e == b.mean_e2e
    assert a.peak_memory_bytes == b.peak_memory_bytes
    assert a.device_requests == b.device_requests


def test_device_stats_reset_after_prepare(tiny_profile):
    # Counters cover only the timed invocation phase, not the record run.
    result = run_scenario(ScenarioSpec(tiny_profile, "reap"))
    assert result.prepare_seconds > 0
    # Invoke reads ~WS bytes, not WS + record volume.
    assert result.device_bytes_read < 3 * tiny_profile.ws_bytes


def test_hdd_device_kind(tiny_profile):
    ssd = run_scenario(ScenarioSpec(tiny_profile, "linux-nora",
                                    device_kind="ssd"))
    hdd = run_scenario(ScenarioSpec(tiny_profile, "linux-nora",
                                    device_kind="hdd"))
    assert hdd.mean_e2e > 3 * ssd.mean_e2e


def test_unknown_device_kind_rejected():
    with pytest.raises(ValueError):
        make_kernel("floppy")


def test_result_cache_memoizes(tiny_profile):
    cache = ResultCache()
    a = cache.get(ScenarioSpec(tiny_profile, "linux-nora"))
    b = cache.get(ScenarioSpec(tiny_profile, "linux-nora"))
    assert a is b
    assert len(cache) == 1
    cache.get(ScenarioSpec(tiny_profile, "linux-nora", n_instances=2))
    assert len(cache) == 2
