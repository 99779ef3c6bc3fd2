"""Reclaim-stall injection: seeded determinism, forced stalls through an
installed schedule, and config validation."""

import dataclasses
import random

import pytest

from repro.faults import (DEFAULT_CHAOS, ChaosSpec, FaultConfig,
                          FaultSchedule, MemFaultInjector)
from repro.faults.schedule import FaultStats
from repro.harness.experiment import run_scenario
from repro.harness.figures import pressure_ram_bytes
from repro.harness.spec import ScenarioSpec
from repro.mm.kernel import Kernel
from repro.units import MIB, PAGE_SIZE


def _stall_pattern(seed: int, n: int = 64) -> list[float]:
    config = FaultConfig(reclaim_stall_rate=0.3)
    injector = MemFaultInjector(random.Random(f"faults:{seed}:mm"),
                                config, FaultStats())
    return [injector.on_wakeup() for _ in range(n)]


def test_stall_stream_is_seeded_and_deterministic():
    assert _stall_pattern(7) == _stall_pattern(7)
    assert _stall_pattern(7) != _stall_pattern(8)
    pattern = _stall_pattern(7)
    assert any(pattern) and not all(pattern)
    assert set(pattern) <= {0.0, FaultConfig().reclaim_stall_seconds}


def test_zero_rate_never_draws_or_stalls():
    rng = random.Random(1)
    before = rng.getstate()
    injector = MemFaultInjector(rng, FaultConfig(), FaultStats())
    assert [injector.on_wakeup() for _ in range(8)] == [0.0] * 8
    assert rng.getstate() == before  # RNG untouched when no rate is set
    assert injector.reclaim_stalls == 0


def test_forced_stall_reaches_kswapd_through_install(env):
    kernel = Kernel(env=env, ram_bytes=64 * PAGE_SIZE)
    kernel.reclaim.enable_watermarks()
    schedule = FaultSchedule(seed=0, config=FaultConfig()).install(kernel)
    assert kernel.reclaim.fault_injector is schedule.mm
    schedule.mm.stall_next()

    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 59)
    env.run()
    kernel.page_cache.populate(file, 100, 1)  # dips below the low mark
    env.run()

    metrics = kernel.metrics.snapshot()
    assert metrics["reclaim_kswapd_wakeups_total"] == 1
    assert schedule.mm.reclaim_stalls == 1
    assert metrics["reclaim_stalls_total"] == 1
    assert metrics["reclaim_stall_seconds_total"] == pytest.approx(
        FaultConfig().reclaim_stall_seconds)


def test_config_validation_and_replace():
    with pytest.raises(ValueError):
        FaultConfig(reclaim_stall_rate=1.5)
    with pytest.raises(ValueError):
        FaultConfig(reclaim_stall_seconds=-1e-6)
    # The CLI layers overrides with dataclasses.replace; validation runs.
    replaced = dataclasses.replace(DEFAULT_CHAOS, reclaim_stall_rate=0.5)
    assert replaced.reclaim_stall_rate == 0.5
    assert replaced.media_error_rate == DEFAULT_CHAOS.media_error_rate
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT_CHAOS, reclaim_stall_rate=-0.1)


def test_chaos_surfaces_reclaim_counters_deterministically(tiny_profile):
    config = dataclasses.replace(DEFAULT_CHAOS, reclaim_stall_rate=1.0)
    spec = ScenarioSpec(
        tiny_profile, "snapbpf",
        ram_bytes=pressure_ram_bytes(tiny_profile, "snapbpf", 1, 0.0),
        chaos=ChaosSpec(config=config, fault_seed=3, n_requests=4))
    results = [run_scenario(spec) for _ in range(2)]
    assert results[0].to_json() == results[1].to_json()
    metrics = results[0].metrics
    assert metrics["reclaim_reclaimed_total"] > 0
    # The record phase runs clean (schedule installs after prepare), so
    # only the serving-phase wakeups stall — but at rate 1.0 all do.
    wakeups = metrics["reclaim_kswapd_wakeups_total"]
    assert 0 < metrics["reclaim_stalls_total"] <= wakeups
