"""Chaos cells: seeded reproducibility and graceful completion."""

import dataclasses

import pytest

from repro.faults import (
    DEFAULT_CHAOS,
    ChaosSpec,
    FaultConfig,
    SweepFaultInjector,
    WorkerFault,
)
from repro.harness.chaos import fixed_interval_arrivals, render_chaos
from repro.harness.experiment import ResultCache, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner
from repro.metrics.results import ScenarioResult
from repro.units import MIB
from repro.workloads.profile import FunctionProfile


@pytest.fixture
def profile():
    return FunctionProfile(name="alpha", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, run_len_mean=8.0, seed=31)


#: Rates cranked high enough that a 3-request run reliably sees faults.
HOT = FaultConfig(media_error_rate=0.05, latency_spike_rate=0.1,
                  torn_page_rate=0.01)


def chaos_spec(profile, approach="snapbpf", config=HOT, fault_seed=5,
               n_requests=3, **fields) -> ScenarioSpec:
    return ScenarioSpec(profile, approach,
                        chaos=ChaosSpec(config=config, fault_seed=fault_seed,
                                        n_requests=n_requests),
                        **fields)


def test_fixed_interval_arrivals(profile):
    arrivals = fixed_interval_arrivals(profile, 3, 0.5, input_seed=7)
    assert [a.time for a in arrivals] == [0.0, 0.5, 1.0]
    assert all(a.function == "alpha" and a.input_seed == 7
               for a in arrivals)


def test_same_fault_seed_is_byte_identical(profile):
    """Satellite of the fault plane: a chaos run is a pure function of
    its seeds."""
    first = run_scenario(chaos_spec(profile))
    again = run_scenario(chaos_spec(profile))
    other = run_scenario(chaos_spec(profile, fault_seed=6))
    assert first.to_json() == again.to_json()
    assert first.to_json() != other.to_json()
    assert first.extra["chaos_digest"] != other.extra["chaos_digest"]


def test_transient_chaos_completes_every_request(profile):
    result = run_scenario(chaos_spec(profile, "linux-ra", fault_seed=2))
    metrics = result.metrics
    assert metrics["node_requests_completed_total"] == 3
    assert metrics["node_request_failures_total"] == 0
    injected = sum(metrics[f"fault_{kind}"] for kind in (
        "media_errors", "persistent_errors", "torn_pages",
        "attach_failures"))
    assert injected > 0  # the run actually exercised the fault plane
    assert metrics["cache_io_retries_total"] > 0


def test_attach_failure_chaos_degrades_snapbpf(profile):
    """The headline acceptance scenario: with every prefetch attach
    failing, SnapBPF serves everything through demand paging."""
    result = run_scenario(chaos_spec(
        profile, config=FaultConfig(attach_failure_rate=1.0), fault_seed=0,
        n_requests=2))
    assert result.metrics["node_requests_completed_total"] == 2
    assert result.extra["prefetch_fallbacks"] == 2
    assert result.metrics["fault_attach_failures"] == 2


def test_record_phase_runs_clean(profile):
    """Faults are installed after prepare: a zero-rate config must
    leave the whole run untouched."""
    result = run_scenario(chaos_spec(profile, config=FaultConfig(),
                                     fault_seed=0, n_requests=2))
    assert result.metrics["node_requests_completed_total"] == 2
    assert all(value == 0 for name, value in result.metrics.items()
               if name.startswith("fault_"))
    assert set(result.extra) == {"chaos_mean_cold_latency", "chaos_digest"}


def test_parallel_suite_matches_serial_fingerprints(profile):
    """Each chaos cell is independent, so any job count reproduces the
    serial results exactly."""
    specs = [chaos_spec(profile, approach)
             for approach in ("snapbpf", "linux-ra", "reap")]
    serial = SweepRunner(ResultCache(), jobs=1).run(specs)
    parallel = SweepRunner(ResultCache(), jobs=2).run(specs)
    assert set(parallel) == set(serial) == set(specs)
    assert ([parallel[s].to_json() for s in specs]
            == [serial[s].to_json() for s in specs])


def test_chaos_result_round_trip(profile):
    result = run_scenario(chaos_spec(profile))
    replayed = ScenarioResult.from_json(result.to_json())
    assert replayed == result
    assert replayed.to_json() == result.to_json()


def test_chaos_suite_replays_from_store(tmp_path, profile, monkeypatch):
    specs = [chaos_spec(profile)]
    cold = SweepRunner(ResultCache(store=ResultStore(tmp_path))).run(specs)
    assert len(ResultStore(tmp_path)) == 1

    # A warm rerun must come purely from disk: poison the execution path.
    import repro.harness.sweep as sweep_mod

    def explode(spec):
        raise AssertionError("warm suite must not simulate")

    monkeypatch.setattr(sweep_mod, "run_scenario", explode)
    warm_runner = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    warm = warm_runner.run(specs)
    assert warm_runner.last_stats.executed == 0
    assert warm_runner.last_stats.disk_hits == 1
    assert warm[specs[0]].to_json() == cold[specs[0]].to_json()


def test_chaos_key_covers_fault_config(profile):
    """A chaos cell's store key is its spec hash: fault config, fault
    seed and approach all move it."""
    base = chaos_spec(profile).stable_hash()
    assert base == chaos_spec(profile).stable_hash()
    assert base != chaos_spec(profile, config=DEFAULT_CHAOS).stable_hash()
    assert base != chaos_spec(profile, fault_seed=6).stable_hash()
    assert base != chaos_spec(profile, "reap").stable_hash()
    plain = ScenarioSpec(profile, "snapbpf")
    assert base != plain.stable_hash()
    assert "chaos" not in plain.canonical()


def test_chaos_rejects_kernel_and_approach_params(profile, kernel):
    with pytest.raises(TypeError):
        run_scenario(chaos_spec(profile), kernel=kernel)
    with pytest.raises(ValueError, match="chaos"):
        dataclasses.replace(chaos_spec(profile),
                            approach_params={"patched_cow": False})


def test_render_chaos_table(profile):
    spec = chaos_spec(profile, "linux-ra", config=DEFAULT_CHAOS,
                      fault_seed=1, n_requests=2)
    text = render_chaos([(spec, run_scenario(spec))])
    lines = text.splitlines()
    assert lines[0] == "Chaos scenario (fault seed 1)"
    assert lines[1].split()[0] == "approach"
    assert lines[3].split()[:3] == ["linux-ra", "2", "2"]


def test_node_crash_rate_keeps_single_node_fingerprints(profile):
    """Single-node chaos never draws from the node-crash stream, so a
    config that only adds ``node_crash_rate`` replays the exact same
    result — pre-cluster chaos baselines stay byte-identical."""
    base = run_scenario(chaos_spec(profile))
    with_rate = run_scenario(chaos_spec(
        profile, config=dataclasses.replace(HOT, node_crash_rate=0.5)))
    assert base.to_json() == with_rate.to_json()
    assert "fault_node_crashes" not in base.metrics


def test_remote_fetch_rate_keeps_storeless_fingerprints(profile):
    """Chaos runs without a snapstore never draw from the remote-fetch
    stream, so a config that only adds remote-fetch rates replays the
    exact same result — pre-snapstore chaos baselines stay
    byte-identical."""
    base = run_scenario(chaos_spec(profile))
    with_rate = run_scenario(chaos_spec(
        profile, config=dataclasses.replace(HOT, remote_fetch_error_rate=0.5,
                                            remote_fetch_stall_rate=0.5)))
    assert base.to_json() == with_rate.to_json()
    assert "fault_remote_fetch_errors" not in base.metrics


def test_supervised_suite_recovers_from_worker_kills(profile):
    """Chaos cells killed by the runner-level injector are retried and
    reproduce the serial, unfaulted results."""
    specs = [chaos_spec(profile, approach) for approach in ("snapbpf", "reap")]
    clean = SweepRunner(ResultCache(), jobs=1).run(specs)
    injector = SweepFaultInjector(seed=11, kill_rate=1.0)
    runner = SweepRunner(ResultCache(), jobs=2, max_retries=3,
                         injector=injector)
    faulted = runner.run(specs)
    assert injector.worker_kills >= 1
    assert runner.last_stats.worker_crashes >= 1
    assert ([faulted[s].to_json() for s in specs]
            == [clean[s].to_json() for s in specs])


def test_supervised_suite_quarantines_poison_cell(profile):
    """A cell that dies on every attempt is dropped from the results and
    reported in the failure manifest instead of aborting the suite."""
    poison = chaos_spec(profile, "snapbpf")
    survivor = chaos_spec(profile, "reap")

    class Targeted(SweepFaultInjector):
        def plan(self, key, attempt):
            if key == poison.stable_hash():
                return WorkerFault(kill=True)
            return None

    runner = SweepRunner(ResultCache(), jobs=1, max_retries=1,
                         keep_going=True, injector=Targeted())
    results = runner.run([poison, survivor])
    assert list(results) == [survivor]
    failures = runner.last_manifest
    assert len(failures) == 1
    assert failures[0].reason == "crash"
    assert failures[0].attempts == 2
    assert failures[0].key == poison.stable_hash()
    assert "snapbpf" in failures[0].label
