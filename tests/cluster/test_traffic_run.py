"""Traffic plane end-to-end: SLO schema, determinism, store replay."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.cluster.traffic import (calibrate_service_times, run_traffic,
                                   run_traffic_scenario)
from repro.harness.experiment import ResultCache, run_scenario
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner
from repro.metrics.results import ScenarioResult
from repro.units import GIB, PAGE_SIZE
from repro.workloads.profile import profile_by_name
from repro.workloads.traffic import TrafficSpec


def tiny_traffic(**overrides):
    fields = dict(n_functions=30, n_tenants=3, total_rps=15.0,
                  duration=12.0, diurnal_amplitude=0.3, diurnal_period=8.0,
                  n_bursts=1, burst_multiplier=2.0, burst_duration=2.0,
                  seed=5)
    fields.update(overrides)
    return TrafficSpec(**fields)


def traffic_spec(keepalive="fixed", approach="snapbpf", traffic=None,
                 **overrides):
    return ScenarioSpec(
        function=profile_by_name("json"), approach=approach,
        cluster=ClusterSpec(keepalive=keepalive,
                            traffic=traffic or tiny_traffic(),
                            n_nodes=2, overflow_inflight=8, **overrides))


def test_report_accounts_for_every_invocation():
    report = run_traffic(traffic_spec())
    assert report.invocations > 0
    assert report.completed == report.invocations
    assert report.cold_starts + report.warm_starts == report.invocations
    assert report.failures == 0 and report.timeouts == 0
    assert 0.0 < report.cold_ratio < 1.0
    assert report.events_processed > report.invocations


def test_runs_are_deterministic():
    a = run_traffic(traffic_spec())
    b = run_traffic(traffic_spec())
    assert a.digest == b.digest
    assert a.fingerprint() == b.fingerprint()


def test_slo_rows_cover_every_tenant():
    report = run_traffic(traffic_spec())
    spec_tenants = traffic_spec().cluster.traffic.n_tenants
    assert sorted(report.slo) == list(range(spec_tenants))
    total = 0
    for row in report.slo.values():
        assert set(row) == {"requests", "cold_ratio", "p99_e2e",
                            "p999_e2e", "p99_cold", "p999_cold"}
        assert 0.0 <= row["cold_ratio"] <= 1.0
        assert row["p999_e2e"] >= row["p99_e2e"] >= 0.0
        total += row["requests"]
    assert total == report.invocations


def test_scenario_result_extra_schema():
    result = run_traffic_scenario(traffic_spec())
    assert isinstance(result, ScenarioResult)
    assert result.invocations == []
    extra = result.extra
    for key in ("traffic_invocations", "traffic_cold_starts",
                "traffic_warm_starts", "traffic_cold_ratio",
                "traffic_completed", "traffic_timeouts",
                "traffic_failures", "traffic_reroutes",
                "traffic_prewarms", "traffic_p99_e2e", "traffic_p999_e2e",
                "traffic_events_processed", "traffic_digest",
                "traffic_nodes_peak", "traffic_nodes_final"):
        assert key in extra, key
        assert isinstance(extra[key], float)
    for tenant in range(3):
        for key in ("requests", "cold_ratio", "p99_e2e", "p999_e2e",
                    "p99_cold", "p999_cold"):
            assert isinstance(extra[f"slo_t{tenant}_{key}"], float)
    # Flat floats only: the exact-JSON-round-trip store contract.
    clone = ScenarioResult.from_json(result.to_json())
    assert clone == result and clone.to_json() == result.to_json()


@pytest.mark.parametrize("ram_bytes", [None, 1 << 30])
def test_calibration_applies_ram_bytes_like_every_scenario(monkeypatch,
                                                           ram_bytes):
    """A sized pool turns the pressure plane on during calibration too,
    the same rule page-level scenarios follow (make_kernel)."""
    import repro.harness.experiment as experiment

    kernels = []
    real = experiment.make_kernel

    def recording(*args, **kwargs):
        kernels.append(real(*args, **kwargs))
        return kernels[-1]

    monkeypatch.setattr(experiment, "make_kernel", recording)
    calibrate_service_times("snapbpf", ("json",), ram_bytes=ram_bytes)
    assert len(kernels) == 1
    (kernel,) = kernels
    if ram_bytes is None:
        assert kernel.reclaim.watermarks is None
        assert kernel.frames.total_frames * PAGE_SIZE == 256 * GIB
    else:
        assert kernel.reclaim.watermarks is not None
        assert kernel.frames.total_frames * PAGE_SIZE == ram_bytes


def test_run_scenario_dispatches_traffic_specs():
    direct = run_traffic_scenario(traffic_spec())
    dispatched = run_scenario(traffic_spec())
    assert dispatched.to_json() == direct.to_json()


def test_serial_and_parallel_sweeps_agree(tmp_path):
    specs = [traffic_spec("fixed"), traffic_spec("histogram")]
    serial = SweepRunner(ResultCache(store=ResultStore(tmp_path / "s")),
                         jobs=1).run(specs)
    parallel = SweepRunner(ResultCache(store=ResultStore(tmp_path / "p")),
                           jobs=2).run(specs)
    for spec in specs:
        assert serial[spec].to_json() == parallel[spec].to_json()


def test_store_replay_skips_execution(tmp_path):
    specs = [traffic_spec("fixed"), traffic_spec("histogram")]
    cold = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    first = cold.run(specs)
    assert cold.last_stats.executed == 2

    warm = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    second = warm.run(specs)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.disk_hits == 2
    for spec in specs:
        assert second[spec].to_json() == first[spec].to_json()


def test_histogram_keepalive_beats_fixed_at_moderate_load():
    # A horizon long enough to learn (min_samples gaps per popular
    # function): typical gaps near 2 s beat the fixed 1.5 s TTL once the
    # histogram policy learns to cover them (clamped at 8 s).
    traffic = tiny_traffic(duration=30.0)
    fixed = run_traffic(traffic_spec("fixed", traffic=traffic))
    histogram = run_traffic(traffic_spec("histogram", traffic=traffic))
    assert histogram.invocations == fixed.invocations
    assert histogram.cold_ratio < fixed.cold_ratio


def test_keepalive_knobs_reach_the_policy():
    # min_samples above any count freezes the histogram policy at its
    # default TTL == warm_pool_ttl: identical outcome to fixed.
    frozen = run_traffic(traffic_spec("histogram",
                                      keepalive_min_samples=10**6,
                                      prewarm=False))
    fixed = run_traffic(traffic_spec("fixed"))
    assert frozen.digest == fixed.digest


def test_traffic_spec_validation():
    with pytest.raises(ValueError, match="keep-alive"):
        traffic_spec("nope")
    with pytest.raises(ValueError, match="percentile"):
        traffic_spec(keepalive_percentile=0.0)
    with pytest.raises(ValueError, match="min_ttl"):
        traffic_spec(keepalive_min_ttl=9.0, keepalive_max_ttl=8.0)
    with pytest.raises(ValueError, match="min_samples"):
        traffic_spec(keepalive_min_samples=0)


def test_cluster_spec_round_trips_with_traffic():
    spec = traffic_spec("histogram")
    clone = ScenarioSpec.from_dict(spec.canonical())
    assert clone == spec
    assert clone.stable_hash() == spec.stable_hash()
    assert clone.cluster.traffic == spec.cluster.traffic
