"""ScenarioResult summaries."""

import pytest

from repro.metrics.results import ScenarioResult
from repro.units import GIB
from repro.vmm.microvm import InvocationStats


def make_result(function="f", approach="a", latencies=(1.0, 2.0, 3.0)):
    return ScenarioResult(
        function=function, approach=approach, n_instances=len(latencies),
        invocations=[InvocationStats(vm_id=f"vm{i}", e2e_seconds=lat)
                     for i, lat in enumerate(latencies)],
        peak_memory_bytes=2 * GIB)


def test_latency_summaries():
    result = make_result()
    assert result.e2e_latencies == [1.0, 2.0, 3.0]
    assert result.mean_e2e == pytest.approx(2.0)
    assert result.max_e2e == 3.0


def test_peak_memory_gib():
    assert make_result().peak_memory_gib == pytest.approx(2.0)


def test_str_is_informative():
    text = str(make_result(function="bert", approach="snapbpf"))
    assert "bert" in text and "snapbpf" in text


def test_empty_result_reports_zero_not_crash():
    """A scenario with no invocations (all requests failed before any
    sandbox completed) must summarize to 0.0, not raise."""
    result = ScenarioResult(function="f", approach="a", n_instances=0)
    assert result.e2e_latencies == []
    assert result.mean_e2e == 0.0
    assert result.max_e2e == 0.0
    assert result.p50_e2e == 0.0
    assert result.p99_e2e == 0.0
    assert "f/a" in str(result)


def test_e2e_percentiles_nearest_rank():
    latencies = tuple(float(i) for i in range(1, 101))  # 1..100
    result = make_result(latencies=latencies)
    assert result.p50_e2e == 50.0
    assert result.p95_e2e == 95.0
    assert result.p99_e2e == 99.0
    single = make_result(latencies=(7.0,))
    assert single.p50_e2e == single.p99_e2e == 7.0


def test_json_round_trip_is_exact():
    """The on-disk sweep store depends on from_json(to_json(r)) == r,
    exactly — including extras, the metrics snapshot, and percentiles."""
    result = make_result(function="bert", approach="snapbpf",
                         latencies=(0.1234567891234, 0.2, 0.3, 0.4, 0.5))
    result.end_memory_bytes = 123456789
    result.device_requests = 42
    result.device_bytes_read = 7 * GIB + 3
    result.device_bytes_written = 9
    result.cache_adds = 77
    result.bpf_hook_seconds = 1.5e-7
    result.prepare_seconds = 0.25
    result.extra = {"ws_pages": 512.0, "inflation_ratio": 1.0625}
    result.metrics = {"device_requests_total": 42.0,
                      "device_read_seconds_sum": 0.001953125}
    result.device_p50_latency = 95e-6
    result.device_p95_latency = 180e-6
    result.device_p99_latency = 250e-6
    result.invocations[0].nested_faults = 3
    result.invocations[0].compute_seconds = 0.017

    replayed = ScenarioResult.from_json(result.to_json())
    assert replayed == result
    assert replayed.extra == result.extra
    assert replayed.metrics == result.metrics
    assert replayed.invocations == result.invocations
    assert replayed.p50_e2e == result.p50_e2e
    assert replayed.p95_e2e == result.p95_e2e
    assert replayed.p99_e2e == result.p99_e2e
    assert replayed.mean_e2e == result.mean_e2e


def test_to_json_is_deterministic():
    result = make_result()
    assert result.to_json() == make_result().to_json()


def test_to_dict_copies_containers():
    result = make_result()
    data = result.to_dict()
    data["extra"]["injected"] = 1.0
    data["invocations"][0]["e2e_seconds"] = 99.0
    assert "injected" not in result.extra
    assert result.invocations[0].e2e_seconds == 1.0
