"""Chaos cells: serve a request train under a deterministic fault schedule.

A chaos cell is a :class:`~repro.harness.spec.ScenarioSpec` with a
nested :class:`~repro.faults.ChaosSpec`: one
:class:`~repro.platform.node.FaaSNode` serves a fixed-interval request
train while a seeded :class:`~repro.faults.FaultSchedule` injects media
errors, latency spikes, torn snapshot pages, and BPF attach failures.
The record phase runs clean (operators stage snapshots under controlled
conditions); chaos applies to serving, which is where the paper's
latency race — and therefore the degradation ladder — lives.

``run_scenario`` routes such a spec to :func:`run_chaos_scenario`, so
chaos cells share the sweep runner, the result store and the
determinism contract of every other cell: the result's ``to_json()`` is
byte-identical across runs and processes for the same spec.
"""

from __future__ import annotations

from repro.faults import FaultSchedule
from repro.harness.experiment import (DEGRADATION_COUNTERS,
                                      degradation_extras, make_kernel)
from repro.harness.report import render_table
from repro.harness.spec import ScenarioSpec, stable_hash
from repro.metrics.results import ScenarioResult
from repro.platform.node import FaaSNode
from repro.platform.workload import Arrival
from repro.workloads.profile import FunctionProfile

#: Seconds between consecutive requests of a chaos train.
REQUEST_INTERVAL = 0.25

#: Reclaim-plane registry counters the degradations column shows when
#: nonzero, under their column names.
RECLAIM_DEGRADATIONS = (
    ("reclaim_evictions", "reclaim_reclaimed_total"),
    ("reclaim_kswapd_wakeups", "reclaim_kswapd_wakeups_total"),
    ("reclaim_stalls", "reclaim_stalls_total"),
)


def fixed_interval_arrivals(profile: FunctionProfile, n_requests: int,
                            interval: float,
                            input_seed: int = 0) -> list[Arrival]:
    """Deterministic request train: one arrival every ``interval``."""
    return [Arrival(time=i * interval, function=profile.name,
                    input_seed=input_seed)
            for i in range(n_requests)]


def run_chaos_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Serve ``spec.chaos.n_requests`` cold starts under an installed
    fault schedule.

    The schedule is installed *after* the record phase so preparation is
    clean and every injected fault lands on the serving path under test.
    The result holds the host's registry snapshot, the node's peak
    memory and, in ``extra``, the approach's nonzero degradation
    counters, the mean cold-start latency (``chaos_mean_cold_latency``)
    and a digest of every request's outcome (``chaos_digest``).
    """
    chaos = spec.chaos
    if chaos is None:
        raise ValueError("spec.chaos is not set")
    kernel = make_kernel(spec.device_kind, spec.ram_bytes, spec.costs)
    node = FaaSNode(kernel, spec.approach, [spec.function],
                    request_deadline=chaos.request_deadline)
    env = kernel.env
    env.run(env.process(node.prepare(), name="chaos-prepare"))
    FaultSchedule(seed=chaos.fault_seed, config=chaos.config).install(kernel)
    report = node.run(fixed_interval_arrivals(
        spec.function, chaos.n_requests, REQUEST_INTERVAL, spec.input_seed))

    approach = node.approaches[spec.function_name]
    cold = report.latencies(cold=True)
    outcomes = [[r.function, r.arrival_time, r.latency, r.cold, r.status,
                 r.retries] for r in report.results]
    result = ScenarioResult(
        function=spec.function_name, approach=approach.name, n_instances=1,
        peak_memory_bytes=report.peak_memory_bytes,
        extra=degradation_extras(approach),
        metrics=kernel.metrics.snapshot())
    result.extra["chaos_mean_cold_latency"] = (
        sum(cold) / len(cold) if cold else 0.0)
    result.extra["chaos_digest"] = float(int(stable_hash(outcomes)[:12], 16))
    kernel.close()
    return result


def render_chaos(cells: list[tuple[ScenarioSpec, ScenarioResult]],
                 title: str = "") -> str:
    """The per-approach degradation table for ``(spec, result)`` pairs
    of chaos cells; every count comes from the result's metrics."""
    seeds = sorted({spec.chaos.fault_seed for spec, _ in cells})
    title = title or (f"Chaos scenario (fault seed"
                      f"{'s' if len(seeds) > 1 else ''} "
                      f"{', '.join(map(str, seeds))})")
    rows = [["approach", "requests", "ok", "retried", "timeout", "failed",
             "mean cold (ms)", "injected", "spikes", "cache retries",
             "degradations"]]
    for _, result in cells:
        metrics = result.metrics

        def count(name: str) -> int:
            return int(metrics[name])

        degradations = {name: int(value)
                        for name, value in result.extra.items()
                        if name in DEGRADATION_COUNTERS}
        for label, name in RECLAIM_DEGRADATIONS:
            if metrics.get(name):
                degradations[label] = count(name)
        injected = sum(count(f"fault_{kind}") for kind in (
            "media_errors", "persistent_errors", "torn_pages",
            "attach_failures"))
        rows.append([
            result.approach,
            str(count("node_requests_total")),
            str(count("node_requests_completed_total")),
            str(count("node_request_retries_total")),
            str(count("node_request_timeouts_total")),
            str(count("node_request_failures_total")),
            f"{result.extra['chaos_mean_cold_latency'] * 1e3:.1f}",
            str(injected),
            str(count("fault_latency_spikes")),
            str(count("cache_io_retries_total")),
            ", ".join(f"{k}={v}" for k, v in sorted(degradations.items()))
            or "-",
        ])
    return render_table(rows, title=title)
