"""Supervised sweep execution: crash recovery, deadlines, poison
quarantine, incremental checkpointing, and interrupt-and-resume."""

import json
import os
import signal

import pytest

from repro.faults import SweepFaultInjector
from repro.harness.experiment import ResultCache
from repro.harness.figures import build_figure, figure_specs
from repro.harness.report import render_figure
from repro.harness.spec import SCHEMA_VERSION, ScenarioSpec
from repro.harness.sweep import (
    FailureRecord,
    ResultStore,
    SweepCell,
    SweepFailure,
    SweepInterrupted,
    SweepRunner,
    supervised_map,
    write_failure_manifest,
)


def _render_3a(cache, tiny_profile) -> str:
    return render_figure(build_figure("3a", cache, functions=[tiny_profile]))


@pytest.fixture
def specs_3a(tiny_profile):
    return figure_specs("3a", functions=[tiny_profile])


# -- crash recovery ---------------------------------------------------------

def test_worker_kills_recover_byte_identical(tiny_profile, specs_3a):
    """Every first attempt SIGKILLs its worker; retries land the exact
    bytes of an unfaulted serial run."""
    baseline_cache = ResultCache()
    SweepRunner(baseline_cache).run(specs_3a)
    baseline = _render_3a(baseline_cache, tiny_profile)

    injector = SweepFaultInjector(seed=7, kill_rate=1.0)
    runner = SweepRunner(ResultCache(), jobs=2, max_retries=3,
                         injector=injector)
    runner.run(specs_3a)

    assert _render_3a(runner.cache, tiny_profile) == baseline
    stats = runner.last_stats
    assert stats.executed == len(specs_3a)
    assert stats.worker_crashes >= len(specs_3a)
    assert stats.retries >= len(specs_3a)
    assert stats.quarantined == 0
    snapshot = runner.cache.metrics.snapshot()
    assert snapshot["sweep_worker_crashes_total"] >= len(specs_3a)
    assert snapshot["sweep_retries_total"] >= len(specs_3a)


def test_serial_mode_survives_kill_and_hang(tiny_profile, specs_3a):
    """jobs=1 has no worker process to kill; planned faults surface as
    in-process surrogates and take the same retry path."""
    injector = SweepFaultInjector(hang_seconds=30.0)
    injector.kill_next()
    injector.hang_next()
    runner = SweepRunner(ResultCache(), jobs=1, timeout=0.5,
                         injector=injector)
    results = runner.run(specs_3a)

    assert len(results) == len(specs_3a)
    stats = runner.last_stats
    assert stats.worker_crashes == 1
    assert stats.timeouts == 1
    assert stats.retries == 2
    assert stats.executed == len(specs_3a)


def test_deadline_expiry_retries_in_pool(tiny_profile, specs_3a):
    """A hung worker is torn down at the deadline and the cell retried
    clean; innocent cells caught in the teardown are not charged."""
    injector = SweepFaultInjector(hang_seconds=30.0)
    injector.hang_next()
    runner = SweepRunner(ResultCache(), jobs=2, timeout=1.0,
                         max_retries=2, injector=injector)
    results = runner.run(specs_3a)

    assert len(results) == len(specs_3a)
    stats = runner.last_stats
    assert stats.timeouts >= 1
    assert stats.quarantined == 0
    assert runner.cache.metrics.snapshot()["sweep_timeouts_total"] >= 1


# -- poison quarantine ------------------------------------------------------

def test_poison_cell_quarantined_with_keep_going(tiny_profile):
    spec = ScenarioSpec(function=tiny_profile, approach="linux-nora")
    injector = SweepFaultInjector()
    injector.kill_next(10)  # every attempt dies: a poison cell
    runner = SweepRunner(ResultCache(), jobs=1, max_retries=1,
                         keep_going=True, injector=injector)
    results = runner.run([spec])

    assert spec not in results
    stats = runner.last_stats
    assert stats.quarantined == 1
    assert stats.executed == 0
    assert len(runner.last_manifest) == 1
    record = runner.last_manifest[0]
    assert record.reason == "crash"
    assert record.attempts == 2, "max_retries=1 means two attempts total"
    assert record.key == spec.stable_hash()
    assert record.spec == spec.canonical()
    assert runner.cache.metrics.snapshot()["sweep_quarantined_total"] == 1


def test_poison_cell_raises_without_keep_going(tiny_profile):
    spec = ScenarioSpec(function=tiny_profile, approach="linux-nora")
    injector = SweepFaultInjector()
    injector.kill_next(10)
    runner = SweepRunner(ResultCache(), jobs=1, max_retries=1,
                         injector=injector)
    with pytest.raises(SweepFailure) as excinfo:
        runner.run([spec])
    assert len(excinfo.value.failures) == 1
    assert runner.last_manifest == excinfo.value.failures


def test_cell_exceptions_are_poison_not_transient():
    """Cells are pure functions of their spec — a Python exception is
    deterministic, so it quarantines immediately with no retry."""
    def boom(payload):
        raise ValueError("deterministic failure")

    events = []
    cells = [SweepCell(index=0, item=None, key="poison", label="boom")]
    results, failures = supervised_map(
        boom, cells, jobs=1, max_retries=3, keep_going=True,
        notify=lambda kind, cell, error: events.append(kind))

    assert results == {}
    assert len(failures) == 1
    assert failures[0].reason == "error"
    assert failures[0].attempts == 1
    assert "deterministic failure" in failures[0].error
    assert "retry" not in events
    assert events.count("quarantine") == 1


# -- failure manifest -------------------------------------------------------

def test_failure_manifest_round_trips(tmp_path):
    record = FailureRecord(key="abc123", label="json/snapbpf", attempts=3,
                           reason="timeout", error="deadline 5.0s",
                           spec={"approach": "snapbpf"})
    path = tmp_path / "artifacts" / "failures.json"
    write_failure_manifest(path, [record])
    payload = json.loads(path.read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["kind"] == "sweep-failures"
    assert payload["failures"] == [record.to_dict()]

    write_failure_manifest(path, [])
    assert json.loads(path.read_text())["failures"] == []


# -- interrupt-and-resume ---------------------------------------------------

def test_interrupt_then_resume_executes_only_remaining(
        tmp_path, tiny_profile, specs_3a):
    """Cancel after 1 cell; the rerun executes exactly unique-1 cells
    and renders byte-identical to an uninterrupted run."""
    baseline_cache = ResultCache()
    SweepRunner(baseline_cache).run(specs_3a)
    baseline = _render_3a(baseline_cache, tiny_profile)

    runner = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=1)
    with pytest.raises(SweepInterrupted) as excinfo:
        runner.run(specs_3a,
                   on_result=lambda spec, result: runner.request_stop())
    assert excinfo.value.completed == 1
    assert runner.last_stats.executed == 1
    assert len(ResultStore(tmp_path)) == 1, "checkpointed before the stop"

    resumed = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=1)
    results = resumed.run(specs_3a)
    assert len(results) == len(specs_3a)
    assert resumed.last_stats.executed == len(specs_3a) - 1
    assert resumed.last_stats.disk_hits == 1
    assert _render_3a(resumed.cache, tiny_profile) == baseline


def test_parallel_interrupt_flushes_inflight(tmp_path, tiny_profile,
                                             specs_3a):
    runner = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=2)
    with pytest.raises(SweepInterrupted):
        runner.run(specs_3a, on_result=lambda spec, result:
                   runner.request_stop(signal.SIGTERM))
    stored = len(ResultStore(tmp_path))
    assert 1 <= stored <= len(specs_3a)
    assert runner.last_stats.executed == stored

    resumed = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=2)
    resumed.run(specs_3a)
    assert resumed.last_stats.executed == len(specs_3a) - stored


def test_real_sigint_flushes_and_restores_handler(tmp_path, tiny_profile,
                                                  specs_3a):
    """An actual SIGINT mid-sweep checkpoints completed cells, surfaces
    as SweepInterrupted, and leaves the previous handler installed."""
    previous = signal.getsignal(signal.SIGINT)
    runner = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=1)
    with pytest.raises(SweepInterrupted) as excinfo:
        runner.run(specs_3a, on_result=lambda spec, result:
                   os.kill(os.getpid(), signal.SIGINT))
    assert excinfo.value.signum == signal.SIGINT
    assert signal.getsignal(signal.SIGINT) is previous
    assert len(ResultStore(tmp_path)) >= 1


# -- torn store writes ------------------------------------------------------

def test_torn_store_writes_quarantined_then_reexecuted(
        tmp_path, tiny_profile, specs_3a):
    """Tear every first store write mid-JSON; the warm rerun quarantines
    the corrupt entries, re-executes, and converges byte-identical."""
    baseline_cache = ResultCache()
    SweepRunner(baseline_cache).run(specs_3a)
    baseline = _render_3a(baseline_cache, tiny_profile)

    injector = SweepFaultInjector(seed=3, tear_rate=1.0)
    torn = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=1,
                       injector=injector)
    torn.run(specs_3a)
    assert injector.store_tears == len(specs_3a)

    store = ResultStore(tmp_path)
    rerun = SweepRunner(ResultCache(store=store), jobs=1)
    rerun.run(specs_3a)
    assert store.corrupt_entries == len(specs_3a)
    assert rerun.last_stats.executed == len(specs_3a)
    snapshot = rerun.cache.metrics.snapshot()
    assert snapshot["store_corrupt_entries_total"] == float(len(specs_3a))
    corrupt_files = list(tmp_path.glob("*.json.corrupt"))
    assert len(corrupt_files) == len(specs_3a)
    assert _render_3a(rerun.cache, tiny_profile) == baseline
