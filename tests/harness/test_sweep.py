"""Sweep engine: disk store, parallel determinism, warm-cache replays,
and the shared SweepOptions knob surface."""

import argparse
import dataclasses
import json

import pytest

from repro.harness.experiment import ResultCache, run_scenario
from repro.harness.figures import build_figure, figure_specs, matrix_specs
from repro.harness.report import render_figure
from repro.harness.spec import SCHEMA_VERSION, ScenarioSpec
from repro.harness.sweep import (ResultStore, SweepOptions, SweepRunner,
                                 SweepStats, execute_spec)
from repro.mm.costs import CostModel


@pytest.fixture
def spec(tiny_profile) -> ScenarioSpec:
    return ScenarioSpec(function=tiny_profile, approach="linux-nora")


# -- ResultStore ------------------------------------------------------------

def test_store_round_trip(tmp_path, spec):
    store = ResultStore(tmp_path)
    result = run_scenario(spec)
    store.save_scenario(spec, result)
    assert len(store) == 1
    assert store.load_scenario(spec) == result


def test_store_round_trips_approach_params(tmp_path, tiny_profile):
    """An approach-parameter cell is its own entry, and the spec the
    entry records rebuilds the same key."""
    store = ResultStore(tmp_path)
    spec = ScenarioSpec(function=tiny_profile, approach="linux-ra",
                        approach_params={"ra_pages": 0})
    result = run_scenario(spec)
    store.save_scenario(spec, result)
    assert store.load_scenario(spec) == result
    plain = dataclasses.replace(spec, approach_params={})
    assert store.load_scenario(plain) is None
    entry = json.loads(store.path(spec.stable_hash()).read_text())
    assert ScenarioSpec.from_dict(entry["spec"]) == spec


def test_store_misses_on_absent_and_corrupt_entries(tmp_path, spec):
    store = ResultStore(tmp_path)
    assert store.load_scenario(spec) is None
    store.path(spec.stable_hash()).write_text("{not json")
    assert store.load_scenario(spec) is None


def test_store_rejects_schema_and_kind_mismatch(tmp_path, spec):
    store = ResultStore(tmp_path)
    result = run_scenario(spec)
    store.save_scenario(spec, result)
    path = store.path(spec.stable_hash())

    entry = json.loads(path.read_text())
    entry["schema"] = -1
    path.write_text(json.dumps(entry))
    assert store.load_scenario(spec) is None, "old schema must be a miss"

    entry["schema"] = SCHEMA_VERSION
    entry["kind"] = "sweep-failures"
    path.write_text(json.dumps(entry))
    assert store.load_scenario(spec) is None, "wrong kind must be a miss"


# -- ResultCache on spec hashing -------------------------------------------

def test_cache_get_memoizes_by_spec(tiny_profile):
    cache = ResultCache()
    spec = ScenarioSpec(function=tiny_profile, approach="linux-nora",
                        n_instances=2)
    a = cache.get(spec)
    b = cache.get(ScenarioSpec(function=tiny_profile,
                               approach="linux-nora", n_instances=2))
    assert a is b
    assert len(cache) == 1 and cache.executed == 1


def test_cache_get_rejects_legacy_kwargs_form(tiny_profile):
    cache = ResultCache()
    with pytest.raises(TypeError):
        cache.get(tiny_profile, "linux-nora")  # removed legacy form
    with pytest.raises(TypeError):
        cache.get(tiny_profile)


def test_cache_distinguishes_cost_models(tiny_profile):
    """Regression: the old tuple key omitted ``costs`` (and
    ``vary_inputs``), so a cost-model ablation silently reused the
    baseline's result."""
    cache = ResultCache()
    base = cache.get(ScenarioSpec(tiny_profile, "snapbpf"))
    scaled = cache.get(ScenarioSpec(tiny_profile, "snapbpf",
                                    costs=CostModel().scaled(8.0)))
    assert len(cache) == 2
    assert base is not scaled
    assert scaled.mean_e2e > base.mean_e2e


def test_cache_distinguishes_vary_inputs(tiny_profile):
    cache = ResultCache()
    cache.get(ScenarioSpec(tiny_profile, "snapbpf", n_instances=4))
    cache.get(ScenarioSpec(tiny_profile, "snapbpf", n_instances=4,
                           vary_inputs=True))
    assert len(cache) == 2


def test_cache_reads_through_store(tmp_path, spec):
    cold = ResultCache(store=ResultStore(tmp_path))
    result = cold.get(spec)
    assert cold.executed == 1

    warm = ResultCache(store=ResultStore(tmp_path))
    replayed = warm.get(spec)
    assert warm.executed == 0 and warm.disk_hits == 1
    assert replayed == result


# -- SweepRunner ------------------------------------------------------------

def test_parallel_sweep_matches_serial_byte_for_byte(tiny_profile):
    functions = [tiny_profile]
    serial_cache = ResultCache()
    SweepRunner(serial_cache, jobs=1).run(
        figure_specs("3a", functions=functions))
    serial = render_figure(build_figure("3a", serial_cache,
                                         functions=functions))

    parallel_cache = ResultCache()
    runner = SweepRunner(parallel_cache, jobs=3)
    runner.run(figure_specs("3a", functions=functions))
    parallel = render_figure(build_figure("3a", parallel_cache,
                                           functions=functions))

    assert parallel == serial
    assert runner.last_stats.executed == 3  # reap/faasnap/snapbpf


def test_warm_sweep_executes_nothing(tmp_path, tiny_profile):
    specs = figure_specs("3a", functions=[tiny_profile])
    cold = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=2)
    cold_results = cold.run(specs)
    assert cold.last_stats.executed == len(specs)

    warm = SweepRunner(ResultCache(store=ResultStore(tmp_path)), jobs=2)
    warm_results = warm.run(specs)
    stats = warm.last_stats
    assert stats.executed == 0, "warm rerun must simulate nothing"
    assert stats.disk_hits == len(specs)
    assert stats.hit_ratio == 1.0
    assert warm_results == cold_results


def test_sweep_deduplicates_requests(tiny_profile):
    spec = ScenarioSpec(function=tiny_profile, approach="linux-nora")
    runner = SweepRunner(ResultCache())
    runner.run([spec, spec, dataclasses.replace(spec, n_instances=2)])
    stats = runner.last_stats
    assert stats.requested == 3 and stats.unique == 2
    assert stats.executed == 2


def test_sweep_counters_in_metrics_registry(tiny_profile):
    cache = ResultCache()
    runner = SweepRunner(cache)
    runner.run([ScenarioSpec(function=tiny_profile, approach="linux-nora")])
    snapshot = cache.metrics.snapshot()
    assert snapshot["sweep_scenarios_executed_total"] == 1
    assert snapshot["sweep_runs_total"] == 1
    assert snapshot["sweep_hit_ratio"] == 0.0


def test_execute_spec_is_deterministic(spec):
    assert execute_spec(spec) == execute_spec(spec)


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


# -- figure matrix enumeration ---------------------------------------------

def test_matrix_specs_dedupe_across_figures(tiny_profile):
    functions = [tiny_profile]
    specs_3b = figure_specs("3b", functions)
    specs_3c = figure_specs("3c", functions)
    assert specs_3b == specs_3c  # 3b and 3c share every run
    union = matrix_specs(["3b", "3c"], functions)
    assert union == specs_3b


def test_matrix_specs_cover_all_figures(tiny_profile):
    specs = matrix_specs(functions=[tiny_profile])
    approaches = {s.approach for s in specs}
    assert approaches == {"linux-nora", "linux-ra", "reap", "faasnap",
                          "pv-ptes", "snapbpf"}
    assert len(specs) == len(set(specs))


# -- corrupt-entry quarantine ----------------------------------------------

def test_store_quarantines_entry_truncated_mid_file(tmp_path, spec):
    """A write torn mid-JSON (crash during flush) must not poison the
    store: the entry is renamed aside and the cell becomes a miss."""
    store = ResultStore(tmp_path)
    store.save_scenario(spec, run_scenario(spec))
    path = store.path(spec.stable_hash())
    raw = path.read_text()
    path.write_text(raw[:len(raw) // 2])  # torn mid-file

    assert store.load_scenario(spec) is None
    assert store.corrupt_entries == 1
    corrupt = path.with_suffix(path.suffix + ".corrupt")
    assert corrupt.exists() and not path.exists()
    assert len(store) == 0, "quarantined entries leave the store"
    # The quarantined bytes are preserved for post-mortem.
    assert corrupt.read_text() == raw[:len(raw) // 2]
    # Second load is a plain miss: no file left to quarantine again.
    assert store.load_scenario(spec) is None
    assert store.corrupt_entries == 1


def test_corrupt_entries_surface_in_metrics_registry(tmp_path, spec):
    store = ResultStore(tmp_path)
    ResultCache(store=store).get(spec)
    path = store.path(spec.stable_hash())
    path.write_text(path.read_text()[:40])

    cache = ResultCache(store=store)
    assert cache.lookup(spec) is None
    assert cache.metrics.snapshot()["store_corrupt_entries_total"] == 1.0


def test_schema_mismatch_is_a_miss_not_a_quarantine(tmp_path, spec):
    """Old-schema entries are well-formed JSON from a previous version;
    they are overwritten in place, not renamed aside."""
    store = ResultStore(tmp_path)
    store.save_scenario(spec, run_scenario(spec))
    path = store.path(spec.stable_hash())
    entry = json.loads(path.read_text())
    entry["schema"] = -1
    path.write_text(json.dumps(entry))

    assert store.load_scenario(spec) is None
    assert store.corrupt_entries == 0
    assert path.exists()


# -- throughput accounting --------------------------------------------------

def test_stats_rates_split_executed_from_resolved():
    stats = SweepStats(requested=4, unique=4, executed=2,
                       memory_hits=1, disk_hits=1, elapsed_seconds=2.0)
    assert stats.scenarios_per_second == 1.0, "executed cells per second"
    assert stats.resolved_per_second == 2.0, "all unique cells per second"
    summary = stats.summary()
    assert "exec_rate=1.00/s" in summary
    assert "resolved_rate=2.00/s" in summary


def test_warm_rerun_reports_zero_execution_throughput(tmp_path,
                                                      tiny_profile):
    specs = figure_specs("3a", [tiny_profile])
    SweepRunner(ResultCache(store=ResultStore(tmp_path))).run(specs)

    warm = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    warm.run(specs)
    stats = warm.last_stats
    assert stats.executed == 0
    assert stats.scenarios_per_second == 0.0
    assert stats.resolved_per_second > 0.0
    assert warm.cache.metrics.snapshot()["sweep_scenarios_per_second"] == 0.0


class TestSweepOptions:
    def test_defaults_match_parser_defaults(self):
        opts = SweepOptions()
        assert opts.jobs == 1
        assert opts.max_retries == 2
        assert opts.timeout is None
        assert opts.serve_port == 8040

    def test_from_args_partial_namespace(self):
        # A namespace from a command that only opted into part of the
        # flag surface still resolves; missing knobs keep defaults.
        args = argparse.Namespace(jobs=4, timeout=12.5)
        opts = SweepOptions.from_args(args)
        assert opts.jobs == 4
        assert opts.timeout == 12.5
        assert opts.max_retries == 2
        assert opts.cache_dir is None

    def test_make_store_honors_no_cache(self, tmp_path):
        assert SweepOptions().make_store() is None
        cached = SweepOptions(cache_dir=str(tmp_path))
        assert cached.make_store() is not None
        assert SweepOptions(cache_dir=str(tmp_path),
                            no_cache=True).make_store() is None

    def test_make_injector_off_by_default(self):
        assert SweepOptions().make_injector() is None

    def test_make_injector_outlives_deadline(self):
        injector = SweepOptions(sweep_hang_rate=1.0,
                                timeout=60.0).make_injector()
        assert injector is not None
        assert injector.hang_seconds == 120.0

    def test_make_injector_validates_rates(self):
        with pytest.raises(ValueError):
            SweepOptions(sweep_kill_rate=1.5).make_injector()

    def test_make_runner_wiring(self):
        opts = SweepOptions(jobs=3, timeout=9.0, max_retries=5,
                            keep_going=True, sweep_kill_rate=0.5)
        runner = opts.make_runner(cache=None)
        assert isinstance(runner, SweepRunner)
        assert runner.jobs == 3
        assert runner.timeout == 9.0
        assert runner.max_retries == 5
        assert runner.keep_going is True
        assert runner.injector is not None
