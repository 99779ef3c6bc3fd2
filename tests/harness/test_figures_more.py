"""Figure-builder details not covered by the main figure tests."""

import pytest

import repro.harness.experiment as experiment
from repro.harness.experiment import ResultCache
from repro.harness.figures import (FigureData, _profiles, build_figure,
                                   figure_specs)
from repro.harness.sweep import ResultStore
from repro.units import MIB
from repro.workloads.profile import FUNCTIONS, FunctionProfile


@pytest.fixture(scope="module")
def tiny():
    return FunctionProfile(name="tiny2", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, seed=71)


def test_profiles_resolution_by_name_and_object(tiny):
    assert _profiles(None) == list(FUNCTIONS)
    assert _profiles(["bert"])[0].name == "bert"
    assert _profiles([tiny])[0] is tiny


def test_figure_3b_is_ratio_of_cached_e2e(tiny):
    cache = ResultCache()
    data = build_figure("3b", cache, functions=[tiny])
    e2e = {spec.approach: cache.get(spec).mean_e2e
           for spec in figure_specs("3b", functions=[tiny])}
    assert e2e["linux-nora"] > 0.02  # absolute seconds, not a ratio
    for approach, seconds in e2e.items():
        assert data.value("tiny2", approach) == seconds / e2e["linux-nora"]
    assert "normalized" in data.ylabel


@pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
def test_build_figure_keeps_results_in_a_fresh_cache(tiny, tmp_path,
                                                     monkeypatch, stored):
    """An empty cache is falsy (it has a length), yet it is the caller's:
    the build fills it and its store, so a later figure sharing cells
    (4 shares snapbpf x1 with 3a) simulates only the cells it adds."""
    executed = []
    real_run = experiment.run_scenario

    def run_scenario(spec):
        executed.append(spec.approach)
        return real_run(spec)

    monkeypatch.setattr(experiment, "run_scenario", run_scenario)
    store = ResultStore(tmp_path) if stored else None
    cache = ResultCache(store=store)
    build_figure("3a", cache, functions=[tiny])
    specs = figure_specs("3a", functions=[tiny])
    assert len(cache) == len(specs)
    assert all(spec in cache for spec in specs)
    if stored:
        assert all(store.load_scenario(spec) is not None for spec in specs)
    executed.clear()
    build_figure("4", cache, functions=[tiny])
    assert sorted(executed) == ["linux-ra", "pv-ptes"]


def test_figure_data_unknown_lookup_raises():
    data = FigureData(figure="x", ylabel="y", functions=["f"],
                      series={"s": [1.0]})
    with pytest.raises(ValueError):
        data.value("ghost", "s")
    with pytest.raises(KeyError):
        data.value("f", "ghost")
