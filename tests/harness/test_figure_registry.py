"""The figure registry's contract: building a figure (its table and its
per-cell summary) reads exactly the cells ``figure_specs`` enumerates,
for every figure, both variants and all 13 functions, with no
simulation."""

import dataclasses

import pytest

from repro.harness.figures import FIGURES, build_figure, figure_specs
from repro.harness.report import render_figure
from repro.metrics.results import ScenarioResult
from repro.units import GIB, MIB
from repro.vmm.microvm import InvocationStats
from repro.workloads.profile import FUNCTIONS

ALL_FUNCTIONS = [profile.name for profile in FUNCTIONS]

#: Figures whose per-cell summary follows the table.
SUMMARIZED = {"traffic", "storage"}


def canned_result() -> ScenarioResult:
    """One result carrying every field and extra a figure reads."""
    extra = {
        "map_load_seconds": 0.0015,
        "cluster_cold_ratio": 0.25,
        "cluster_p99_latency": 0.4,
        "traffic_invocations": 1000.0,
        "traffic_cold_ratio": 0.2,
        "traffic_p999_e2e": 0.9,
        "snapstore_dedup_factor": 8.5,
        "snapstore_unique_bytes": 300.0 * MIB,
        "snapstore_local_bytes": 1.5 * GIB,
        "snapstore_hdd_bytes": 0.0,
        "snapstore_remote_bytes": 2.0 * GIB,
        "snapstore_remote_fetch_bytes": 120.0 * MIB,
    }
    for tenant in range(8):  # the full traffic spec's tenant count
        for key in ("requests", "cold_ratio", "p99_e2e", "p999_e2e",
                    "p99_cold"):
            extra[f"slo_t{tenant}_{key}"] = 0.5
    return ScenarioResult(
        function="canned", approach="canned", n_instances=10,
        invocations=[InvocationStats(vm_id="vm0", e2e_seconds=0.2)],
        peak_memory_bytes=GIB, end_anon_bytes=GIB, end_file_bytes=GIB,
        extra=extra)


class RecordingCache:
    """Serves the canned result for every spec and logs each lookup;
    flat-file storage cells get it without the snapstore extras, as a
    real flat-file run reports them."""

    def __init__(self):
        self.result = canned_result()
        self.flat = dataclasses.replace(self.result, extra={
            key: value for key, value in self.result.extra.items()
            if not key.startswith("snapstore_")})
        self.reads = set()

    def get(self, spec):
        self.reads.add(spec)
        if spec.cluster is not None and spec.snapstore is None:
            return self.flat
        return self.result


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("figure", FIGURES)
def test_build_reads_exactly_the_swept_cells(figure, quick):
    specs = figure_specs(figure, ALL_FUNCTIONS, quick=quick)
    cache = RecordingCache()
    data = build_figure(figure, cache, functions=ALL_FUNCTIONS, quick=quick)
    assert cache.reads == set(specs)
    assert len(specs) == len(set(specs))
    assert {spec.function.name for spec in specs} == set(ALL_FUNCTIONS)
    assert all(len(values) == len(data.functions)
               for values in data.series.values())
    assert render_figure(data).count("\n") == len(data.functions) + 2
    if figure in SUMMARIZED:
        assert len(data.summary) == len(specs)
    else:
        assert data.summary == []


def test_quick_shrinks_only_the_fleet_figures():
    for figure in FIGURES:
        full = figure_specs(figure, ALL_FUNCTIONS)
        quick = figure_specs(figure, ALL_FUNCTIONS, quick=True)
        if figure in ("cluster", "traffic", "storage"):
            assert quick != full
        else:
            assert quick == full


def test_fleet_figures_default_to_one_base_function():
    for figure in ("cluster", "traffic", "storage"):
        for quick in (False, True):
            names = {spec.function.name
                     for spec in figure_specs(figure, quick=quick)}
            assert names == {"json"}


def test_summaries_read_the_cell_extras():
    traffic = build_figure("traffic", RecordingCache(), quick=True)
    head, header, *tenants = traffic.summary[0].splitlines()
    assert head == ("json/linux-ra [fixed]: 1000 invocations, cold ratio "
                    "0.2000, p99.9 E2E 900.0 ms")
    assert header.split() == ["tenant", "requests", "cold-ratio", "p99",
                              "e2e", "p99.9", "e2e", "p99", "cold"]
    assert len(tenants) == 4  # the quick spec's tenant count
    storage = build_figure("storage", RecordingCache(), quick=True)
    assert storage.summary[0] == ("json/linux-ra [flat random]: flat files "
                                  "(no snapstore)")
    assert storage.summary[2] == (
        "json/linux-ra [local random]: dedup 8.50x, unique 300 MiB, "
        "local 1536 MiB, remote fetched 120 MiB")
