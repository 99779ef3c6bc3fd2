"""Figure builders on small profiles (full-size runs: ``python -m repro
fig NAME``, which also checks each figure's claims)."""

import pytest

from repro.harness.experiment import ResultCache
from repro.harness.figures import build_figure, table_1
from repro.harness.report import render_figure, render_table, render_table1


@pytest.fixture(scope="module")
def cache():
    return ResultCache()


@pytest.fixture(scope="module")
def small(tiny_profile_module):
    return [tiny_profile_module]


@pytest.fixture(scope="module")
def tiny_profile_module():
    from repro.units import MIB
    from repro.workloads.profile import FunctionProfile
    return FunctionProfile(
        name="tiny", mem_bytes=64 * MIB, ws_bytes=6 * MIB,
        alloc_bytes=3 * MIB, compute_seconds=0.02, write_frac=0.15,
        run_len_mean=8.0, seed=42)


def test_figure_3a_series(cache, small):
    data = build_figure("3a", cache, functions=small)
    assert set(data.series) == {"reap", "faasnap", "snapbpf"}
    assert data.functions == ["tiny"]
    assert all(v > 0 for series in data.series.values() for v in series)


def test_figure_3b_normalized(cache, small):
    data = build_figure("3b", cache, functions=small)
    assert set(data.series) == {"linux-nora", "linux-ra", "reap", "snapbpf"}
    assert data.series["linux-nora"] == [1.0]
    assert data.value("tiny", "snapbpf") < 1.0


def test_figure_3c_memory(cache, small):
    data = build_figure("3c", cache, functions=small)
    assert data.value("tiny", "reap") > data.value("tiny", "snapbpf")


def test_figure_3b_and_3c_share_runs(cache, small):
    build_figure("3b", cache, functions=small)
    mid = len(cache)
    build_figure("3c", cache, functions=small)
    assert len(cache) == mid  # 3c added no new scenario runs


def test_figure_4_breakdown(cache, small):
    data = build_figure("4", cache, functions=small)
    assert data.series["linux-ra"] == [1.0]
    assert data.value("tiny", "snapbpf") <= data.value("tiny", "pv-ptes")


def test_overheads(cache, small):
    data = build_figure("overheads", cache, functions=small)
    assert 0 < data.value("tiny", "fraction_of_e2e") < 0.05


def test_table_1_matches_paper():
    """The paper's Table 1, row by row."""
    rows = {row["approach"]: row for row in table_1()}
    assert list(rows) == ["reap", "faast", "faasnap", "snapbpf"]
    assert rows["reap"] == {
        "approach": "reap", "mechanism": "userfaultfd",
        "space": "User-space", "on_disk_ws_serialization": "Yes",
        "in_memory_ws_dedup": "No", "stateless_alloc_filtering": "No",
        "snapshot_prescan": "No"}
    assert rows["faast"]["stateless_alloc_filtering"] == "Yes"
    assert rows["faast"]["snapshot_prescan"] == "Yes"
    assert all(rows[a]["on_disk_ws_serialization"] == "Yes"
               for a in ("reap", "faast", "faasnap"))
    assert rows["faasnap"] == {
        "approach": "faasnap", "mechanism": "mincore / mmap",
        "space": "User-space", "on_disk_ws_serialization": "Yes",
        "in_memory_ws_dedup": "Yes", "stateless_alloc_filtering": "Yes",
        "snapshot_prescan": "Yes"}
    assert rows["snapbpf"] == {
        "approach": "snapbpf", "mechanism": "eBPF",
        "space": "Kernel-space", "on_disk_ws_serialization": "No",
        "in_memory_ws_dedup": "Yes", "stateless_alloc_filtering": "Yes",
        "snapshot_prescan": "No"}


def test_renderers_produce_text(cache, small):
    data = build_figure("3a", cache, functions=small)
    text = render_figure(data)
    assert "Figure 3a" in text and "tiny" in text
    table1 = render_table1(table_1())
    assert "snapbpf" in table1 and "Kernel-space" in table1
    assert render_table([["h1", "h2"], ["a", "b"]]).count("\n") == 2


def test_value_accessor(cache, small):
    data = build_figure("3a", cache, functions=small)
    assert data.value("tiny", "reap") == data.series["reap"][0]
    rows = data.as_rows()
    assert rows[0][0] == "function"
