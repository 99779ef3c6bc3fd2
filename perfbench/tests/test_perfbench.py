"""Tests of the benchmark itself, on a shrunken workload.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import passes  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro import ClusterSpec, ScenarioSpec  # noqa: E402
from repro.harness.figures import (STORAGE_TIERS,  # noqa: E402
                                   pressure_ram_bytes)
from repro.units import MIB  # noqa: E402
from repro.workloads.profile import FunctionProfile  # noqa: E402

TINY = FunctionProfile(
    name="tiny", mem_bytes=64 * MIB, ws_bytes=6 * MIB, alloc_bytes=3 * MIB,
    compute_seconds=0.02, write_frac=0.15, run_len_mean=8.0, seed=42)

#: One cell per kind of workload cell, each on a 6 MiB working set.
SHRUNKEN = [
    ("tiny/snapbpf x1", ScenarioSpec(TINY, "snapbpf")),
    ("tiny/faasnap x1", ScenarioSpec(TINY, "faasnap")),
    ("tiny/linux-ra x4 pressure",
     ScenarioSpec(TINY, "linux-ra", n_instances=4,
                  ram_bytes=pressure_ram_bytes(TINY, "linux-ra", 4, 0.25))),
    ("tiny/reap x2 remote",
     ScenarioSpec(TINY, "reap", n_instances=2,
                  snapstore=STORAGE_TIERS["remote"])),
    ("cluster tiny/snapbpf",
     ScenarioSpec(TINY, "snapbpf",
                  cluster=ClusterSpec(n_nodes=2, n_functions=2,
                                      duration=2.0))),
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def shrunken_passes(tmp_path_factory):
    """[untraced, traced, traced] passes of the shrunken workload."""
    out = []
    for n, traced in enumerate((False, True, True)):
        store = tmp_path_factory.mktemp(f"store{n}")
        out.append(passes.run_pass(SHRUNKEN, store, seed=0,
                                   recorder=SpanRecorder() if traced
                                   else None))
    return out


def benchmark_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_self_time_of_nested_calls():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def inner():
        clock.now += 2

    inner = rec.wrap("mm", "mm.inner", inner)

    def outer():
        clock.now += 1
        inner()
        clock.now += 3
        inner()

    rec.wrap("sim", "sim.outer", outer)()
    assert rec.layer_self_s() == {"sim": 4.0, "mm": 4.0}
    assert rec.named(rec.calls) == {"sim.outer": 1, "mm.inner": 2}
    assert rec.covered_s == 8.0
    # Stored spans keep start, end and parent.
    assert [span[1:] for span in rec.spans] == [[0.0, 8.0, -1],
                                                 [1.0, 3.0, 0],
                                                 [6.0, 8.0, 0]]


def test_self_time_of_generator_resumptions():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def fault():
        clock.now += 5
        yield "io"
        clock.now += 7
        return 11

    fault = rec.wrap("kvm", "kvm.fault", fault)

    def body():
        clock.now += 1
        cost = yield from fault()
        clock.now += 2
        return cost

    body = rec.wrap("vmm", "vmm.body", body)

    def step(generator):
        clock.now += 10
        try:
            return generator.send(None)
        except StopIteration as stop:
            return stop.value

    step = rec.wrap("sim", "sim.step", step)
    process = body()
    assert step(process) == "io"
    clock.now += 100  # between resumptions: no span is open
    assert step(process) == 11
    assert rec.layer_self_s() == {"kvm": 12.0, "vmm": 3.0, "sim": 20.0}
    assert rec.named(rec.calls) == {"kvm.fault": 1, "vmm.body": 1,
                                    "sim.step": 2}
    assert rec.covered_s == 35.0


def test_exceptions_thrown_into_traced_generators_propagate():
    rec = SpanRecorder()

    def waiter():
        try:
            yield "wait"
        except KeyError:
            return "interrupted"

    process = rec.wrap("sim", "sim.waiter", waiter)()
    assert next(process) == "wait"
    with pytest.raises(StopIteration) as stop:
        process.throw(KeyError("x"))
    assert stop.value.value == "interrupted"
    assert rec.named(rec.calls) == {"sim.waiter": 1} and len(rec.spans) == 2


def test_every_metric_is_emitted_with_its_unit(shrunken_passes):
    untraced = shrunken_passes[0]
    e2e = run.report(run.end_to_end([untraced], [0.5]),
                     run.END_TO_END_UNITS, correct=True,
                     attempted_cells=1, failed=0)
    layers, drift = run.traced_metrics(shrunken_passes)
    per_layer = run.report(layers, run.PER_LAYER_UNITS, correct=True,
                           attempted_cells=1, failed=0)
    for section, emitted in (("end_to_end", e2e), ("per_layer", per_layer)):
        assert {name: m["unit"] for name, m in emitted["metrics"].items()} \
            == benchmark_units(section)
        assert all(isinstance(m["value"], (int, float))
                   for m in emitted["metrics"].values())
    assert all(value > 0
               for value in run.end_to_end([untraced], [0.5]).values())
    assert drift == []


def test_times_are_scaled_to_the_nominal_host_speed(shrunken_passes):
    untraced = shrunken_passes[0]
    cells = untraced["cells"]
    assert all(c["ref_s"] > 0 for c in cells)
    assert "ref_s" not in shrunken_passes[1]["cells"][0]
    # The pass's wall time is its cells' time, calibration excluded (up
    # to the bookkeeping of the last result).
    assert sum(c["seconds"] for c in cells) == pytest.approx(
        untraced["wall_s"], rel=0.05)
    half_speed = {**untraced, "cells": [
        {**c, "ref_s": 2 * run.NOMINAL_REF_S} for c in cells]}
    metrics = run.end_to_end([half_speed], [0.5])
    assert metrics["wall_s"] == pytest.approx(
        sum(c["seconds"] for c in cells) / 2)
    layers, _ = run.traced_metrics([half_speed, *shrunken_passes[1:]])
    assert layers["slowest_cell_s"] == pytest.approx(
        max(c["seconds"] for c in cells) / 2)


def test_layer_self_times_and_unattributed_add_up_to_wall(shrunken_passes):
    traced = shrunken_passes[1]
    metrics = run.per_layer(traced, shrunken_passes[0]["wall_s"])
    layer_metrics = [name for name in metrics if name.endswith("self_s")]
    total = sum(metrics[name] for name in layer_metrics)
    total += metrics["harness.store_s"] + metrics["unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    # Every traced layer is reported by some metric.
    reported = {name.split(".")[0] for name in layer_metrics}
    reported |= {"reclaim", "harness"}
    assert set(traced["trace"]["layer_self_s"]) <= reported


def test_traced_counts_repeat_exactly(shrunken_passes):
    _, first, second = shrunken_passes
    wall = shrunken_passes[0]["wall_s"]
    a, b = run.per_layer(first, wall), run.per_layer(second, wall)
    assert run.count_drift(a, b) == []
    assert a["sim.events"] > 0 and a["kvm.nested_faults"] > 0
    assert a["ebpf.prog_runs"] > 0 and a["mm.reclaim_scanned"] > 0
    assert a["snapstore.staged_chunks"] > 0 and a["cluster.routes"] > 0


def test_tracing_does_not_change_results(shrunken_passes):
    digests = [[cell["digest"] for cell in p["cells"]]
               for p in shrunken_passes]
    assert digests[0] == digests[1] == digests[2]
    assert all(not cell["problems"] for cell in shrunken_passes[0]["cells"])


def test_corrupted_pinned_digest_fails_the_cell(shrunken_passes):
    record = shrunken_passes[0]
    pins = {cell["spec"]: {"digest": cell["digest"]}
            for cell in record["cells"]}
    assert run.cell_failures([record], pins, None) == []
    label, spec = SHRUNKEN[1]
    pins[spec.stable_hash()]["digest"] = "0" * 64
    failures = run.cell_failures([record], pins, None)
    assert len(failures) == 1 and failures[0].startswith(label)


def test_fig3a_values_are_checked(shrunken_passes):
    record = shrunken_passes[0]
    mean = next(c["mean_e2e"] for c in record["cells"]
                if c["label"] == "tiny/snapbpf x1")
    assert run.cell_failures([record], {},
                             {("tiny", "snapbpf"): f"{mean:.3f}"}) == []
    assert len(run.cell_failures([record], {},
                                 {("tiny", "snapbpf"): "9.999"})) == 1


def test_fig3a_table_parses_the_committed_figure():
    table = run.fig3a_table(ROOT)
    assert table[("json", "snapbpf")] == "0.131"
    assert len(table) == 13 * 3


def test_seed_drives_the_workload_inputs():
    from workloads import WORKLOADS
    for build in WORKLOADS.values():
        a, b = build(0), build(7)
        assert [label for label, _ in a] == [label for label, _ in b]
        for (label, spec_a), (_, spec_b) in zip(a, b):
            if label.startswith("storage ") or label.endswith(" pressure"):
                # Seed-independent by design (see workloads.py).
                assert spec_a == spec_b
                continue
            assert spec_b.input_seed == 7 and spec_a != spec_b
            if spec_b.cluster is not None and spec_b.cluster.traffic:
                assert spec_b.cluster.traffic.seed == 7


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "restore-sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
