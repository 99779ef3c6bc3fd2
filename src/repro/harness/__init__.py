"""Experiment harness: scenario runner + figure/table regeneration."""

from repro.harness.chaos import (
    fixed_interval_arrivals,
    render_chaos,
    run_chaos_scenario,
)
from repro.harness.experiment import (
    ResultCache,
    execute_spec,
    make_kernel,
    run_scenario,
)
from repro.harness.figures import (
    CONCURRENT_INSTANCES,
    FIGURES,
    FigureData,
    build_figure,
    figure_specs,
    matrix_specs,
    table_1,
)
from repro.harness.report import render_figure, render_table, render_table1
from repro.harness.spec import SCHEMA_VERSION, ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner, SweepStats

__all__ = [
    "CONCURRENT_INSTANCES",
    "FIGURES",
    "FigureData",
    "ResultCache",
    "ResultStore",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "SweepRunner",
    "SweepStats",
    "build_figure",
    "execute_spec",
    "figure_specs",
    "fixed_interval_arrivals",
    "make_kernel",
    "matrix_specs",
    "render_chaos",
    "render_figure",
    "render_table",
    "render_table1",
    "run_chaos_scenario",
    "run_scenario",
    "table_1",
]
