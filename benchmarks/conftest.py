"""Benchmark harness configuration.

Each benchmark file regenerates one table/figure of the paper (or one
ablation from DESIGN.md).  Scenario runs are shared through a session-
scoped :class:`ResultCache` — Figure 3b and 3c reuse the same concurrent
runs, Figure 3a and 4 share their single-instance SnapBPF runs, exactly
as the paper measures once and reports twice.

Rendered outputs are written to ``results/*.txt`` so EXPERIMENTS.md can
be checked against a fresh run.

Environment knobs:
  REPRO_BENCH_FUNCTIONS=json,bert   subset the 13 functions (quick runs)
  REPRO_BENCH_JOBS=4                pre-sweep the figure matrix across N
                                    worker processes (results identical)
  REPRO_BENCH_CACHE_DIR=.sweep-cache  persist scenario results on disk;
                                    warm reruns simulate nothing
  REPRO_BENCH_NO_CACHE=1            ignore the cache dir for this run
  REPRO_BENCH_TIMEOUT=300           per-cell deadline (seconds) for the
                                    pre-sweep's supervisor
  REPRO_BENCH_MAX_RETRIES=2         retries per cell for worker crashes
                                    and deadline expiries
  REPRO_BENCH_KEEP_GOING=1          quarantine permanently-failed cells
                                    instead of aborting the pre-sweep
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.experiment import ResultCache
from repro.harness.figures import matrix_specs
from repro.harness.sweep import ResultStore, SweepRunner
from repro.workloads.profile import FUNCTIONS

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: The figures the benchmarks here build, and so the only ones the
#: pre-sweep warms (the mem and fleet figures are not benchmarked).
BENCHMARKED_FIGURES = ("3a", "3b", "3c", "4", "overheads")


def selected_functions():
    wanted = os.environ.get("REPRO_BENCH_FUNCTIONS")
    if not wanted:
        return list(FUNCTIONS)
    names = {name.strip() for name in wanted.split(",")}
    return [p for p in FUNCTIONS if p.name in names]


@pytest.fixture(scope="session")
def cache() -> ResultCache:
    store = None
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if cache_dir and not os.environ.get("REPRO_BENCH_NO_CACHE"):
        store = ResultStore(cache_dir)
    cache = ResultCache(store=store)
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    if jobs > 1:
        # Pre-sweep the whole figure matrix in parallel; the benchmarks
        # then read every cell straight out of the warm cache.  The
        # supervisor checkpoints each cell as it finishes, so a killed
        # bench run resumes from the store instead of starting over.
        timeout_env = os.environ.get("REPRO_BENCH_TIMEOUT")
        runner = SweepRunner(
            cache, jobs=jobs,
            timeout=float(timeout_env) if timeout_env else None,
            max_retries=int(os.environ.get("REPRO_BENCH_MAX_RETRIES",
                                           "2") or "2"),
            keep_going=bool(os.environ.get("REPRO_BENCH_KEEP_GOING")))
        runner.run(matrix_specs(figures=BENCHMARKED_FIGURES,
                                functions=selected_functions()))
        print(runner.last_stats.summary())
    return cache


@pytest.fixture(scope="session")
def functions():
    return selected_functions()


@pytest.fixture(scope="session")
def record():
    """Write a rendered table to results/<name>.txt and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record
