"""Figure 3c: system-wide memory for 10 concurrent instances.

Paper shape: userfaultfd-based REAP cannot deduplicate working sets
across sandboxes, so memory scales with the instance count; SnapBPF (and
the vanilla page-cache restores) keep one shared copy.  Reduction is up
to ~6x for the large-working-set functions (bfs, bert).
"""

from repro.harness.figures import build_figure
from repro.harness.report import render_figure


def test_fig3c(benchmark, cache, functions, record):
    # Shares every scenario run with Figure 3b (same experiment).
    build_figure("3b", cache, functions=functions)
    before = len(cache)
    data = benchmark.pedantic(
        lambda: build_figure("3c", cache, functions=functions),
        rounds=1, iterations=1)
    assert len(cache) == before, "3c must reuse 3b's runs"
    record("fig3c", render_figure(data))

    for function in data.functions:
        assert (data.value(function, "snapbpf")
                < data.value(function, "reap"))

    for function in ("bfs", "bert"):
        if function in data.functions:
            ratio = (data.value(function, "reap")
                     / data.value(function, "snapbpf"))
            assert ratio > 3.5, f"{function}: only {ratio:.1f}x reduction"
