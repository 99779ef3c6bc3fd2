"""Figure 3b: E2E latency for 10 concurrent instances (identical inputs),
normalized to Linux-NoRA.

Paper shape: SnapBPF beats vanilla firecracker (both readahead settings)
and REAP; for large-working-set functions (bert) REAP is ~8x slower than
SnapBPF because every instance re-reads and re-installs a private copy
of the working set.
"""

from repro.harness.figures import build_figure
from repro.harness.report import render_figure


def test_fig3b(benchmark, cache, functions, record):
    data = benchmark.pedantic(
        lambda: build_figure("3b", cache, functions=functions),
        rounds=1, iterations=1)
    record("fig3b", render_figure(data))

    for function in data.functions:
        snapbpf = data.value(function, "snapbpf")
        # SnapBPF beats vanilla firecracker with and without readahead...
        assert snapbpf < data.value(function, "linux-nora") == 1.0
        assert snapbpf < data.value(function, "linux-ra")
        # ...and REAP.
        assert snapbpf < data.value(function, "reap")

    # The headline: bert is several times slower on REAP (paper: 8x).
    if "bert" in data.functions:
        ratio = data.value("bert", "reap") / data.value("bert", "snapbpf")
        assert ratio > 4.0, f"bert REAP/SnapBPF ratio {ratio:.1f}x"
