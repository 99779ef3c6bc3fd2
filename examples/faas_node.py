#!/usr/bin/env python3
"""A serverless node under mixed Poisson traffic.

The paper measures one function at a time; this example runs a
provider-style node: four functions with different arrival rates and a
short warm-pool TTL, so cold starts happen exactly when the keep-alive
pool misses.  It compares REAP against SnapBPF on the metrics a platform
team cares about — cold-start p50/p99 and node memory — and prints the
table committed as ``results/platform_node.txt`` (at the default 20 s).

It exits 1 unless the per-scenario advantages survive at node level:
SnapBPF beats REAP on cold-start p50 and p99 and on peak node memory,
and warm starts, which restore nothing, stay approach-independent.

Run:
    python examples/faas_node.py [duration_seconds]
"""

import sys

from repro import GIB, make_kernel, profile_by_name
from repro.cluster.keepalive import FixedTTLPolicy
from repro.harness.report import render_table
from repro.platform import FaaSNode, poisson_arrivals

MIX = [
    (profile_by_name("html"), 1.2),       # chatty front-end function
    (profile_by_name("json"), 0.8),
    (profile_by_name("chameleon"), 0.4),
    (profile_by_name("rnn"), 0.2),        # heavyweight model serving
]
WARM_TTL = 2.0  # seconds — aggressive scale-down, plenty of cold starts


def run_node(approach: str, duration: float):
    node = FaaSNode(make_kernel(), approach,
                    [profile for profile, _rate in MIX],
                    keepalive=FixedTTLPolicy(WARM_TTL))
    return node.run(poisson_arrivals(MIX, duration=duration, seed=42))


def failed_claims(reap, snapbpf) -> list[str]:
    """The node-level claims the two reports break."""
    claims = {
        "both nodes serve the same traffic":
            len(reap.results) == len(snapbpf.results),
        "SnapBPF has the lower cold-start p50":
            snapbpf.percentile(50, cold=True) < reap.percentile(50, cold=True),
        "SnapBPF has the lower cold-start p99":
            snapbpf.percentile(99, cold=True) < reap.percentile(99, cold=True),
        "SnapBPF needs less node memory":
            snapbpf.peak_memory_bytes < reap.peak_memory_bytes,
        "warm starts are approach-independent":
            not (reap.warm_starts and snapbpf.warm_starts)
            or abs(reap.percentile(50, cold=False)
                   - snapbpf.percentile(50, cold=False))
            < 0.5 * reap.percentile(50, cold=False),
    }
    return [text for text, holds in claims.items() if not holds]


def main() -> int:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 20.0
    reports = {approach: run_node(approach, duration)
               for approach in ("reap", "snapbpf")}
    table = [["approach", "requests", "cold", "cold p50 (ms)",
              "cold p99 (ms)", "peak mem (GiB)"]]
    for approach, report in reports.items():
        table.append([
            approach, str(len(report.results)), str(report.cold_starts),
            f"{report.percentile(50, cold=True) * 1e3:.1f}",
            f"{report.percentile(99, cold=True) * 1e3:.1f}",
            f"{report.peak_memory_bytes / GIB:.2f}"])
    print(render_table(table, title=f"Node study: {duration:.0f}s Poisson "
                                    f"mix, warm TTL {WARM_TTL}s"))
    failed = failed_claims(reports["reap"], reports["snapbpf"])
    for text in failed:
        print(f"claim failed: {text}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
