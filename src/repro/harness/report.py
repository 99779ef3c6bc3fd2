"""Plain-text rendering of regenerated figures and tables.

``python -m repro fig NAME``, ``python -m repro table1`` and
``examples/faas_node.py`` print these renderings; each file under
``results/`` is one command's stdout, so the paper-vs-measured
comparison in EXPERIMENTS.md can be regenerated command by command.
"""

from __future__ import annotations

from repro.harness.figures import FigureData


def render_table(rows: list[list[str]], title: str = "") -> str:
    """Fixed-width table; first row is the header."""
    if not rows:
        return title
    widths = [max(len(str(row[col])) for row in rows)
              for col in range(len(rows[0]))]
    lines = []
    if title:
        lines.append(title)
    header, *body = rows
    lines.append("  ".join(str(cell).ljust(width)
                           for cell, width in zip(header, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in body:
        lines.append("  ".join(str(cell).ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def scenario_rows(results) -> list[list[str]]:
    """Header + one row per :class:`ScenarioResult`, with E2E latency
    percentiles (ms) and device-side request-latency percentiles (us)."""
    header = ["function", "approach", "n", "mean E2E (ms)", "p50 (ms)",
              "p95 (ms)", "p99 (ms)", "dev p50 (us)", "dev p95 (us)",
              "dev p99 (us)", "peak mem (GiB)", "I/O reqs"]
    rows = [header]
    for res in results:
        rows.append([
            res.function,
            res.approach,
            str(res.n_instances),
            f"{res.mean_e2e * 1e3:.1f}",
            f"{res.p50_e2e * 1e3:.1f}",
            f"{res.p95_e2e * 1e3:.1f}",
            f"{res.p99_e2e * 1e3:.1f}",
            f"{res.device_p50_latency * 1e6:.0f}",
            f"{res.device_p95_latency * 1e6:.0f}",
            f"{res.device_p99_latency * 1e6:.0f}",
            f"{res.peak_memory_gib:.2f}",
            str(res.device_requests),
        ])
    return rows


def render_scenarios(results, title: str = "") -> str:
    """Scenario summary table with latency percentile columns."""
    return render_table(scenario_rows(results), title=title)


def render_figure(data: FigureData) -> str:
    title = f"Figure {data.figure}: {data.ylabel}"
    if data.notes:
        title += f"  [{data.notes}]"
    return render_table(data.as_rows(), title=title)


def render_table1(rows: list[dict[str, str]]) -> str:
    header = ["approach", "mechanism", "space", "on-disk WS",
              "in-mem dedup", "alloc filtering", "pre-scan"]
    keys = ["approach", "mechanism", "space", "on_disk_ws_serialization",
            "in_memory_ws_dedup", "stateless_alloc_filtering",
            "snapshot_prescan"]
    table = [header] + [[row[k] for k in keys] for row in rows]
    return render_table(table, title="Table 1: snapshot prefetching "
                                     "technique comparison")
