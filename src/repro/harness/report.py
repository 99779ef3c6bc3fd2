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
