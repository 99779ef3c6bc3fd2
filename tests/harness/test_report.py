"""Report rendering edge cases."""

from repro.harness.figures import FigureData
from repro.harness.report import render_figure, render_table


def test_empty_rows():
    assert render_table([], title="nothing") == "nothing"


def test_column_alignment():
    text = render_table([["name", "value"], ["a-very-long-name", "1"],
                         ["b", "1234567"]])
    lines = text.splitlines()
    assert len({line.index("  ") for line in lines if "  " in line}) >= 1
    # Header separator width matches the widest cell.
    assert lines[1].startswith("-" * len("a-very-long-name"))


def test_figure_rendering_includes_notes():
    data = FigureData(figure="9", ylabel="y", functions=["f1"],
                      series={"s": [0.5]}, notes="a note")
    text = render_figure(data)
    assert "Figure 9" in text and "a note" in text and "0.500" in text


def test_figure_without_notes():
    data = FigureData(figure="9", ylabel="y", functions=["f1"],
                      series={"s": [1.0]})
    assert "[" not in render_figure(data).splitlines()[0]
