"""Tests for Table II statistics and the reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import (
    Series,
    Table,
    format_embedding,
    format_ratio,
    yes_no,
)
from repro.analysis.stats import (
    NamedDifferenceGraph,
    dataset_stats_row,
    dataset_stats_table,
    positive_density_series,
)
from repro.graph.graph import Graph


@pytest.fixture
def entry():
    gd = Graph.from_edges(
        [("a", "b", 2.0), ("b", "c", -1.0), ("c", "d", 0.5)]
    )
    return NamedDifferenceGraph("Toy", "Weighted", "Emerging", gd)


class TestStatsRows:
    def test_row_fields(self, entry):
        row = dataset_stats_row(entry)
        assert row[0] == "Toy"
        assert row[3] == "4"       # n
        assert row[4] == "2"       # m+
        assert row[5] == "1"       # m-
        assert row[6] == "2"       # max w
        assert row[7] == "-1"      # min w
        assert float(row[8]) == pytest.approx(0.5)

    def test_row_with_no_edges(self):
        gd = Graph()
        gd.add_vertex("a")
        row = dataset_stats_row(NamedDifferenceGraph("E", "-", "-", gd))
        assert row[6] == row[7] == row[8] == "-"

    def test_table_renders_all_rows(self, entry):
        table = dataset_stats_table([entry, entry])
        text = table.render()
        assert text.count("Toy") == 2
        assert "Max w" in text

    def test_positive_density_series(self, entry):
        series = positive_density_series([entry])
        assert len(series) == 1
        label, value = series[0]
        assert "Toy" in label
        assert value == pytest.approx(2 / 4)


class TestTable:
    def test_row_arity_checked(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])

    def test_alignment(self):
        table = Table(title="T", columns=["col", "x"])
        table.add_row(["longvalue", "1"])
        lines = table.render().splitlines()
        # Header and row share column offsets.
        assert lines[1].index("x") == lines[3].index("1")

    def test_str_equals_render(self):
        table = Table(title="T", columns=["a"])
        table.add_row(["v"])
        assert str(table) == table.render()


class TestSeries:
    def test_sorted_points(self):
        series = Series(title="s", x_label="x", y_label="y")
        series.add(2.0, 5.0)
        series.add(1.0, 3.0)
        assert series.sorted_points() == [(1.0, 3.0), (2.0, 5.0)]

    def test_render_contains_values_and_bars(self):
        series = Series(title="curve", x_label="x", y_label="y")
        series.add(1.0, 10.0)
        series.add(2.0, 5.0)
        text = series.render(bar_width=10)
        assert "curve" in text
        assert "##########" in text  # the max bar
        assert "#####" in text

    def test_empty_series(self):
        series = Series(title="empty", x_label="x", y_label="y")
        assert "(no data)" in series.render()


class TestFormatters:
    def test_format_embedding(self):
        text = format_embedding([("social", 0.5), ("networks", 0.5)])
        assert text == "{networks (0.50), social (0.50)}"
        # Tied weights run by vertex repr, whatever the input order;
        # weight still comes first.
        text = format_embedding([("b", 0.5), ("a", 0.5)])
        assert text == "{a (0.50), b (0.50)}"
        text = format_embedding([("a", 0.25), ("b", 0.75)])
        assert text == "{b (0.75), a (0.25)}"

    def test_format_embedding_truncates(self):
        items = [(f"w{i}", 1.0 / 10) for i in range(10)]
        text = format_embedding(items, max_entries=2)
        assert text.count("(") == 2

    def test_format_ratio(self):
        assert format_ratio(None) == "-"
        assert format_ratio(2.13) == "2.13"

    def test_yes_no(self):
        assert yes_no(True) == "Yes"
        assert yes_no(False) == "No"
