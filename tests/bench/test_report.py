"""Table/Series formatting helpers."""

import pytest

from repro.bench.report import Series, Table, print_figure


class TestTable:
    def test_renders_rows_and_notes(self):
        table = Table("My Table", ["A", "B"])
        table.add_row("x", 1)
        table.add_row("yy", 22)
        table.add_note("a note")
        text = str(table)
        assert "My Table" in text
        assert "x" in text and "22" in text
        assert "note: a note" in text

    def test_column_count_enforced(self):
        table = Table("T", ["A", "B"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_empty_table_renders(self):
        assert "T" in str(Table("T", ["A"]))

    def test_alignment_pads_columns(self):
        table = Table("T", ["col", "x"])
        table.add_row("short", 1)
        table.add_row("a much longer cell", 2)
        lines = str(table).splitlines()
        data_lines = [l for l in lines if "|" in l]
        assert len({len(l) for l in data_lines}) == 1


class TestSeries:
    def test_add_and_lookup(self):
        s = Series("curve")
        s.add(1.0, 10.0)
        s.add(2.0, 20.0)
        assert s.y_at(2.0) == 20.0

    def test_missing_x_raises(self):
        s = Series("curve")
        s.add(1.0, 10.0)
        with pytest.raises(ValueError):
            s.y_at(9.0)

    def test_print_figure(self):
        s = Series("c1")
        s.add(1, 2)
        out = print_figure("Fig", [s], "x", "y")
        assert "Fig" in out and "c1" in out


class TestAsciiChart:
    def _series(self):
        from repro.bench.report import Series

        s = Series("curve")
        for x, y in [(1, 10), (10, 50), (100, 90)]:
            s.add(x, y)
        return s

    def test_renders_grid_and_legend(self):
        from repro.bench.report import ascii_chart

        out = ascii_chart([self._series()])
        assert "curve" in out
        assert "*" in out
        assert "+-" in out  # axis

    def test_empty_series(self):
        from repro.bench.report import Series, ascii_chart

        assert ascii_chart([Series("e")]) == "(no data)"

    def test_log_x(self):
        from repro.bench.report import ascii_chart

        out = ascii_chart([self._series()], log_x=True)
        assert "(log x)" in out

    def test_flat_series_does_not_crash(self):
        from repro.bench.report import Series, ascii_chart

        s = Series("flat")
        s.add(1, 5.0)
        s.add(2, 5.0)
        assert "flat" in ascii_chart([s])

    def test_multiple_markers(self):
        from repro.bench.report import Series, ascii_chart

        a, b = self._series(), Series("other")
        b.add(1, 20)
        out = ascii_chart([a, b])
        assert "o other" in out
