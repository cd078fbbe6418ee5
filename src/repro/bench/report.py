"""Row/series formatting so benchmarks print paper-shaped output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


@dataclass
class Table:
    """A printable table mirroring one of the paper's tables."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def __str__(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(h)), *(len(row[i]) for row in cells)) if cells else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class Series:
    """One curve of a figure: (x, y) pairs plus a label."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x: float) -> float:
        """Exact-x lookup (benchmarks sweep fixed grids)."""
        return self.ys[self.xs.index(x)]

    def __str__(self) -> str:
        lines = [f"series: {self.label}"]
        for x, y in zip(self.xs, self.ys):
            lines.append(f"  {x:10.1f}  {y:12.3f}")
        return "\n".join(lines)


def ascii_chart(
    series: Sequence[Series], width: int = 64, height: int = 16,
    log_x: bool = False,
) -> str:
    """Render curves as an ASCII scatter chart (one marker per series)."""
    import math

    points = [(s, x, y) for s in series for x, y in zip(s.xs, s.ys)]
    if not points:
        return "(no data)"
    xs = [math.log10(x) if log_x and x > 0 else x for _, x, _ in points]
    ys = [y for _, _, y in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@%&"
    for index, s in enumerate(series):
        mark = markers[index % len(markers)]
        for x, y in zip(s.xs, s.ys):
            gx = math.log10(x) if log_x and x > 0 else x
            col = int((gx - x0) / x_span * (width - 1))
            row = int((y - y0) / y_span * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    for i, row in enumerate(grid):
        label = f"{y1 - i * y_span / (height - 1):10.1f} |" if height > 1 else "|"
        lines.append(label + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(
        " " * 12 + f"{x0:<10.4g}" + " " * max(0, width - 20) + f"{x1:>10.4g}"
        + ("  (log x)" if log_x else "")
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def print_figure(
    title: str, series: Sequence[Series], x_name: str, y_name: str,
    chart: bool = True,
) -> str:
    lines = [title, "=" * len(title), f"x = {x_name}, y = {y_name}"]
    for s in series:
        lines.append(str(s))
    if chart and any(s.xs for s in series):
        lines.append("")
        lines.append(ascii_chart(series))
    return "\n".join(lines)
