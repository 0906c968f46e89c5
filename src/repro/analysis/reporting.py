"""Plain-text table and series rendering for the benchmark harness.

The benches regenerate the paper's tables and figures as text: tables in
a fixed-width ASCII layout, figures (Figs. 2 and 3 are scatter/bar data)
as aligned ``x y`` series plus a crude unicode bar rendering so the
*shape* comparison with the paper can be made in a terminal or log file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass
class Table:
    """A fixed-width text table with a title row."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, cells: Sequence[object]) -> None:
        """Append a row; cells are str()-ed, length-checked."""
        values = [str(cell) for cell in cells]
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        """The table as aligned text with a rule under the header."""
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(
                cell.ljust(widths[index]) for index, cell in enumerate(cells)
            ).rstrip()

        parts = [self.title, line(self.columns), line(["-" * w for w in widths])]
        parts.extend(line(row) for row in self.rows)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()


@dataclass
class Series:
    """Numeric ``(x, y)`` data standing in for one curve of a figure."""

    title: str
    x_label: str
    y_label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def sorted_points(self) -> List[Tuple[float, float]]:
        return sorted(self.points)

    def render(self, bar_width: int = 40) -> str:
        """Aligned ``x y`` rows with proportional unicode bars."""
        if not self.points:
            return f"{self.title}\n(no data)"
        points = self.sorted_points()
        max_y = max(abs(y) for _, y in points) or 1.0
        lines = [self.title, f"{self.x_label:>12}  {self.y_label}"]
        for x, y in points:
            bar = "#" * max(1, int(round(bar_width * abs(y) / max_y))) if y else ""
            lines.append(f"{x:12.4g}  {y:10.4g}  {bar}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_embedding(
    embedding: Iterable[Tuple[object, float]],
    max_entries: Optional[int] = None,
) -> str:
    """Paper-style embedding rendering: ``{a (0.50), b (0.50)}``.

    Entries run by descending weight; tied weights run by ``repr`` of the
    vertex, so the text does not depend on the embedding's dict order.
    """
    items = sorted(embedding, key=lambda kv: (-kv[1], repr(kv[0])))
    if max_entries is not None:
        items = items[:max_entries]
    inner = ", ".join(f"{vertex} ({weight:.2f})" for vertex, weight in items)
    return "{" + inner + "}"


def format_ratio(value: Optional[float]) -> str:
    """Approximation-ratio cell: two decimals or '-' when undefined."""
    return "-" if value is None else f"{value:.2f}"


def yes_no(flag: bool) -> str:
    """Positive-clique style cells."""
    return "Yes" if flag else "No"
