"""Plain-text table/series reporting for the benchmark harness.

Every benchmark prints the rows the paper-style comparison would tabulate.
The helpers here keep that formatting consistent (aligned columns, fixed
float precision) and dependency-free so benchmark output is readable in CI
logs.
"""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], precision: int = 4) -> str:
    """Render rows as an aligned text table.

    Floats are formatted to ``precision`` significant digits; everything
    else is stringified.
    """
    def render(cell) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return f"{cell:.{precision}g}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    if rendered:
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rendered))
            for i in range(len(headers))
        ]
    else:
        widths = [len(h) for h in headers]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence, x_label: str = "x", y_label: str = "y") -> str:
    """Render an (x, y) series as the text form of a figure curve."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    rows = list(zip(xs, ys))
    return f"# series: {name}\n" + format_table([x_label, y_label], rows)


def format_dict(title: str, values: Dict) -> str:
    """Render a metrics dictionary as an aligned key/value block."""
    if not values:
        return f"# {title}\n(empty)"
    width = max(len(str(key)) for key in values)
    lines = [f"# {title}"]
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f"{str(key).ljust(width)}  {value:.6g}")
        else:
            lines.append(f"{str(key).ljust(width)}  {value}")
    return "\n".join(lines)
