"""Plain-text rendering of benchmark series (the paper's plots as tables)."""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_series", "format_table"]


def format_series(
    title: str,
    series: Dict[object, Dict[object, float]],
    *,
    x_label: str = "x",
    unit: str = "MB/s",
) -> str:
    """Render {series: {x: y}} as an aligned table (x down, series across)."""
    xs: List[object] = sorted({x for ys in series.values() for x in ys})
    names = list(series)
    widths = [max(10, len(str(n)) + 2) for n in names]
    lines = [title, "-" * len(title)]
    header = f"{x_label:>12} " + " ".join(
        f"{str(n):>{w}}" for n, w in zip(names, widths)
    )
    lines.append(header + f"   [{unit}]")
    for x in xs:
        row = f"{str(x):>12} "
        for n, w in zip(names, widths):
            y = series[n].get(x)
            row += f"{y:>{w}.2f} " if y is not None else " " * (w + 1)
        lines.append(row.rstrip())
    return "\n".join(lines)


def format_table(title: str, rows: Sequence[Dict[str, object]]) -> str:
    """Render a list of {column: value} dicts as an aligned table."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    lines = [title, "-" * len(title)]
    lines.append("  ".join(f"{c:>{widths[c]}}" for c in cols))
    for r in rows:
        lines.append("  ".join(f"{_fmt(r.get(c)):>{widths[c]}}" for c in cols))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)
