"""Static, dependency-free figure output.

Renders scatter plots and line traces as self-contained SVG text, plus CSV
writers for the underlying data. Rendering is fully deterministic: fixed
canvas, fixed palette, fixed tick count, fixed number formatting — identical
input produces byte-identical output.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_MARKERS = ("circle", "square", "triangle", "diamond")

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 48.0
_MARGIN_BOTTOM = 56.0
_TICKS = 5


def escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``>`` and ``<`` as entities,
    replaced in that order, as ``xml.sax.saxutils.escape`` does. Quotes stay
    as they are; no attribute value is escaped."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class Series:
    """One plotted data series: markers for fronts, a line for traces."""

    label: str
    points: tuple[tuple[float, float], ...]
    style: str = "markers"  # "markers" | "line"

    def __post_init__(self) -> None:
        if self.style not in ("markers", "line"):
            raise ValueError(f"unknown series style {self.style!r}")
        for point in self.points:
            if len(point) != 2:
                raise ValueError(f"series {self.label!r} has a non-(x, y) point: {point!r}")


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def _marker_svg(shape: str, x: float, y: float, color: str) -> str:
    s = 4.0
    if shape == "circle":
        return (
            f'<circle class="marker" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(s)}" '
            f'fill="{color}" />'
        )
    if shape == "square":
        return (
            f'<rect class="marker" x="{_fmt(x - s)}" y="{_fmt(y - s)}" '
            f'width="{_fmt(2 * s)}" height="{_fmt(2 * s)}" fill="{color}" />'
        )
    if shape == "triangle":
        pts = f"{_fmt(x)},{_fmt(y - s)} {_fmt(x - s)},{_fmt(y + s)} {_fmt(x + s)},{_fmt(y + s)}"
        return f'<polygon class="marker" points="{pts}" fill="{color}" />'
    pts = f"{_fmt(x)},{_fmt(y - s)} {_fmt(x + s)},{_fmt(y)} {_fmt(x)},{_fmt(y + s)} {_fmt(x - s)},{_fmt(y)}"
    return f'<polygon class="marker" points="{pts}" fill="{color}" />'


def render_svg(
    series: Sequence[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
    annotation: str | None = None,
) -> str:
    """Self-contained SVG for a set of series sharing one axis frame.

    Empty input (no series, or all series empty) renders the frame only and
    emits a warning.
    """
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    if not xs:
        warnings.warn(f"plot {title!r} has no points; rendering empty axes", stacklevel=2)
        x_range, y_range = (0.0, 1.0), (0.0, 1.0)
    else:
        x_range, y_range = _axis_range(xs), _axis_range(ys)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_range[0]) / (x_range[1] - x_range[0]) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_range[0]) / (y_range[1] - y_range[0]) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    out.append(f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white" />')
    out.append(
        f'<text x="{_fmt(_WIDTH / 2)}" y="24.00" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>'
    )
    # axes frame
    out.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333" stroke-width="1" />'
    )
    for t in range(_TICKS):
        frac = t / (_TICKS - 1)
        xv = x_range[0] + frac * (x_range[1] - x_range[0])
        yv = y_range[0] + frac * (y_range[1] - y_range[0])
        xp, yp = px(xv), py(yv)
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" x2="{_fmt(xp)}" '
            f'y2="{_fmt(_MARGIN_TOP + plot_h + 5)}" stroke="#333333" />'
        )
        out.append(
            f'<text x="{_fmt(xp)}" y="{_fmt(_MARGIN_TOP + plot_h + 20)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{escape(_tick_label(xv))}</text>"
        )
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(yp)}" x2="{_fmt(_MARGIN_LEFT)}" '
            f'y2="{_fmt(yp)}" stroke="#333333" />'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{escape(_tick_label(yv))}</text>'
        )
    out.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 12)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{escape(x_label)}</text>"
    )
    out.append(
        f'<text x="18.00" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18.00 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
        f"{escape(y_label)}</text>"
    )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        shape = _MARKERS[idx % len(_MARKERS)]
        if s.style == "line" and len(s.points) >= 2:
            pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in s.points)
            out.append(
                f'<polyline class="trace" points="{pts}" fill="none" '
                f'stroke="{color}" stroke-width="1.5" />'
            )
        else:
            for x, y in s.points:
                out.append(_marker_svg(shape, px(x), py(y), color))

    # legend, top-right inside the frame
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        shape = _MARKERS[idx % len(_MARKERS)]
        ly = _MARGIN_TOP + 14 + 18 * idx
        lx = _WIDTH - _MARGIN_RIGHT - 150
        out.append(f'<g class="legend-entry">{_marker_svg(shape, lx, ly - 4, color)}'
                   f'<text x="{_fmt(lx + 10)}" y="{_fmt(ly)}" font-family="sans-serif" '
                   f'font-size="12">{escape(s.label)}</text></g>')

    if annotation:
        out.append(
            f'<text class="annotation" x="{_fmt(_WIDTH - _MARGIN_RIGHT - 8)}" '
            f'y="{_fmt(_MARGIN_TOP + plot_h - 10)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{escape(annotation)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV with one header row; csv writes a float as its repr, which round-trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
