"""Front quality metrics and comparison tables.

Hypervolume is the exact 2D dominated area between a front and a reference
point (minimization). Fronts from different solvers are compared per
instance as percentages of the row's best hypervolume, the convention being
that winners read 100.00.
"""

from __future__ import annotations

import bisect
import re
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np


class MetricError(ValueError):
    """Metric preconditions violated (empty input, zero variance, ...)."""


Point = tuple[float, float]

REFERENCE_SCALE = 1.1
REFERENCE_EPS = 1e-6


def nondominated(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the points that no other point weakly dominates (minimization).

    Points have 2 or 3 objectives. Each distinct point is kept once, as its
    earliest copy, and indices come back in input order. After a stable
    lexicographic sort, whatever dominates a point precedes it, so a point
    survives when no earlier survivor is at or below it in the last two
    objectives. Survivors' (second, third) pairs are kept as a staircase
    (second ascending, third descending) that answers this by bisection
    (the 3D maxima test of Kung, Luccio and Preparata, JACM 1975).
    """
    dims = {len(p) for p in points}
    if len(dims) > 1 or not dims <= {2, 3}:
        raise MetricError("nondominated expects points with 2 or 3 objectives each")
    kept: list[int] = []
    stair_b: list[float] = []
    stair_c: list[float] = []
    previous = None
    for i in sorted(range(len(points)), key=points.__getitem__):
        point = points[i]
        if point == previous:
            continue
        previous = point
        b, c = point[1], point[2] if len(point) == 3 else 0.0
        j = bisect.bisect_right(stair_b, b)
        if j and stair_c[j - 1] <= c:
            continue
        kept.append(i)
        end = j
        while end < len(stair_b) and stair_c[end] >= c:
            end += 1
        stair_b[j:end] = [b]
        stair_c[j:end] = [c]
    return sorted(kept)


def hypervolume_2d(points: Iterable[Point], reference: Point) -> float:
    """Exact dominated area between a 2D front and a reference (minimization).

    Dominated points are filtered first. Points that do not strictly dominate
    the reference contribute nothing and are dropped with a warning.

    Args:
        points: Objective pairs.
        reference: Upper-right reference point.

    Returns:
        Area of the union of rectangles spanned by the points and the
        reference; 0.0 for an empty (or fully excluded) front.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MetricError(f"expected an (n, 2) collection of points, got shape {pts.shape}")
    rx, ry = float(reference[0]), float(reference[1])
    inside = (pts[:, 0] < rx) & (pts[:, 1] < ry)
    excluded = int((~inside).sum())
    if excluded:
        warnings.warn(
            f"hypervolume_2d: {excluded} point(s) do not strictly dominate the "
            f"reference {reference} and were excluded",
            stacklevel=2,
        )
    pts = pts[inside]
    if len(pts) == 0:
        return 0.0
    pts = pts.tolist()
    front = sorted(pts[i] for i in nondominated(pts))
    area = 0.0
    prev_y = ry
    for x, y in front:
        area += (rx - x) * (prev_y - y)
        prev_y = y
    return float(area)


def shared_reference(fronts: Iterable[Iterable[Point]]) -> Point:
    """Common reference point for a set of fronts.

    Componentwise maximum over the union of all points, scaled by
    :data:`REFERENCE_SCALE`; a component whose maximum is zero becomes
    :data:`REFERENCE_EPS` so that zero-valued objectives still strictly
    dominate the reference.
    """
    best: list[float] | None = None
    for front in fronts:
        for p in front:
            if best is None:
                best = [float(p[0]), float(p[1])]
            else:
                best[0] = max(best[0], float(p[0]))
                best[1] = max(best[1], float(p[1]))
    if best is None:
        raise MetricError("cannot build a reference point from zero points")
    return tuple(v * REFERENCE_SCALE if v > 0.0 else REFERENCE_EPS for v in best)  # type: ignore[return-value]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped into [-1, 1].

    Raises:
        MetricError: on fewer than two points or zero variance in either
            argument.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError(f"expected equal-length 1D sequences, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise MetricError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise MetricError("correlation is undefined for a zero-variance sequence")
    r = float((dx * dy).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class FrontSummary:
    """One solver's front on one instance, ready for table assembly."""

    instance_id: str
    algorithm: str
    tuned: bool
    hypervolume: float
    relative_pct: float | None = None
    degenerate: bool = False


def relative_hv_table(summaries: Sequence[FrontSummary]) -> list[FrontSummary]:
    """Fill per-row relative hypervolume percentages.

    Rows are instances; within a row every summary is scored as
    ``100 * hv / max(hv)`` so at least one entry reads exactly 100.0 (ties
    share it). A row whose maximum hypervolume is zero is flagged degenerate
    and scored 0.
    """
    by_instance: dict[str, list[FrontSummary]] = {}
    for s in summaries:
        by_instance.setdefault(s.instance_id, []).append(s)
    out: list[FrontSummary] = []
    for instance in by_instance:
        group = by_instance[instance]
        best = max(s.hypervolume for s in group)
        for s in group:
            if best > 0.0:
                out.append(replace(s, relative_pct=100.0 * s.hypervolume / best))
            else:
                out.append(replace(s, relative_pct=0.0, degenerate=True))
    return out


def _column_order(summaries: Sequence[FrontSummary]) -> list[tuple[str, bool]]:
    """Tuned columns first, then untuned; algorithms in canonical order."""
    canonical = ["spea2", "nsga2", "nsga3"]
    algos = sorted({s.algorithm for s in summaries}, key=lambda a: (canonical.index(a) if a in canonical else len(canonical), a))
    tuned_flags = sorted({s.tuned for s in summaries}, reverse=True)  # True before False
    return [(a, t) for t in tuned_flags for a in algos]


def _instance_sort_key(instance_id: str):
    m = re.fullmatch(r"T(\d+)-(\d+)", instance_id)
    if m:
        return (0, int(m.group(1)), int(m.group(2)), instance_id)
    return (1, 0, 0, instance_id)


def _table_body(
    summaries: Sequence[FrontSummary], pct_format: str, missing: str
) -> tuple[list[tuple[str, bool]], list[list[str]]]:
    """The table's (algorithm, tuned) columns and one row per instance in
    suite order: the instance id, then each column's relative hypervolume
    through ``pct_format``, or ``missing`` where that run is absent."""
    rows = relative_hv_table(summaries)
    columns = _column_order(rows)
    pct = {(s.instance_id, s.algorithm, s.tuned): s.relative_pct for s in rows}
    instances = sorted({s.instance_id for s in rows}, key=_instance_sort_key)
    return columns, [
        [i] + [pct_format.format(pct[i, a, t]) if (i, a, t) in pct else missing for a, t in columns]
        for i in instances
    ]


def table_csv(summaries: Sequence[FrontSummary]) -> str:
    """Relative-hypervolume table as CSV (two-decimal percentages)."""
    columns, body = _table_body(summaries, "{:.2f}", "")
    header = ["instance"] + [
        f"{algo}_{'tuned' if tuned else 'untuned'}_pct" for algo, tuned in columns
    ]
    return "\n".join(",".join(line) for line in [header, *body]) + "\n"


def table_text(summaries: Sequence[FrontSummary]) -> str:
    """Relative-hypervolume table as aligned text."""
    columns, body = _table_body(summaries, "{:.2f}%", "-")
    headers = ["instance"] + [
        f"{algo} ({'tuned' if tuned else 'untuned'})" for algo, tuned in columns
    ]
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers)]
    out.append("  ".join("-" * w for w in widths))
    out.extend(fmt.format(*row) for row in body)
    return "\n".join(out) + "\n"
