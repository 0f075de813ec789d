"""Shared builders for hand-crafted test worlds."""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import assume, strategies as st
from scipy import optimize, sparse

from overfly import (
    Chromosome,
    Environment,
    GenerationError,
    GeneratorSettings,
    GridSpec,
    ValidationReport,
    Violation,
    generate,
)


def build_env(
    rows: int = 3,
    cols: int = 4,
    levels: tuple[float, ...] = (0.0, 10.0, 20.0),
    cell_size: float = 10.0,
    start: tuple[int, int] | None = None,
    goal: tuple[int, int] | None = None,
    start_level: int = 0,
    obstacle: np.ndarray | list | None = None,
    ceiling: np.ndarray | list | None = None,
    risk: np.ndarray | list | float = 0.0,
) -> Environment:
    """A world with flat terrain unless overridden.

    ``risk`` may be a scalar (uniform), an (rows, cols) array (same risk at
    every level of a cell), or a full (rows, cols, levels) array.
    """
    if start is None:
        start = (rows // 2, 0)
    if goal is None:
        goal = (rows // 2, cols - 1)
    spec = GridSpec(
        rows=rows,
        cols=cols,
        cell_size_m=cell_size,
        levels_m=tuple(levels),
        start_cell=start,
        goal_cell=goal,
        start_level=start_level,
    )
    if obstacle is None:
        obstacle = np.zeros((rows, cols))
    if ceiling is None:
        ceiling = np.full((rows, cols), levels[-1], dtype=float)
    risk_arr = np.asarray(risk, dtype=float)
    if risk_arr.ndim == 0:
        risk_arr = np.full((rows, cols, len(levels)), float(risk_arr))
    elif risk_arr.ndim == 2:
        risk_arr = np.repeat(risk_arr[:, :, None], len(levels), axis=2)
    return Environment(spec, np.asarray(obstacle, dtype=float), np.asarray(ceiling, dtype=float), risk_arr)


def all_simple_paths(env):
    """Test-side DFS over simple cell paths, independent of the module."""
    start, goal = env.spec.start_cell, env.spec.goal_cell
    out = []

    def walk(cur, path, used):
        if cur == goal:
            out.append(tuple(path))
            return
        for nxt in env.successors(cur):
            if nxt in used or not env.passable(nxt):
                continue
            path.append(nxt)
            used.add(nxt)
            walk(nxt, path, used)
            path.pop()
            used.remove(nxt)

    walk(start, [start], {start})
    return out


def raster_hv(points, ref):
    """Coordinate-compression hypervolume oracle: sum dominated grid cells."""
    pts = [(x, y) for x, y in points if x < ref[0] and y < ref[1]]
    if not pts:
        return 0.0
    xs = sorted({x for x, _ in pts} | {ref[0]})
    ys = sorted({y for _, y in pts} | {ref[1]})
    total = 0.0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if any(px <= xs[i] and py <= ys[j] for px, py in pts):
                total += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return total


@st.composite
def generated_worlds(draw):
    """Hypothesis strategy: small ``generate`` worlds over random settings."""
    level_count = draw(st.integers(1, 4))
    risk_low = draw(st.floats(0.0, 1.0))
    settings = GeneratorSettings(
        rows=draw(st.integers(1, 5)),
        cols=draw(st.integers(2, 6)),
        cell_size_m=draw(st.floats(1.0, 50.0)),
        level_count=level_count,
        level_spacing_m=draw(st.floats(1.0, 25.0)),
        base_altitude_m=draw(st.floats(0.0, 100.0)),
        obstacle_density=draw(st.floats(0.0, 0.6)),
        ceiling_fraction=draw(st.floats(0.0, 0.5)),
        risk_low=risk_low,
        risk_high=draw(st.floats(risk_low, 1.0)),
    )
    try:
        return generate(settings, draw(st.integers(0, 2**32 - 1)))
    except GenerationError:
        assume(False)


def collections_started(call, *args, **kwargs) -> list[int]:
    """The generation of each cyclic-GC collection that starts while
    ``call(*args, **kwargs)`` runs."""
    started: list[int] = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        call(*args, **kwargs)
    finally:
        gc.callbacks.remove(count)
    return started


def solve_lp(model, drop=()) -> float | None:
    """The optimum of ``model`` as a mixed-integer program, solved by
    ``scipy.optimize.milp`` (HiGHS) without the rows of the families in
    ``drop``; None when the solver reports no optimum (infeasible or
    unbounded)."""
    column = {name: c for c, (name, _kind) in enumerate(model.variables)}
    cost = np.zeros(len(column))
    for name, coeff in model.objective:
        cost[column[name]] = coeff
    data, rows_at, cols_at, lower, upper = [], [], [], [], []
    for _name, family, coeffs, sense, rhs in model.rows:
        if family in drop:
            continue
        r = len(lower)
        for name, coeff in coeffs:
            data.append(coeff)
            rows_at.append(r)
            cols_at.append(column[name])
        lower.append(-np.inf if sense == "<=" else rhs)
        upper.append(np.inf if sense == ">=" else rhs)
    matrix = sparse.csr_array((data, (rows_at, cols_at)), shape=(len(lower), len(column)))
    kinds = [kind for _name, kind in model.variables]
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=[kind == "binary" for kind in kinds],
        bounds=optimize.Bounds(
            [-np.inf if kind == "free" else 0.0 for kind in kinds],
            [1.0 if kind == "binary" else np.inf for kind in kinds],
        ),
        options={"mip_rel_gap": 0.0},
    )
    return float(result.fun) if result.status == 0 else None


# -- reference LP renderer ---------------------------------------------------
# The renderer with no caches: one ``repr`` per coefficient and per
# right-hand side, and the token loop on every row; ``render_lp`` must
# write the same text.


def _reference_terms(coeffs):
    tokens = []
    for pos, (name, coeff) in enumerate(coeffs):
        magnitude = repr(abs(coeff))
        if magnitude.endswith(".0"):
            magnitude = magnitude[:-2]
        if pos == 0:
            head = "-" if coeff < 0 else ""
            tokens.append(f"{head}{magnitude} {name}")
        else:
            sign = "-" if coeff < 0 else "+"
            tokens.append(f"{sign} {magnitude} {name}")
    return tokens


def _reference_wrap(prefix, tokens, indent="      "):
    lines = []
    current = prefix
    for token in tokens:
        candidate = f"{current} {token}"
        if len(candidate) > 72 and current.strip():
            lines.append(current)
            current = f"{indent}{token}"
        else:
            current = candidate
    lines.append(current)
    return lines


def reference_lp(model):
    """Reference for ``render_lp``: one ``repr`` per term and a token loop
    per row, with no memo and no one-line shortcut."""
    out = [f"\\ {note}" for note in model.notes]
    out.append("Minimize")
    out.extend(_reference_wrap(" obj:", _reference_terms(model.objective)))
    out.append("Subject To")
    for name, _family, coeffs, sense, rhs in model.rows:
        tokens = _reference_terms(coeffs)
        text = repr(rhs)
        tokens += [sense, text[:-2] if text.endswith(".0") else text]
        out.extend(_reference_wrap(f" {name}:", tokens))
    free_vars = [name for name, kind in model.variables if kind == "free"]
    if free_vars:
        out.append("Bounds")
        out.extend(f" {name} free" for name in free_vars)
    binaries = [name for name, kind in model.variables if kind == "binary"]
    if binaries:
        out.append("Binaries")
        out.extend(_reference_wrap(" ", binaries))
    out.append("End")
    return "\n".join(out) + "\n"


# -- reference selection kernels ---------------------------------------------
# The (n, n, m) dominance matrix, the front loop over it and the np.unique
# crowding distance that the search used before its kernels went column-wise
# and list-based; the kernels must return the same fronts and floats.


def reference_dominance(pts: np.ndarray) -> np.ndarray:
    """``dom[i, j]``: point i dominates point j, from (n, n, m) temporaries."""
    le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    lt = (pts[:, None, :] < pts[None, :, :]).any(axis=2)
    return le & lt


def reference_fronts(points) -> list[list[int]]:
    """Non-domination fronts peeled from :func:`reference_dominance`."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return []
    dom = reference_dominance(pts)
    counts = dom.sum(axis=0).astype(int)
    alive = np.ones(n, dtype=bool)
    fronts: list[list[int]] = []
    while alive.any():
        current = np.where(alive & (counts == 0))[0]
        fronts.append([int(i) for i in current])
        alive[current] = False
        counts -= dom[current].sum(axis=0)
    return fronts


def reference_crowding(points) -> np.ndarray:
    """Crowding distance over the ``np.unique`` rows; later copies get 0."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = np.zeros(n)
    if n == 0:
        return out
    uniq, rep_idx = np.unique(pts, axis=0, return_index=True)
    u = len(uniq)
    d = np.zeros(u)
    if u <= 2:
        d[:] = np.inf
    else:
        for m in range(pts.shape[1]):
            order = np.argsort(uniq[:, m], kind="stable")
            d[order[0]] = np.inf
            d[order[-1]] = np.inf
            vals = uniq[order, m]
            span = vals[-1] - vals[0]
            if span > 0.0:
                d[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    out[rep_idx] = d
    return out


@st.composite
def point_sets(draw):
    """Hypothesis strategy: (n, 2) or (n, 3) float arrays, n in 0..90, with
    NaN never but ties, duplicate rows, ±0.0 and ±inf often."""
    m = draw(st.sampled_from((2, 3)))
    coord = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, np.inf, -np.inf)),
        st.floats(allow_nan=False),
    )
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=90))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=90))
    return np.array([rows[i] for i in picks], dtype=float).reshape(-1, m)


# -- reference validation ----------------------------------------------------
# The rule-by-rule validate that the search used before it went to one pass
# over the world's tables; on integer genes both must give the same report.


def reference_validate(ch: Chromosome, env: Environment) -> ValidationReport:
    """Rule by rule: shape, weight, endpoints, start level, then a loop per
    family over the route, reading levels from the terrain arrays."""
    spec = env.spec
    issues: list[Violation] = []

    if len(ch.cells) != len(ch.entry_levels):
        detail = f"{len(ch.cells)} cells but {len(ch.entry_levels)} entry levels"
        return ValidationReport((Violation("shape", 0, detail),))
    if len(ch.cells) < 2:
        return ValidationReport((Violation("shape", 0, "a path needs at least two cells"),))

    if not (0.0 <= ch.weight <= 1.0):
        issues.append(Violation("weight", 0, f"weight {ch.weight} outside [0, 1]"))

    if ch.cells[0] != spec.start_cell:
        issues.append(Violation("endpoints", 0, f"path starts at {ch.cells[0]}, not {spec.start_cell}"))
    if ch.cells[-1] != spec.goal_cell:
        issues.append(
            Violation("endpoints", len(ch.cells) - 1, f"path ends at {ch.cells[-1]}, not {spec.goal_cell}")
        )
    if ch.entry_levels[0] != spec.start_level:
        issues.append(
            Violation("start-level", 0, f"first entry level {ch.entry_levels[0]} != {spec.start_level}")
        )

    seen: set = set()
    for t, cell in enumerate(ch.cells):
        if not env.in_bounds(cell):
            issues.append(Violation("cell-bounds", t, f"cell {cell} outside the grid"))
            return ValidationReport(tuple(issues))
        if cell in seen:
            issues.append(Violation("revisit", t, f"cell {cell} visited twice"))
        seen.add(cell)

    for t in range(len(ch.cells) - 1):
        if ch.cells[t + 1] not in env.successors(ch.cells[t]):
            issues.append(
                Violation("adjacency", t, f"{ch.cells[t]} -> {ch.cells[t + 1]} is not a legal move")
            )

    levels = spec.levels_m
    for t in range(len(ch.cells)):
        k = ch.entry_levels[t]
        if not (0 <= k < len(levels)):
            issues.append(Violation("level-range", t, f"entry level {k} outside 0..{len(levels) - 1}"))
            continue
        if t == 0:
            continue  # the start level is pinned by the world spec
        data_obstacle = env.obstacle_m[ch.cells[t][0], ch.cells[t][1]]
        data_ceiling = env.ceiling_m[ch.cells[t][0], ch.cells[t][1]]
        if levels[k] < data_obstacle:
            issues.append(
                Violation(
                    "obstacle-clearance",
                    t,
                    f"entering {ch.cells[t]} at {levels[k]} m, below its {data_obstacle} m obstacle",
                )
            )
        if levels[k] > data_ceiling:
            issues.append(
                Violation(
                    "ceiling",
                    t,
                    f"entering {ch.cells[t]} at {levels[k]} m, above its {data_ceiling} m ceiling",
                )
            )

    return ValidationReport(tuple(issues))
