"""Discretized flight world: ground grid, altitude ladder, obstacles, risk.

The world is a ``rows x cols`` grid of square ground cells plus a fixed,
strictly increasing ladder of flight altitudes. A drone travels between
neighbouring cells in five directions (north, south, east, north-east,
south-east; row 0 is the north edge and columns grow eastward, so every move
keeps or advances the column index) while holding one altitude level per
visited cell. Each cell carries an obstacle height, a ceiling (maximum
allowed altitude), and one risk value per level. A cell is passable at level
``k`` when ``obstacle <= levels[k] <= ceiling``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .physics import MAX_MODEL_ALTITUDE_M

Cell = tuple[int, int]

# (row delta, col delta) per direction; no westward moves exist.
_MOVES: tuple[tuple[int, int], ...] = (
    (-1, 0),  # N
    (1, 0),   # S
    (0, 1),   # E
    (-1, 1),  # NE
    (1, 1),   # SE
)


class GridError(ValueError):
    """Invalid grid geometry, cell reference, or world invariant."""


class InstanceFormatError(ValueError):
    """Instance file violates the schema; the message names the field path."""


class GenerationError(RuntimeError):
    """Random world generation exhausted its retry budget."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry and endpoints of a world.

    Attributes:
        rows: Number of grid rows (row 0 is the north edge).
        cols: Number of grid columns (column 0 is the west edge).
        cell_size_m: Edge length of a ground cell in metres.
        levels_m: Strictly increasing flight altitudes in metres.
        start_cell: Departure cell; its column must not exceed the goal's.
        goal_cell: Destination cell.
        start_level: Index into ``levels_m`` at which the drone departs.
    """

    rows: int
    cols: int
    cell_size_m: float
    levels_m: tuple[float, ...]
    start_cell: Cell
    goal_cell: Cell
    start_level: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GridError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if not (0.0 < self.cell_size_m < math.inf):
            raise GridError(f"cell_size_m must be positive and finite, got {self.cell_size_m}")
        if len(self.levels_m) == 0:
            raise GridError("levels_m must not be empty")
        for k, h in enumerate(self.levels_m):
            # Every level pair is costed, so every level must lie where the
            # air-density model holds.
            if not (0.0 <= h < MAX_MODEL_ALTITUDE_M):
                raise GridError(
                    f"levels_m[{k}] must lie in [0, {MAX_MODEL_ALTITUDE_M:.0f}) m, got {h}"
                )
        for a, b in zip(self.levels_m, self.levels_m[1:]):
            if not (b > a):
                raise GridError(f"levels_m must be strictly increasing, got {self.levels_m}")
        for name, cell in (("start_cell", self.start_cell), ("goal_cell", self.goal_cell)):
            r, c = cell
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise GridError(f"{name} {cell} outside the {self.rows}x{self.cols} grid")
        if self.start_cell == self.goal_cell:
            raise GridError("start_cell and goal_cell must differ")
        if self.goal_cell[1] < self.start_cell[1]:
            raise GridError(
                f"goal column {self.goal_cell[1]} precedes start column "
                f"{self.start_cell[1]}; the goal must lie east of (or level with) the start"
            )
        if not (0 <= self.start_level < len(self.levels_m)):
            raise GridError(f"start_level {self.start_level} outside 0..{len(self.levels_m) - 1}")

    @property
    def level_count(self) -> int:
        return len(self.levels_m)

    def cell_id(self, cell: Cell) -> int:
        """Row-major integer id of a cell."""
        return cell[0] * self.cols + cell[1]


@dataclass(frozen=True)
class CellData:
    """Per-cell terrain record: obstacle height, ceiling, per-level risk."""

    obstacle_m: float
    ceiling_m: float
    risk: tuple[float, ...]


class Environment:
    """Immutable world: grid spec plus per-cell terrain arrays.

    Adjacency, move distances, and per-cell feasible level bands are
    precomputed once; the arrays are frozen after construction.
    """

    def __init__(
        self,
        spec: GridSpec,
        obstacle_m: np.ndarray,
        ceiling_m: np.ndarray,
        risk: np.ndarray,
    ) -> None:
        self.spec = spec
        shape = (spec.rows, spec.cols)
        obstacle = np.ascontiguousarray(np.asarray(obstacle_m, dtype=float))
        ceiling = np.ascontiguousarray(np.asarray(ceiling_m, dtype=float))
        riskarr = np.ascontiguousarray(np.asarray(risk, dtype=float))
        if obstacle.shape != shape:
            raise GridError(f"obstacle_m shape {obstacle.shape} != grid shape {shape}")
        if ceiling.shape != shape:
            raise GridError(f"ceiling_m shape {ceiling.shape} != grid shape {shape}")
        if riskarr.shape != shape + (spec.level_count,):
            raise GridError(
                f"risk shape {riskarr.shape} != {shape + (spec.level_count,)}"
            )
        # Each test is written so that NaN fails it.
        for name, arr, ok, rule in (
            ("obstacle_m", obstacle, (obstacle >= 0.0) & (obstacle < math.inf), "be finite and non-negative"),
            ("ceiling_m", ceiling, np.isfinite(ceiling), "be finite"),
            ("risk", riskarr, (riskarr >= 0.0) & (riskarr <= 1.0), "lie in [0, 1]"),
        ):
            if not ok.all():
                where = tuple(int(i) for i in np.argwhere(~ok)[0])
                raise GridError(f"{name}{list(where)} must {rule}, got {arr[where]}")
        for arr in (obstacle, ceiling, riskarr):
            arr.setflags(write=False)
        self.obstacle_m = obstacle
        self.ceiling_m = ceiling
        self.risk = riskarr
        # Content hash that agrees with __eq__: adding 0.0 turns -0.0 into
        # 0.0, and NaN never gets this far.
        self._hash = hash((spec, *((a + 0.0).tobytes() for a in (obstacle, ceiling, riskarr))))

        levels = spec.levels_m
        # Feasible level band per cell: levels within [obstacle, ceiling].
        # Levels increase strictly, so the band is a contiguous index range.
        kmin = np.searchsorted(levels, obstacle, side="left").astype(int)
        kmax = (np.searchsorted(levels, ceiling, side="right") - 1).astype(int)

        succ: dict[Cell, tuple[Cell, ...]] = {}
        pred: dict[Cell, list[Cell]] = {(r, c): [] for r in range(spec.rows) for c in range(spec.cols)}
        dist: dict[tuple[Cell, Cell], float] = {}
        diag = spec.cell_size_m * math.sqrt(2.0)
        for r in range(spec.rows):
            for c in range(spec.cols):
                out = []
                for dr, dc in _MOVES:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < spec.rows and 0 <= nc < spec.cols:
                        out.append((nr, nc))
                        dist[((r, c), (nr, nc))] = diag if dc == 1 and dr != 0 else spec.cell_size_m
                        pred[(nr, nc)].append((r, c))
                succ[(r, c)] = tuple(out)
        self._succ = succ
        # Band per passable cell; the accessors look a cell up here first and
        # check it, to raise or to answer "not passable", only on a miss.
        lo_rows, hi_rows = kmin.tolist(), kmax.tolist()
        self._bands: dict[Cell, tuple[int, int]] = {
            (r, c): (lo_rows[r][c], hi_rows[r][c]) for r, c in succ if lo_rows[r][c] <= hi_rows[r][c]
        }
        self._pred = {cell: tuple(v) for cell, v in pred.items()}
        self._dist = dist
        # Plain nested tuples for the evaluation hot path.
        self._risk_rows: tuple[tuple[tuple[float, ...], ...], ...] = tuple(
            tuple(tuple(float(x) for x in riskarr[r, c]) for c in range(spec.cols))
            for r in range(spec.rows)
        )

        sr, sc = spec.start_cell
        if not self.level_ok(spec.start_cell, spec.start_level):
            raise GridError(
                f"start cell {spec.start_cell} is not passable at start level "
                f"{spec.start_level} (altitude {levels[spec.start_level]} m, obstacle "
                f"{obstacle[sr, sc]} m, ceiling {ceiling[sr, sc]} m)"
            )
        if not self.passable(spec.goal_cell):
            raise GridError(f"goal cell {spec.goal_cell} has no passable level")

    # -- geometry ----------------------------------------------------------

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.spec.rows and 0 <= c < self.spec.cols

    def _require(self, cell: Cell) -> None:
        if not self.in_bounds(cell):
            raise GridError(f"cell {cell} outside the {self.spec.rows}x{self.spec.cols} grid")

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for r in range(self.spec.rows):
            for c in range(self.spec.cols):
                yield (r, c)

    def successors(self, cell: Cell) -> tuple[Cell, ...]:
        """Cells reachable from ``cell`` in one move (N, S, E, NE, SE order)."""
        succ = self._succ.get(cell)
        if succ is None:
            self._require(cell)
        return succ

    def predecessors(self, cell: Cell) -> tuple[Cell, ...]:
        """Cells that reach ``cell`` in one move."""
        self._require(cell)
        return self._pred[cell]

    def distance(self, frm: Cell, to: Cell) -> float:
        """Ground distance of the move ``frm -> to``; raises if not adjacent."""
        d = self._dist.get((frm, to))
        if d is None:
            self._require(frm)
            self._require(to)
            raise GridError(f"{frm} -> {to} is not a legal move")
        return d

    # -- terrain -----------------------------------------------------------

    def cell_data(self, cell: Cell) -> CellData:
        self._require(cell)
        r, c = cell
        return CellData(
            obstacle_m=float(self.obstacle_m[r, c]),
            ceiling_m=float(self.ceiling_m[r, c]),
            risk=self._risk_rows[r][c],
        )

    def risk_at(self, cell: Cell) -> tuple[float, ...]:
        self._require(cell)
        return self._risk_rows[cell[0]][cell[1]]

    def feasible_levels(self, cell: Cell) -> tuple[int, int]:
        """Inclusive (lowest, highest) feasible level index band of a cell.

        Raises:
            GridError: if no level clears the obstacle under the ceiling.
        """
        band = self._bands.get(cell)
        if band is None:
            self._require(cell)
            raise GridError(f"cell {cell} is impassable (obstacle above ceiling or top level)")
        return band

    def passable(self, cell: Cell) -> bool:
        if cell in self._bands:
            return True
        self._require(cell)
        return False

    def level_ok(self, cell: Cell, level: int) -> bool:
        """True when ``level`` indexes a feasible altitude for ``cell``."""
        band = self._bands.get(cell)
        if band is None:
            self._require(cell)
            return False
        return band[0] <= level <= band[1]

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.obstacle_m, other.obstacle_m)
            and np.array_equal(self.ceiling_m, other.ceiling_m)
            and np.array_equal(self.risk, other.risk)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"Environment({s.rows}x{s.cols}, {s.level_count} levels, "
            f"start={s.start_cell}@{s.start_level}, goal={s.goal_cell})"
        )


def has_feasible_path(env: Environment) -> bool:
    """Breadth-first reachability over passable (cell, level) states.

    A state ``(cell, k)`` is passable when level ``k`` lies inside the cell's
    feasible band; any move may change the level to any feasible level of the
    next cell.
    """
    start = (env.spec.start_cell, env.spec.start_level)
    goal = env.spec.goal_cell
    seen = {start}
    queue = deque([start])
    while queue:
        cell, _level = queue.popleft()
        if cell == goal:
            return True
        for nxt in env.successors(cell):
            if not env.passable(nxt):
                continue
            lo, hi = env.feasible_levels(nxt)
            for k in range(lo, hi + 1):
                state = (nxt, k)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return False


@dataclass(frozen=True)
class GeneratorSettings:
    """Knobs for random world generation.

    Obstacle heights and ceilings snap to level altitudes. Obstacle levels are
    sampled uniformly from ``1..max_obstacle_level``; a sampled level equal to
    ``level_count`` sits one rung above the top altitude and makes the cell
    impassable (bypass only). A ``ceiling_fraction`` share of cells gets a
    reduced ceiling sampled from ``min_ceiling_level..level_count-1``.
    """

    rows: int
    cols: int
    cell_size_m: float = 10.0
    level_count: int = 3
    level_spacing_m: float = 10.0
    base_altitude_m: float = 0.0
    obstacle_density: float = 0.2
    max_obstacle_level: int | None = None
    ceiling_fraction: float = 0.0
    min_ceiling_level: int = 1
    risk_low: float = 0.0
    risk_high: float = 1.0
    start_cell: Cell | None = None
    goal_cell: Cell | None = None
    start_level: int = 0
    max_rounds: int = 100

    def __post_init__(self) -> None:
        if self.level_count < 1:
            raise GridError("level_count must be >= 1")
        if not (0.0 <= self.obstacle_density < 1.0):
            raise GridError("obstacle_density must lie in [0, 1)")
        if not (0.0 <= self.ceiling_fraction <= 1.0):
            raise GridError("ceiling_fraction must lie in [0, 1]")
        if not (0.0 <= self.risk_low <= self.risk_high <= 1.0):
            raise GridError("risk bounds must satisfy 0 <= low <= high <= 1")
        mol = self.max_obstacle_level
        if mol is not None and not (1 <= mol <= self.level_count):
            raise GridError("max_obstacle_level must lie in 1..level_count")
        if not (1 <= self.min_ceiling_level <= self.level_count - 1 or self.level_count == 1):
            raise GridError("min_ceiling_level must lie in 1..level_count-1")


def generate(settings: GeneratorSettings, seed: int) -> Environment:
    """Sample a random world; deterministic in ``seed``.

    Start and goal cells are cleared of obstacles and the grid is mirrored
    east-west when a caller-supplied goal would lie west of the start. Worlds
    are resampled (bounded by ``max_rounds``) until the goal is reachable.

    Raises:
        GenerationError: when no feasible world was found within the budget.
    """
    rng = np.random.default_rng(seed)
    s = settings
    levels = tuple(s.base_altitude_m + s.level_spacing_m * k for k in range(s.level_count))

    start = s.start_cell if s.start_cell is not None else (s.rows // 2, 0)
    goal = s.goal_cell if s.goal_cell is not None else (s.rows // 2, s.cols - 1)
    if goal[1] < start[1]:
        # East-of-start orientation convention: mirror columns.
        start = (start[0], s.cols - 1 - start[1])
        goal = (goal[0], s.cols - 1 - goal[1])
    spec = GridSpec(
        rows=s.rows,
        cols=s.cols,
        cell_size_m=s.cell_size_m,
        levels_m=levels,
        start_cell=start,
        goal_cell=goal,
        start_level=s.start_level,
    )

    max_obs = s.max_obstacle_level
    if max_obs is None:
        max_obs = max(s.level_count - 1, 1)
    top = levels[-1]

    for _ in range(s.max_rounds):
        mask = rng.random((s.rows, s.cols)) < s.obstacle_density
        obstacle_levels = rng.integers(1, max_obs + 1, size=(s.rows, s.cols))
        obstacle = np.where(
            mask, s.base_altitude_m + s.level_spacing_m * obstacle_levels, 0.0
        )
        ceiling = np.full((s.rows, s.cols), top, dtype=float)
        if s.ceiling_fraction > 0.0 and s.level_count > 1:
            cmask = rng.random((s.rows, s.cols)) < s.ceiling_fraction
            clevels = rng.integers(s.min_ceiling_level, s.level_count, size=(s.rows, s.cols))
            ceiling = np.where(cmask, np.asarray(levels)[clevels], ceiling)
        risk = rng.uniform(s.risk_low, s.risk_high, size=(s.rows, s.cols, s.level_count))

        for cell in (start, goal):
            obstacle[cell] = 0.0
        ceiling[start] = max(ceiling[start], levels[s.start_level])

        env = Environment(spec, obstacle, ceiling, risk)
        if has_feasible_path(env):
            return env
    raise GenerationError(
        f"no feasible world within {s.max_rounds} rounds "
        f"(density {s.obstacle_density}, grid {s.rows}x{s.cols})"
    )


# -- instance files ---------------------------------------------------------


def _fail(path: str, message: str) -> "InstanceFormatError":
    return InstanceFormatError(f"{path}: {message}")


def _get(mapping: Mapping, key: str, path: str):
    if not isinstance(mapping, Mapping):
        raise _fail(path, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise _fail(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _cell(value, path: str) -> Cell:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(path, f"expected [row, col], got {value!r}")
    return (_integer(value[0], f"{path}[0]"), _integer(value[1], f"{path}[1]"))


def load_instance(path: str) -> Environment:
    """Read a world from a JSON instance file.

    Cells omitted from ``cells`` default to obstacle 0, ceiling equal to the
    top altitude, and a risk vector filled with the instance's
    ``default_risk`` (0 when absent).

    Raises:
        InstanceFormatError: on schema or invariant violations, naming the
            offending field path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc

    grid = _get(doc, "grid", "")
    rows = _integer(_get(grid, "rows", "grid"), "grid.rows")
    cols = _integer(_get(grid, "cols", "grid"), "grid.cols")
    cell_size = _number(_get(grid, "cell_size_m", "grid"), "grid.cell_size_m")

    levels_raw = _get(doc, "levels_m", "")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise _fail("levels_m", "expected a non-empty list of altitudes")
    levels = tuple(_number(v, f"levels_m[{i}]") for i, v in enumerate(levels_raw))

    start = _get(doc, "start", "")
    start_cell = _cell(_get(start, "cell", "start"), "start.cell")
    start_level = _integer(_get(start, "level", "start"), "start.level")
    goal = _get(doc, "goal", "")
    goal_cell = _cell(_get(goal, "cell", "goal"), "goal.cell")

    default_risk = 0.0
    if "default_risk" in doc:
        default_risk = _number(doc["default_risk"], "default_risk")
        if not (0.0 <= default_risk <= 1.0):
            raise _fail("default_risk", f"must lie in [0, 1], got {default_risk}")

    try:
        spec = GridSpec(
            rows=rows,
            cols=cols,
            cell_size_m=cell_size,
            levels_m=levels,
            start_cell=start_cell,
            goal_cell=goal_cell,
            start_level=start_level,
        )
    except GridError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc

    obstacle = np.zeros((rows, cols), dtype=float)
    ceiling = np.full((rows, cols), levels[-1], dtype=float)
    risk = np.full((rows, cols), default_risk, dtype=float)[:, :, None].repeat(len(levels), axis=2)

    cells_raw = doc.get("cells", [])
    if not isinstance(cells_raw, list):
        raise _fail("cells", "expected a list")
    seen: set[Cell] = set()
    for i, entry in enumerate(cells_raw):
        where = f"cells[{i}]"
        cell = _cell(_get(entry, "cell", where), f"{where}.cell")
        r, c = cell
        if not (0 <= r < rows and 0 <= c < cols):
            raise _fail(f"{where}.cell", f"cell [{r}, {c}] outside the {rows}x{cols} grid")
        if cell in seen:
            raise _fail(f"{where}.cell", f"duplicate entry for cell [{r}, {c}]")
        seen.add(cell)
        if "obstacle_m" in entry:
            obstacle[r, c] = _number(entry["obstacle_m"], f"{where}.obstacle_m")
            if obstacle[r, c] < 0.0:
                raise _fail(f"{where}.obstacle_m", f"must be non-negative (cell [{r}, {c}])")
        if "ceiling_m" in entry:
            ceiling[r, c] = _number(entry["ceiling_m"], f"{where}.ceiling_m")
        if "risk" in entry:
            vec = entry["risk"]
            if not isinstance(vec, list) or len(vec) != len(levels):
                got = len(vec) if isinstance(vec, list) else f"a {type(vec).__name__}"
                raise _fail(
                    f"{where}.risk",
                    f"expected {len(levels)} entries, got {got} (cell [{r}, {c}])",
                )
            for k, v in enumerate(vec):
                rv = _number(v, f"{where}.risk[{k}]")
                if not (0.0 <= rv <= 1.0):
                    raise _fail(f"{where}.risk[{k}]", f"must lie in [0, 1] (cell [{r}, {c}])")
                risk[r, c, k] = rv

    try:
        return Environment(spec, obstacle, ceiling, risk)
    except GridError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def save_instance(env: Environment, path: str) -> None:
    """Write a world as a JSON instance file; ``load_instance`` inverts it.

    Only cells that differ from the defaults (no obstacle, top-altitude
    ceiling, all-zero risk) are listed.
    """
    spec = env.spec
    top = spec.levels_m[-1]
    cells = []
    for cell in env.cells():
        r, c = cell
        data = env.cell_data(cell)
        entry: dict = {}
        if data.obstacle_m != 0.0:
            entry["obstacle_m"] = data.obstacle_m
        if data.ceiling_m != top:
            entry["ceiling_m"] = data.ceiling_m
        if any(v != 0.0 for v in data.risk):
            entry["risk"] = list(data.risk)
        if entry:
            cells.append({"cell": [r, c], **entry})
    doc = {
        "grid": {"rows": spec.rows, "cols": spec.cols, "cell_size_m": spec.cell_size_m},
        "levels_m": list(spec.levels_m),
        "start": {"cell": list(spec.start_cell), "level": spec.start_level},
        "goal": {"cell": list(spec.goal_cell)},
        "default_risk": 0.0,
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
