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

import functools
import gc
import json
import math
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .physics import MAX_MODEL_ALTITUDE_M, to_float

Cell = tuple[int, int]

# Largest accepted ground-cell edge in metres. Squared lengths overflow a
# float near 1e154 m, so every objective stays finite far below that.
MAX_CELL_SIZE_M = 1e6

MAX_ROUNDS = 100  # worlds ``generate`` samples before it gives up

# (row delta, col delta) per direction; no westward moves exist.
_MOVES: tuple[tuple[int, int], ...] = (
    (-1, 0),  # N
    (1, 0),   # S
    (0, 1),   # E
    (-1, 1),  # NE
    (1, 1),   # SE
)


class GridError(ValueError):
    """Invalid grid geometry, cell reference, or world invariant.

    An error about one :class:`GridSpec` field names it in ``field`` and
    reads ``"<field> <detail>"``, so an instance file can name the field by
    its own key.
    """

    def __init__(self, detail: str, field: str | None = None) -> None:
        super().__init__(f"{field} {detail}" if field else detail)
        self.field = field
        self.detail = detail


class InstanceFormatError(ValueError):
    """Instance file violates the schema; the message names the field path."""


class GenerationError(RuntimeError):
    """Random world generation exhausted its retry budget."""


class EnumerationLimitError(RuntimeError):
    """The world is too large for an exact oracle: the label budget of the
    exact front or the row limit of the LP model. Nothing was truncated."""


def collector_paused(func):
    """``func`` with CPython's cyclic garbage collector paused for the
    length of each call.

    For the exact oracles' builders, which keep many small acyclic records
    alive while they build: a running collector would scan them over and
    over and free none. The caller's state comes back on return and on an
    exception, so a caller that had the collector off keeps it off.
    Reference counting still frees everything as usual.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class GridSpec:
    """Geometry and endpoints of a world.

    Attributes:
        rows: Number of grid rows (row 0 is the north edge).
        cols: Number of grid columns (column 0 is the west edge).
        cell_size_m: Edge length of a ground cell in metres, in
            (0, :data:`MAX_CELL_SIZE_M`].
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
            raise GridError(f"must be at least 1x1, got {self.rows}x{self.cols}", "grid")
        # Stored as Python floats; a non-number (None) fails its range test.
        cell_size, levels = to_float(self.cell_size_m), tuple(map(to_float, self.levels_m))
        if cell_size is None or not (0.0 < cell_size <= MAX_CELL_SIZE_M):
            raise GridError(
                f"must lie in (0, {MAX_CELL_SIZE_M:g}], got {self.cell_size_m!r}", "cell_size_m"
            )
        if len(levels) == 0:
            raise GridError("must not be empty", "levels_m")
        for k, h in enumerate(levels):
            # Every level pair is costed, so every level must lie where the
            # air-density model holds.
            if h is None or not (0.0 <= h < MAX_MODEL_ALTITUDE_M):
                raise GridError(
                    f"must lie in [0, {MAX_MODEL_ALTITUDE_M:.0f}) m, got {self.levels_m[k]!r}",
                    f"levels_m[{k}]",
                )
        object.__setattr__(self, "cell_size_m", cell_size)
        object.__setattr__(self, "levels_m", levels)
        for a, b in zip(self.levels_m, self.levels_m[1:]):
            if not (b > a):
                raise GridError(f"must be strictly increasing, got {self.levels_m}", "levels_m")
        for name, cell in (("start_cell", self.start_cell), ("goal_cell", self.goal_cell)):
            r, c = cell
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise GridError(f"{cell} outside the {self.rows}x{self.cols} grid", name)
        if self.start_cell == self.goal_cell:
            raise GridError("must differ from the start cell", "goal_cell")
        if self.goal_cell[1] < self.start_cell[1]:
            raise GridError(
                f"column {self.goal_cell[1]} precedes the start column {self.start_cell[1]}; "
                "the goal must lie east of (or level with) the start",
                "goal_cell",
            )
        if not (0 <= self.start_level < len(self.levels_m)):
            raise GridError(f"{self.start_level} outside 0..{len(self.levels_m) - 1}", "start_level")

    @property
    def level_count(self) -> int:
        return len(self.levels_m)


# Each entry is a few dicts of a grid's size, so 64 geometries stay small.
@functools.lru_cache(maxsize=64)
def _move_tables(rows: int, cols: int, cell_size_m: float) -> tuple[
    dict[Cell, tuple[Cell, ...]],
    Mapping[Cell, tuple[Cell, ...]],
    dict[Cell, tuple[Cell, ...]],
    dict[tuple[Cell, Cell], float],
    Mapping[tuple[Cell, Cell], float],
]:
    """The successor map and its read-only view, the predecessor map, and
    the move distances and their read-only view, of a ``rows x cols`` grid.

    Built once per geometry and shared by every :class:`Environment` that
    has it, so no caller may write to them.
    """
    succ: dict[Cell, tuple[Cell, ...]] = {}
    pred: dict[Cell, list[Cell]] = {(r, c): [] for r in range(rows) for c in range(cols)}
    dist: dict[tuple[Cell, Cell], float] = {}
    diag = cell_size_m * math.sqrt(2.0)
    for r in range(rows):
        for c in range(cols):
            out = []
            for dr, dc in _MOVES:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    out.append((nr, nc))
                    dist[((r, c), (nr, nc))] = diag if dc == 1 and dr != 0 else cell_size_m
                    pred[(nr, nc)].append((r, c))
            succ[(r, c)] = tuple(out)
    pred_tuples = {cell: tuple(v) for cell, v in pred.items()}
    return succ, MappingProxyType(succ), pred_tuples, dist, MappingProxyType(dist)


class Environment:
    """Immutable world: grid spec plus per-cell terrain arrays.

    The move tables (successors, predecessors and move distances) depend
    only on the grid's rows, columns and cell size: they are built once per
    such geometry and shared, read-only, by every world that has it. Each
    world builds only its own terrain: the per-cell feasible level bands
    and the risk rows. The arrays are frozen after construction.
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
            ("ceiling_m", ceiling, (ceiling >= 0.0) & (ceiling < math.inf), "be finite and non-negative"),
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
        # Content key for __eq__ and __hash__: the spec fixes every array's
        # shape, adding 0.0 turns -0.0 into 0.0, and NaN never gets this
        # far, so equal bytes mean equal values.
        self._key = (spec, *((a + 0.0).tobytes() for a in (obstacle, ceiling, riskarr)))
        self._hash = hash(self._key)

        levels = spec.levels_m
        # Feasible level band per cell: levels within [obstacle, ceiling].
        # Levels increase strictly, so the band is a contiguous index range.
        kmin = np.searchsorted(levels, obstacle, side="left").astype(int)
        kmax = (np.searchsorted(levels, ceiling, side="right") - 1).astype(int)

        # Shared by every world of this geometry; never written to.
        self._succ, self._adjacency, self._pred, self._dist, self._distances = _move_tables(
            spec.rows, spec.cols, spec.cell_size_m
        )
        lo_rows, hi_rows = kmin.tolist(), kmax.tolist()
        every_band = {(r, c): (lo_rows[r][c], hi_rows[r][c]) for r, c in self._succ}
        self._band_view: Mapping[Cell, tuple[int, int]] = MappingProxyType(every_band)
        # Band per passable cell; the accessors look a cell up here first and
        # check it, to raise or to answer "not passable", only on a miss.
        self._bands: dict[Cell, tuple[int, int]] = {
            cell: band for cell, band in every_band.items() if band[0] <= band[1]
        }
        # Plain nested tuples for the evaluation hot path.
        self._risk_rows: tuple[tuple[tuple[float, ...], ...], ...] = tuple(
            tuple(map(tuple, row)) for row in riskarr.tolist()
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

    @property
    def adjacency(self) -> Mapping[Cell, tuple[Cell, ...]]:
        """Read-only view of :meth:`successors` for every on-grid cell, for
        loops that would otherwise pay a method call per lookup."""
        return self._adjacency

    @property
    def distances(self) -> Mapping[tuple[Cell, Cell], float]:
        """Read-only view of :meth:`distance` for every legal move
        ``(frm, to)``, for loops that would otherwise pay a method call per
        move."""
        return self._distances

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

    def risk_at(self, cell: Cell) -> tuple[float, ...]:
        self._require(cell)
        return self._risk_rows[cell[0]][cell[1]]

    @property
    def bands(self) -> Mapping[Cell, tuple[int, int]]:
        """Read-only view of every on-grid cell's inclusive (lowest, highest)
        band of level indices between its obstacle and its ceiling, for
        loops that would otherwise pay a method call per lookup. The band
        is empty (lowest above highest) for an impassable cell; elsewhere it
        is :meth:`feasible_levels`."""
        return self._band_view

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
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # The read-only adjacency view does not pickle; a copy is rebuilt
        # from its arrays.
        return (Environment, (self.spec, self.obstacle_m, self.ceiling_m, self.risk))

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"Environment({s.rows}x{s.cols}, {s.level_count} levels, "
            f"start={s.start_cell}@{s.start_level}, goal={s.goal_cell})"
        )


def has_feasible_path(env: Environment) -> bool:
    """Breadth-first reachability of the goal over passable cells.

    Levels need no search of their own: a move may enter the next cell at any
    level of that cell's feasible band, whatever level it leaves from, so a
    passable neighbour of a reached cell is reached at every one of its
    levels. The start is reached at its start level, which the constructor
    checks is feasible.
    """
    start, goal = env.spec.start_cell, env.spec.goal_cell
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == goal:
            return True
        for nxt in env.successors(cell):
            if nxt not in seen and env.passable(nxt):
                seen.add(nxt)
                queue.append(nxt)
    return False


@dataclass(frozen=True)
class GeneratorSettings:
    """Knobs for random world generation.

    Obstacle heights and ceilings snap to level altitudes. Obstacle levels are
    sampled uniformly from ``1..max_obstacle_level``; a sampled level equal to
    ``level_count`` sits one rung above the top altitude and makes the cell
    impassable (bypass only). A ``ceiling_fraction`` share of cells gets a
    reduced ceiling sampled from ``min_ceiling_level..level_count-1``.
    :func:`generate` redraws a world with no feasible path up to
    :data:`MAX_ROUNDS` times.
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
        # Bad geometry fails here, when the settings are made, not in the
        # middle of a suite.
        self.grid_spec()

    def grid_spec(self) -> GridSpec:
        """Geometry and endpoints of every world these settings generate.

        Start and goal default to the middle row's west and east edges; the
        grid is mirrored east-west when the goal would lie west of the start.

        Raises:
            GridError: when the geometry is invalid; the message names the
                field.
        """
        start = tuple(self.start_cell) if self.start_cell is not None else (self.rows // 2, 0)
        goal = tuple(self.goal_cell) if self.goal_cell is not None else (self.rows // 2, self.cols - 1)
        if goal[1] < start[1]:
            # East-of-start orientation convention: mirror columns.
            start = (start[0], self.cols - 1 - start[1])
            goal = (goal[0], self.cols - 1 - goal[1])
        return GridSpec(
            rows=self.rows,
            cols=self.cols,
            cell_size_m=self.cell_size_m,
            levels_m=tuple(
                self.base_altitude_m + self.level_spacing_m * k for k in range(self.level_count)
            ),
            start_cell=start,
            goal_cell=goal,
            start_level=self.start_level,
        )


def generate(settings: GeneratorSettings, seed: int) -> Environment:
    """Sample a random world; deterministic in ``seed``.

    Start and goal cells are cleared of obstacles (see
    ``GeneratorSettings.grid_spec`` for their placement). Worlds are
    resampled, at most :data:`MAX_ROUNDS` times, until the goal is reachable.

    Raises:
        GenerationError: when no feasible world was found within the budget.
    """
    rng = np.random.default_rng(seed)
    s = settings
    spec = s.grid_spec()
    levels, start, goal = spec.levels_m, spec.start_cell, spec.goal_cell

    max_obs = s.max_obstacle_level
    if max_obs is None:
        max_obs = max(s.level_count - 1, 1)
    top = levels[-1]

    for _ in range(MAX_ROUNDS):
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
        f"no feasible world within {MAX_ROUNDS} rounds "
        f"(density {s.obstacle_density}, grid {s.rows}x{s.cols})"
    )


# -- instance files ---------------------------------------------------------


def _fail(path: str, message: str) -> "InstanceFormatError":
    return InstanceFormatError(f"{path}: {message}" if path else message)


def _get(mapping: Mapping, key: str, path: str):
    if not isinstance(mapping, Mapping):
        raise _fail(path, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise _fail(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _number(value, path: str) -> float:
    number = to_float(value)
    if number is None:
        raise _fail(path, f"expected a number, got {type(value).__name__}")
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
        InstanceFormatError: on schema or invariant violations; the message
            starts with the file path, then names the offending field path.
        OSError: when the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return _parse_instance(doc)
    except (InstanceFormatError, GridError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


# The instance-file key of each GridSpec field whose name differs from it.
_FILE_KEYS = {
    "cell_size_m": "grid.cell_size_m",
    "start_cell": "start.cell",
    "goal_cell": "goal.cell",
    "start_level": "start.level",
}


def _parse_instance(doc) -> Environment:
    """The world an instance document describes; errors name the field."""
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
        raise _fail(_FILE_KEYS.get(exc.field, exc.field), exc.detail) from exc

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
        for key, heights in (("obstacle_m", obstacle), ("ceiling_m", ceiling)):
            if key in entry:
                heights[r, c] = _number(entry[key], f"{where}.{key}")
                if heights[r, c] < 0.0:
                    raise _fail(f"{where}.{key}", f"must be non-negative (cell [{r}, {c}])")
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

    return Environment(spec, obstacle, ceiling, risk)


def save_instance(env: Environment, path: str) -> None:
    """Write a world as a JSON instance file; ``load_instance`` inverts it.

    Only cells that differ from the defaults (no obstacle, top-altitude
    ceiling, all-zero risk) are listed. The bytes are those of
    ``json.dump(doc, fh, indent=2)`` plus a newline, written without the json
    module: with an indent it skips its C encoder, and that pure-Python path
    was most of a suite's writing time.
    """
    spec = env.spec
    top = spec.levels_m[-1]
    obstacle, ceiling = env.obstacle_m.tolist(), env.ceiling_m.tolist()
    entries = []
    # The terrain arrays hold Python floats once listed, as the spec does,
    # and json writes a float as its repr.
    for r, c in env.cells():
        extra = ""
        if obstacle[r][c] != 0.0:
            extra += f',\n      "obstacle_m": {obstacle[r][c]!r}'
        if ceiling[r][c] != top:
            extra += f',\n      "ceiling_m": {ceiling[r][c]!r}'
        risk = env.risk_at((r, c))
        if any(risk):
            extra += ',\n      "risk": [\n        ' + ",\n        ".join(map(repr, risk)) + "\n      ]"
        if extra:
            entries.append(f'    {{\n      "cell": [\n        {r},\n        {c}\n      ]{extra}\n    }}')
    cells = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    levels = ",\n    ".join(map(repr, spec.levels_m))
    (start_r, start_c), (goal_r, goal_c) = spec.start_cell, spec.goal_cell
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "{\n"
            f'  "grid": {{\n    "rows": {spec.rows},\n    "cols": {spec.cols},\n'
            f'    "cell_size_m": {spec.cell_size_m!r}\n  }},\n'
            f'  "levels_m": [\n    {levels}\n  ],\n'
            f'  "start": {{\n    "cell": [\n      {start_r},\n      {start_c}\n    ],\n'
            f'    "level": {spec.start_level}\n  }},\n'
            f'  "goal": {{\n    "cell": [\n      {goal_r},\n      {goal_c}\n    ]\n  }},\n'
            '  "default_risk": 0.0,\n'
            f'  "cells": {cells}\n'
            "}\n"
        )
