"""Candidate flight paths and their three objectives.

A candidate is a variable-length, two-row chromosome: a cell sequence from
start to goal (adjacent, no revisits) paired with the altitude level at which
each cell is entered, plus an embedded preference weight in [0, 1] used when
the length and energy objectives are blended into one cost.

Objectives, all minimized:
    * length: sum of per-segment 3D distances,
    * energy: rotor-craft energy model over the segments,
    * risk: sum over segments of the worst risk value the drone sweeps at the
      departing cell between its entry level and the next cell's entry level.

Each segment's terms depend only on its departure cell, its ground distance
and its two entry levels, so :func:`arc_costs` tabulates them once per world
and drone. The evaluator, the exact enumerator and the integer-program
exporter all read that one table.

:func:`validate` checks a candidate in one pass over the world's move and
level-band tables and reports every rule it breaks, malformed genes
included; :func:`evaluate` scores only a candidate that passes, and raises
:class:`ChromosomeError` for any other.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .environment import Cell, Environment
from .physics import DroneParams, average_density, segment_energy, to_float, traversal_energy


class ChromosomeError(ValueError):
    """A candidate violated its structural contract."""


class Chromosome(NamedTuple):
    """Two-row path encoding plus an embedded objective weight."""

    cells: tuple[Cell, ...]
    entry_levels: tuple[int, ...]
    weight: float


class ObjectiveVector(NamedTuple):
    length_m: float
    energy_j: float
    risk: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# The one report of every valid candidate.
_VALID = ValidationReport(())


def validate(ch: Chromosome, env: Environment) -> ValidationReport:
    """Check a candidate against the world; reports, never raises.

    One pass over the route reads the world's tables: ``env.adjacency`` for
    cells and moves, ``env.bands`` for entry levels. A cell is any key of
    those tables, so a gene equal to an on-grid (row, col) pair is that
    cell; an entry level indexes the level ladder, so it must be an int, a
    bool or a numpy integer. The terrain arrays are read only to word a
    violation. Each rule family keeps its violations in its own list, and
    the report holds them in this order: shape (which ends the check),
    weight, endpoints, start-level, revisit, adjacency, then the level rules
    (level-range, obstacle-clearance, ceiling) by index. The first cell gene
    that equals no on-grid pair is a cell-bounds violation that ends the
    check before the adjacency and level rules. Every valid candidate gets
    one shared empty report.
    """
    cells, levels = ch.cells, ch.entry_levels
    if len(cells) != len(levels):
        detail = f"{len(cells)} cells but {len(levels)} entry levels"
        return ValidationReport((Violation("shape", 0, detail),))
    if len(cells) < 2:
        return ValidationReport((Violation("shape", 0, "a path needs at least two cells"),))

    spec = env.spec
    head: list[Violation] = []
    try:
        if not 0.0 <= ch.weight <= 1.0:
            head.append(Violation("weight", 0, f"weight {ch.weight} outside [0, 1]"))
    except (TypeError, ValueError):  # not a number, or an array
        head.append(Violation("weight", 0, f"weight {ch.weight!r} is not a number"))
    if not _same(cells[0], spec.start_cell):
        head.append(Violation("endpoints", 0, f"path starts at {cells[0]}, not {spec.start_cell}"))
    if not _same(cells[-1], spec.goal_cell):
        head.append(Violation("endpoints", len(cells) - 1, f"path ends at {cells[-1]}, not {spec.goal_cell}"))
    if not _same(levels[0], spec.start_level):
        head.append(Violation("start-level", 0, f"first entry level {levels[0]} != {spec.start_level}"))

    adjacency, bands = env.adjacency, env.bands
    revisits: list[Violation] = []
    moves: list[Violation] = []
    heights: list[Violation] = []
    seen: set[Cell] = set()
    successors: tuple[Cell, ...] = ()
    for t, cell in enumerate(cells):
        try:
            next_successors = adjacency[cell]
        except (KeyError, TypeError):  # off the grid, or unhashable
            return ValidationReport((*head, *revisits, _off_grid(t, cell, spec)))
        if cell in seen:
            revisits.append(Violation("revisit", t, f"cell {cell} visited twice"))
        seen.add(cell)
        if t and cell not in successors:
            moves.append(Violation("adjacency", t - 1, f"{cells[t - 1]} -> {cell} is not a legal move"))
        successors = next_successors
        level = levels[t]
        lo, hi = bands[cell]
        if type(level) is not int or not lo <= level <= hi:
            heights += _level_violations(t, cell, level, env)
    if head or revisits or moves or heights:
        return ValidationReport((*head, *revisits, *moves, *heights))
    return _VALID


def _same(gene, value) -> bool:
    """``gene == value``; False where the comparison fails, as it does for
    an array gene."""
    try:
        return bool(gene == value)
    except (TypeError, ValueError):
        return False


def _off_grid(t: int, cell, spec) -> Violation:
    """The cell-bounds violation of a gene that is no key of the grid."""
    try:
        row, col = cell
        inside = 0 <= row < spec.rows and 0 <= col < spec.cols
    except (TypeError, ValueError):  # not a pair, or not numbers
        inside = True
    if inside:
        return Violation("cell-bounds", t, f"cell {cell!r} is not a pair of integers")
    return Violation("cell-bounds", t, f"cell {cell} outside the grid")


def _level_violations(t: int, cell: Cell, level, env: Environment) -> list[Violation]:
    """The level-rule violations of entering grid cell ``cell`` at
    ``level``, worded from the world's arrays. Step 0 only needs a level on
    the ladder: the world pins the start level."""
    levels_m = env.spec.levels_m
    try:
        k = operator.index(level)
    except TypeError:
        return [Violation("level-range", t, f"entry level {level!r} is not an integer")]
    if not 0 <= k < len(levels_m):
        return [Violation("level-range", t, f"entry level {level} outside 0..{len(levels_m) - 1}")]
    if t == 0:
        return []
    try:
        where = (int(cell[0]), int(cell[1]))
    except TypeError:  # a complex gene equal to a grid cell
        where = next(grid_cell for grid_cell in env.adjacency if grid_cell == cell)
    obstacle, ceiling, altitude = env.obstacle_m[where], env.ceiling_m[where], levels_m[k]
    found = []
    if altitude < obstacle:
        found.append(
            Violation("obstacle-clearance", t, f"entering {cell} at {altitude} m, below its {obstacle} m obstacle")
        )
    if altitude > ceiling:
        found.append(Violation("ceiling", t, f"entering {cell} at {altitude} m, above its {ceiling} m ceiling"))
    return found


def max_risk_between(env: Environment, cell: Cell, level_a: int, level_b: int) -> tuple[float, int]:
    """Worst risk at ``cell`` over the inclusive level band between two levels.

    Symmetric in the two levels. Returns (risk, level index of the maximum;
    lowest such index on ties).
    """
    lo, hi = (level_a, level_b) if level_a <= level_b else (level_b, level_a)
    row = env.risk_at(cell)
    best = row[lo]
    best_k = lo
    for k in range(lo + 1, hi + 1):
        if row[k] > best:
            best = row[k]
            best_k = k
    return best, best_k


@dataclass(frozen=True)
class ArcCosts:
    """Objective terms of every arc of one world, for one drone.

    ``geometry[d][la][lb]`` is (3D length, segment energy, traversal energy)
    of a move over ground distance ``d`` (the cell edge or the diagonal) from
    entry level ``la`` to entry level ``lb``; segment energy is traversal
    energy plus the climb term. ``risk[cell][la][lb]`` is the worst risk at
    departure cell ``cell`` over the band between the two levels.
    """

    geometry: Mapping[float, tuple[tuple[tuple[float, float, float], ...], ...]]
    risk: Mapping[Cell, tuple[tuple[float, ...], ...]]


@functools.lru_cache(maxsize=64)
def arc_costs(env: Environment, params: DroneParams) -> ArcCosts:
    """The arc-cost table of a world, built once per (world, drone)."""
    levels = env.spec.levels_m
    ks = range(env.spec.level_count)
    distances = sorted(set(env.distances.values()))

    def arc(d: float, la: int, lb: int) -> tuple[float, float, float]:
        climb = levels[lb] - levels[la]
        rho = average_density(levels[la], levels[lb], params)
        energy = (segment_energy(d, climb, rho, params), traversal_energy(d, climb, rho, params))
        return (math.sqrt(d * d + climb * climb), *energy)

    geometry = {d: tuple(tuple(arc(d, la, lb) for lb in ks) for la in ks) for d in distances}
    risk = {
        cell: tuple(tuple(max_risk_between(env, cell, la, lb)[0] for lb in ks) for la in ks)
        for cell in env.cells()
    }
    # Read-only views: every caller shares the memoised table.
    return ArcCosts(MappingProxyType(geometry), MappingProxyType(risk))


# The table of the (world, drone) pair that evaluate scored last. A run
# scores every candidate against one pair, and two identity tests cost less
# than arc_costs's cache lookup, which hashes the drone and compares worlds
# that are equal but distinct objects, as each solve job loads its own.
_last_costs: tuple = (None, None, None)


def _costs_of(env: Environment, params: DroneParams) -> ArcCosts:
    """``arc_costs(env, params)``, remembered for the last pair."""
    global _last_costs
    last_env, last_params, costs = _last_costs
    if env is not last_env or params is not last_params:
        costs = arc_costs(env, params)
        _last_costs = (env, params, costs)
    return costs


def evaluate(ch: Chromosome, env: Environment, params: DroneParams) -> ObjectiveVector:
    """Three objectives of a candidate.

    Raises:
        ChromosomeError: when the candidate fails :func:`validate`.
    """
    report = validate(ch, env)
    if report.violations:
        first = report.violations[0]
        raise ChromosomeError(
            f"invalid candidate ({len(report.violations)} violation(s); "
            f"first: {first.rule} at index {first.index}: {first.detail})"
        )
    costs = _costs_of(env, params)
    geometry, band_risk, distances = costs.geometry, costs.risk, env.distances
    cells, levels = ch.cells, ch.entry_levels
    length = 0.0
    energy = 0.0
    risk = 0.0
    for frm, to, la, lb in zip(cells, cells[1:], levels, levels[1:]):
        arc = geometry[distances[frm, to]][la][lb]
        length += arc[0]
        energy += arc[1]
        risk += band_risk[frm][la][lb]
    return ObjectiveVector(length, energy, risk)


@dataclass(frozen=True)
class NormBounds:
    """Min-max normalization bounds for the length and energy objectives:
    finite floats, each upper bound at or above its lower one (equal is degenerate)."""

    length_lo: float
    length_hi: float
    energy_lo: float
    energy_hi: float

    def __post_init__(self) -> None:
        for lo, hi in (("length_lo", "length_hi"), ("energy_lo", "energy_hi")):
            for name in (lo, hi):
                value = to_float(getattr(self, name))
                if value is None or not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
                object.__setattr__(self, name, value)
            if getattr(self, hi) < getattr(self, lo):
                raise ValueError(f"{hi} must be >= {lo} ({getattr(self, lo)}), got {getattr(self, hi)}")

    @classmethod
    def from_vectors(cls, vectors) -> "NormBounds":
        """Bounds spanning the (length, energy, risk) vectors given."""
        lengths = [v[0] for v in vectors]
        energies = [v[1] for v in vectors]
        if not lengths:
            raise ValueError("cannot derive bounds from an empty collection")
        return cls(min(lengths), max(lengths), min(energies), max(energies))

    @property
    def degenerate_length(self) -> bool:
        return not (self.length_hi > self.length_lo)

    @property
    def degenerate_energy(self) -> bool:
        return not (self.energy_hi > self.energy_lo)

    def merge(self, other: "NormBounds") -> "NormBounds":
        return NormBounds(
            min(self.length_lo, other.length_lo),
            max(self.length_hi, other.length_hi),
            min(self.energy_lo, other.energy_lo),
            max(self.energy_hi, other.energy_hi),
        )
