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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .environment import Cell, Environment
from .physics import DroneParams, average_density, segment_energy, traversal_energy


class ChromosomeError(ValueError):
    """A candidate violated its structural contract."""


@dataclass(frozen=True)
class Chromosome:
    """Two-row path encoding plus an embedded objective weight."""

    cells: tuple[Cell, ...]
    entry_levels: tuple[int, ...]
    weight: float

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class ObjectiveVector:
    length_m: float
    energy_j: float
    risk: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.length_m, self.energy_j, self.risk)


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate(ch: Chromosome, env: Environment) -> ValidationReport:
    """Check a candidate against the world; reports, never raises."""
    spec = env.spec
    issues: list[Violation] = []

    if len(ch.cells) != len(ch.entry_levels):
        issues.append(
            Violation(
                "shape",
                0,
                f"{len(ch.cells)} cells but {len(ch.entry_levels)} entry levels",
            )
        )
        return ValidationReport(False, tuple(issues))
    if len(ch.cells) < 2:
        issues.append(Violation("shape", 0, "a path needs at least two cells"))
        return ValidationReport(False, tuple(issues))

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

    seen: set[Cell] = set()
    for t, cell in enumerate(ch.cells):
        if not env.in_bounds(cell):
            issues.append(Violation("cell-bounds", t, f"cell {cell} outside the grid"))
            return ValidationReport(False, tuple(issues))
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

    return ValidationReport(not issues, tuple(issues))


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
    distances = sorted({env.distance(cell, nxt) for cell in env.cells() for nxt in env.successors(cell)})

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


def evaluate(ch: Chromosome, env: Environment, params: DroneParams) -> ObjectiveVector:
    """Three objectives of a candidate.

    Raises:
        ChromosomeError: when the candidate fails :func:`validate`.
    """
    report = validate(ch, env)
    if not report.ok:
        first = report.violations[0]
        raise ChromosomeError(
            f"invalid candidate ({len(report.violations)} violation(s); "
            f"first: {first.rule} at index {first.index}: {first.detail})"
        )
    costs = arc_costs(env, params)
    geometry, band_risk = costs.geometry, costs.risk
    cells, levels = ch.cells, ch.entry_levels
    length = 0.0
    energy = 0.0
    risk = 0.0
    for t in range(len(cells) - 1):
        frm, la, lb = cells[t], levels[t], levels[t + 1]
        arc = geometry[env.distance(frm, cells[t + 1])][la][lb]
        length += arc[0]
        energy += arc[1]
        risk += band_risk[frm][la][lb]
    return ObjectiveVector(length, energy, risk)


@dataclass(frozen=True)
class NormBounds:
    """Min-max normalization bounds for the length and energy objectives."""

    length_lo: float
    length_hi: float
    energy_lo: float
    energy_hi: float

    @classmethod
    def from_vectors(cls, vectors) -> "NormBounds":
        lengths = [v[0] if isinstance(v, tuple) else v.length_m for v in vectors]
        energies = [v[1] if isinstance(v, tuple) else v.energy_j for v in vectors]
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


@dataclass(frozen=True)
class CombinedPoint:
    """Search-space image of a candidate: blended cost plus raw risk."""

    cost: float
    risk: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.cost, self.risk)


def path_record(ch: Chromosome, env: Environment, objectives: ObjectiveVector) -> dict:
    """JSON-ready export record of a path with entry altitudes and objectives."""
    levels = env.spec.levels_m
    return {
        "path": [
            {"cell": [r, c], "entry_altitude_m": levels[k]}
            for (r, c), k in zip(ch.cells, ch.entry_levels)
        ],
        "weight": ch.weight,
        "objectives": {
            "length_m": objectives.length_m,
            "energy_j": objectives.energy_j,
            "risk": objectives.risk,
        },
    }
