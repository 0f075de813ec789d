"""Ground truth for tiny instances.

Exhaustive enumeration of every feasible (cell path, entry-level assignment)
pair yields the true Pareto front in (length, energy, risk); an arc-based
evaluator recomputes the objectives from the flow form of a candidate,
independently of the chromosome evaluator. Both exist to check the search
algorithms and the integer-program exporter, not to scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .environment import Cell, Environment
from .physics import DroneParams, air_density
from .solution import Chromosome, ObjectiveVector, arc_costs


class EnumerationLimitError(RuntimeError):
    """The instance exceeds the enumeration guard; nothing was truncated."""


class FlowError(ValueError):
    """An arc set does not encode one simple start-to-goal path.

    Messages cite the violated row family (eq3..eq8) of the flow model.
    """


@dataclass(frozen=True)
class EnumerationCaps:
    """Size guard for exhaustive enumeration.

    ``max_states`` bounds the number of dynamic-programming transitions
    processed; hitting any cap raises :class:`EnumerationLimitError` rather
    than returning a partial answer.
    """

    max_cells: int = 25
    max_levels: int = 4
    max_path_length: int | None = None
    max_states: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_cells < 2:
            raise ValueError("max_cells must be >= 2")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_path_length is not None and self.max_path_length < 2:
            raise ValueError("max_path_length must be >= 2 when set")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


@dataclass(frozen=True)
class ExactMember:
    """One Pareto-optimal assignment: cell path, entry levels, objectives."""

    cells: tuple[Cell, ...]
    entry_levels: tuple[int, ...]
    objectives: ObjectiveVector

    def chromosome(self, weight: float = 0.5) -> Chromosome:
        return Chromosome(self.cells, self.entry_levels, weight)


@dataclass(frozen=True)
class ExactFront:
    """Complete non-dominated set plus enumeration effort counters."""

    members: tuple[ExactMember, ...]
    paths_enumerated: int
    states_processed: int


def check_caps(env: Environment, caps: EnumerationCaps) -> None:
    """Raise when the instance is too large to enumerate."""
    cells = env.spec.rows * env.spec.cols
    if cells > caps.max_cells:
        raise EnumerationLimitError(
            f"instance has {cells} cells, enumeration is capped at {caps.max_cells}"
        )
    levels = env.spec.level_count
    if levels > caps.max_levels:
        raise EnumerationLimitError(
            f"instance has {levels} levels, enumeration is capped at {caps.max_levels}"
        )


Triple = tuple[float, float, float]


def _prune_entries(
    entries: list[tuple[Triple, tuple[int, ...]]],
) -> list[tuple[Triple, tuple[int, ...]]]:
    """Non-dominated subset; one representative (smallest level sequence)
    per duplicated objective triple."""
    entries.sort()
    kept: list[tuple[Triple, tuple[int, ...]]] = []
    for triple, seq in entries:
        if kept and kept[-1][0] == triple:
            continue
        dominated = False
        for other, _ in kept:
            if other[0] <= triple[0] and other[1] <= triple[1] and other[2] <= triple[2]:
                dominated = True
                break
        if not dominated:
            kept.append((triple, seq))
    return kept


def enumerate_front(
    env: Environment,
    params: DroneParams,
    caps: EnumerationCaps | None = None,
) -> ExactFront:
    """Exact tri-objective Pareto front by exhaustive search.

    Depth-first enumeration of all simple cell paths from start to goal,
    crossed with every feasible entry-level assignment. Level assignments
    along a fixed path are explored by dynamic programming over the entry
    level per position (exact: each segment's contribution depends only on
    the adjacent pair of levels), keeping per-level non-dominated partial
    objective triples. Segment terms come from ``solution.arc_costs`` and
    accumulate in the chromosome evaluator's order, so member objectives
    equal ``solution.evaluate`` output.

    Raises:
        EnumerationLimitError: when a cap would be exceeded (never truncates).
    """
    caps = caps or EnumerationCaps()
    check_caps(env, caps)
    spec = env.spec
    goal = spec.goal_cell
    costs = arc_costs(env, params)
    states = 0
    paths = 0
    # Global front entries: (triple, (cells, level sequence)).
    front: list[tuple[Triple, tuple[tuple[Cell, ...], tuple[int, ...]]]] = []

    def merge_global(triple: Triple, cells: tuple[Cell, ...], seq: tuple[int, ...]) -> None:
        rep = (cells, seq)
        for other, other_rep in front:
            if other == triple:
                if rep < other_rep:
                    front.remove((other, other_rep))
                    front.append((triple, rep))
                return
            if other[0] <= triple[0] and other[1] <= triple[1] and other[2] <= triple[2]:
                return
        front[:] = [
            (v, r)
            for v, r in front
            if not (triple[0] <= v[0] and triple[1] <= v[1] and triple[2] <= v[2])
        ]
        front.append((triple, rep))

    def process_path(cells: tuple[Cell, ...]) -> None:
        nonlocal states, paths
        paths += 1
        current: dict[int, list[tuple[Triple, tuple[int, ...]]]] = {
            spec.start_level: [((0.0, 0.0, 0.0), (spec.start_level,))]
        }
        for t in range(len(cells) - 1):
            frm, to = cells[t], cells[t + 1]
            lo, hi = env.feasible_levels(to)
            geometry = costs.geometry[env.distance(frm, to)]
            band_risk = costs.risk[frm]
            nxt: dict[int, list[tuple[Triple, tuple[int, ...]]]] = {}
            for la, partials in current.items():
                arcs, risks = geometry[la], band_risk[la]
                for triple, seq in partials:
                    for lb in range(lo, hi + 1):
                        states += 1
                        if states > caps.max_states:
                            raise EnumerationLimitError(
                                f"enumeration exceeded {caps.max_states} level-assignment states"
                            )
                        arc = arcs[lb]
                        cand = (triple[0] + arc[0], triple[1] + arc[1], triple[2] + risks[lb])
                        nxt.setdefault(lb, []).append((cand, seq + (lb,)))
            current = {k: _prune_entries(v) for k, v in nxt.items()}
        for partials in current.values():
            for triple, seq in partials:
                merge_global(triple, cells, seq)

    path: list[Cell] = [spec.start_cell]
    on_path = {spec.start_cell}

    def dfs(cell: Cell) -> None:
        if cell == goal:
            process_path(tuple(path))
            return
        if caps.max_path_length is not None and len(path) >= caps.max_path_length:
            return
        for nxt in env.successors(cell):
            if nxt in on_path or not env.passable(nxt):
                continue
            path.append(nxt)
            on_path.add(nxt)
            dfs(nxt)
            path.pop()
            on_path.remove(nxt)

    dfs(spec.start_cell)

    members = [
        ExactMember(cells=rep[0], entry_levels=rep[1], objectives=ObjectiveVector(*triple))
        for triple, rep in front
    ]
    members.sort(key=lambda m: (m.objectives.as_tuple(), m.cells, m.entry_levels))
    return ExactFront(
        members=tuple(members), paths_enumerated=paths, states_processed=states
    )


def iter_assignments(
    env: Environment, cells: Sequence[Cell]
) -> Iterator[tuple[int, ...]]:
    """All feasible entry-level assignments for a fixed cell path.

    Position 0 is pinned to the instance's start level; every later position
    ranges over the full feasible band of its cell. Yields in lexicographic
    order.
    """
    bands = [env.feasible_levels(cell) for cell in cells[1:]]

    def rec(prefix: tuple[int, ...], pos: int) -> Iterator[tuple[int, ...]]:
        if pos == len(bands):
            yield prefix
            return
        lo, hi = bands[pos]
        for k in range(lo, hi + 1):
            yield from rec(prefix + (k,), pos + 1)

    yield from rec((env.spec.start_level,), 0)


# -- arc-form evaluator ------------------------------------------------------

Arc = tuple[Cell, Cell, int]


def chromosome_arcs(ch: Chromosome) -> tuple[Arc, ...]:
    """Decode a chromosome into (from-cell, to-cell, entry-level) arcs."""
    return tuple(
        (ch.cells[t], ch.cells[t + 1], ch.entry_levels[t + 1])
        for t in range(len(ch.cells) - 1)
    )


@dataclass(frozen=True)
class ArcTerm:
    """Per-arc intermediates of the arc-form evaluator."""

    frm: Cell
    to: Cell
    entry_from: int
    entry_to: int
    altitude_change_m: float
    ascent_m: float
    descent_m: float
    length_m: float
    energy_j: float
    risk: float


def assignment_terms(
    env: Environment,
    params: DroneParams,
    cells: Sequence[Cell],
    entry_levels: Sequence[int],
) -> list[ArcTerm]:
    """Arc-form intermediates for an ordered path; assumes feasibility.

    Altitude changes are signed differences of level altitudes; the ascent
    part feeds the climb-energy summand, and the traversal energy uses the
    square root of (squared 3D distance over mean endpoint density).
    """
    if len(cells) != len(entry_levels):
        raise ValueError("cells and entry_levels must have equal length")
    h = env.spec.levels_m
    theta = params.energy_coefficient
    out: list[ArcTerm] = []
    for t in range(len(cells) - 1):
        frm, to = cells[t], cells[t + 1]
        kf, kt = entry_levels[t], entry_levels[t + 1]
        d = env.distance(frm, to)
        dh = h[kt] - h[kf]
        rho_pair = (air_density(h[kf], params) + air_density(h[kt], params)) / 2.0
        lo, hi = (kf, kt) if kf <= kt else (kt, kf)
        risk_row = env.risk_at(frm)
        out.append(
            ArcTerm(
                frm=frm,
                to=to,
                entry_from=kf,
                entry_to=kt,
                altitude_change_m=dh,
                ascent_m=dh if dh > 0.0 else 0.0,
                descent_m=-dh if dh < 0.0 else 0.0,
                length_m=math.sqrt(dh * dh + d * d),
                energy_j=(theta / params.speed_mps)
                * math.sqrt((dh * dh + d * d) / rho_pair),
                risk=max(risk_row[k] for k in range(lo, hi + 1)),
            )
        )
    return out


def _ordered_path(arcs: Sequence[Arc], env: Environment) -> tuple[list[Cell], list[int]]:
    """Validate an arc set as one simple start-to-goal flow; return the path.

    Raises FlowError citing the violated row family: eq3 (leave the start
    exactly once), eq4 (enter the goal exactly once), eq5 (leave every
    entered intermediate cell exactly once, no circulation), eq6 (never
    leave the goal).
    """
    spec = env.spec
    start, goal = spec.start_cell, spec.goal_cell
    seen: set[Arc] = set()
    by_tail: dict[Cell, list[Arc]] = {}
    in_count: dict[Cell, int] = {}
    out_count: dict[Cell, int] = {}
    for arc in arcs:
        frm, to, level = arc
        if arc in seen:
            raise FlowError(f"duplicate arc {arc}")
        seen.add(arc)
        if to not in env.successors(frm):
            raise FlowError(f"arc {frm}->{to} is not a grid move")
        if not 0 <= level < spec.level_count:
            raise FlowError(f"arc {arc} uses an undefined level")
        by_tail.setdefault(frm, []).append(arc)
        out_count[frm] = out_count.get(frm, 0) + 1
        in_count[to] = in_count.get(to, 0) + 1

    if out_count.get(start, 0) != 1:
        raise FlowError(
            f"flow violates eq3: the start cell must depart exactly once, "
            f"found {out_count.get(start, 0)} departures"
        )
    if in_count.get(goal, 0) != 1:
        raise FlowError(
            f"flow violates eq4: the goal cell must be entered exactly once, "
            f"found {in_count.get(goal, 0)} entries"
        )
    if out_count.get(goal, 0) != 0:
        raise FlowError("flow violates eq6: the goal cell must not depart")
    for cell in set(in_count) | set(out_count):
        if cell in (start, goal):
            continue
        if in_count.get(cell, 0) != out_count.get(cell, 0):
            raise FlowError(
                f"flow violates eq5: cell {cell} enters {in_count.get(cell, 0)} "
                f"time(s) but departs {out_count.get(cell, 0)} time(s)"
            )

    cells: list[Cell] = [start]
    levels: list[int] = [spec.start_level]
    visited = {start}
    used = 0
    cur = start
    while cur != goal:
        outs = by_tail.get(cur, [])
        if len(outs) != 1:
            raise FlowError(
                f"flow violates eq5: cell {cur} departs {len(outs)} time(s) along the walk"
            )
        _, to, level = outs[0]
        if to in visited:
            raise FlowError(f"flow violates eq5: cell {to} is entered twice")
        cells.append(to)
        levels.append(level)
        visited.add(to)
        used += 1
        cur = to
    if used != len(arcs):
        raise FlowError(
            f"flow violates eq5: {len(arcs) - used} arc(s) form a circulation "
            "disconnected from the start-to-goal walk"
        )
    return cells, levels


def evaluate_assignment(
    arcs: Sequence[Arc], env: Environment, params: DroneParams
) -> ObjectiveVector:
    """Objectives of an arc-form assignment, independent of the chromosome
    evaluator.

    Validates the flow structure (FlowError citing eq3..eq6), then the
    altitude window of every entered cell (eq7: at or above the obstacle,
    eq8: at or below the ceiling), then sums per-arc terms with compensated
    summation.
    """
    cells, levels = _ordered_path(arcs, env)
    h = env.spec.levels_m
    for cell, level in zip(cells[1:], levels[1:]):
        data = env.cell_data(cell)
        if h[level] < data.obstacle_m:
            raise FlowError(
                f"flow violates eq7: entering {cell} at altitude {h[level]} "
                f"is below its obstacle top {data.obstacle_m}"
            )
        if h[level] > data.ceiling_m:
            raise FlowError(
                f"flow violates eq8: entering {cell} at altitude {h[level]} "
                f"is above its ceiling {data.ceiling_m}"
            )
    terms = assignment_terms(env, params, cells, levels)
    length = math.fsum(t.length_m for t in terms)
    travel = math.fsum(t.energy_j for t in terms)
    climb = math.fsum(
        params.weight_kg * params.gravity * t.ascent_m for t in terms if t.ascent_m > 0.0
    )
    risk = math.fsum(t.risk for t in terms)
    return ObjectiveVector(length, travel + climb, risk)
