"""Ground truth for the exact oracle.

Multicriteria label setting over the acyclic (cell, run direction, entry
level) state graph yields the true Pareto front in (length, energy, risk) of
every feasible (cell path, entry-level assignment) pair; an arc-based
evaluator recomputes the objectives from the flow form of a candidate,
independently of the chromosome evaluator. Both exist to check the search
algorithms and the integer-program exporter. The only size guard is
``MAX_STATES``, a budget of label extensions: every world of the generated
T1-T5 suite fits it, and a world that does not is refused, never truncated.
Grid size and level count are not capped. The front is built with the
cyclic garbage collector paused (``environment.collector_paused``): its
labels are acyclic tuples that reference counting frees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .environment import Cell, EnumerationLimitError, Environment, collector_paused
from .metrics import nondominated
from .physics import DroneParams, air_density
from .solution import Chromosome, ObjectiveVector, arc_costs

# The most label extensions the exact front may process; past it
# ``enumerate_front`` raises rather than return a partial answer.
MAX_STATES = 10_000_000


class FlowError(ValueError):
    """An arc set does not encode one simple start-to-goal path.

    Messages cite the violated row family (eq3..eq8) of the flow model.
    """


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


Triple = tuple[float, float, float]
# A partial path: (objective triple, cells, entry levels).
Label = tuple[Triple, tuple[Cell, ...], tuple[int, ...]]

# Run directions inside a column: entered from the west (or the start), then
# running north or running south.
_ENTERED, _NORTH, _SOUTH = 0, 1, 2


def _prune(labels: list[Label]) -> list[Label]:
    """Non-dominated labels in (triple, cells, levels) order; the smallest
    (cells, levels) represents a duplicated triple."""
    labels.sort()
    return [labels[i] for i in nondominated([lab[0] for lab in labels])]


@collector_paused
def enumerate_front(env: Environment, params: DroneParams) -> ExactFront:
    """Exact tri-objective Pareto front by multicriteria label setting.

    Moves never go west and revisits are banned, so inside one column a path
    runs straight north or straight south. The states (cell, run direction,
    entry level) therefore form an acyclic graph, every continuation depends
    only on the state, and per-state Pareto labels are exact (Martins 1984).
    States are settled column by column from the start eastward; inside a
    column, entered states first, then northward runs bottom-up, then
    southward runs top-down. Each label sums its ``solution.arc_costs`` terms
    in path order from zero, as ``solution.evaluate`` does, so member
    objectives equal the evaluator's output. ``paths_enumerated`` counts the
    simple start-to-goal cell paths; ``states_processed`` counts label
    extensions.

    Raises:
        EnumerationLimitError: when ``MAX_STATES`` would be exceeded (never
            truncates).
    """
    spec = env.spec
    start, goal = spec.start_cell, spec.goal_cell
    costs = arc_costs(env, params)

    def moves(cell: Cell, direction: int) -> list[tuple[Cell, int]]:
        """(next cell, its run direction) pairs open to a path in this state."""
        out = []
        for to in env.successors(cell):
            if not env.passable(to):
                continue
            if to[1] != cell[1]:
                out.append((to, _ENTERED))
                continue
            run = _NORTH if to[0] < cell[0] else _SOUTH
            if direction in (_ENTERED, run):
                out.append((to, run))
        return out

    path_counts = {(start, _ENTERED): 1}
    pending: dict[tuple[Cell, int, int], list[Label]] = {
        (start, _ENTERED, spec.start_level): [((0.0, 0.0, 0.0), (start,), (spec.start_level,))]
    }
    at_goal: list[Label] = []
    paths = 0
    states = 0
    rows = range(spec.rows)
    for col in range(start[1], spec.cols):
        order = (
            [((r, col), _ENTERED) for r in rows]
            + [((r, col), _NORTH) for r in reversed(rows)]
            + [((r, col), _SOUTH) for r in rows]
        )
        for cell, direction in order:
            count = path_counts.pop((cell, direction), 0)
            if not count:
                continue
            steps = moves(cell, direction)
            for step in steps:
                if step[0] == goal:
                    paths += count
                else:
                    path_counts[step] = path_counts.get(step, 0) + count
            for la in range(spec.level_count):
                labels = _prune(pending.pop((cell, direction, la), []))
                if not labels:
                    continue
                risks = costs.risk[cell][la]
                for to, to_dir in steps:
                    arcs = costs.geometry[env.distance(cell, to)][la]
                    lo, hi = env.feasible_levels(to)
                    states += len(labels) * (hi - lo + 1)
                    if states > MAX_STATES:
                        raise EnumerationLimitError(
                            f"enumeration exceeded {MAX_STATES} label extensions"
                        )
                    for lb in range(lo, hi + 1):
                        dl, de, dr = arcs[lb][0], arcs[lb][1], risks[lb]
                        dest = at_goal if to == goal else pending.setdefault((to, to_dir, lb), [])
                        dest.extend(
                            ((a + dl, b + de, c + dr), cells + (to,), levels + (lb,))
                            for (a, b, c), cells, levels in labels
                        )

    members = tuple(
        ExactMember(cells=cells, entry_levels=levels, objectives=ObjectiveVector(*triple))
        for triple, cells, levels in _prune(at_goal)
    )
    return ExactFront(members=members, paths_enumerated=paths, states_processed=states)


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
    """The terms of one arc that the arc-form evaluator sums: 3D length,
    traversal energy, the ascent that feeds the climb term, and risk."""

    length_m: float
    energy_j: float
    ascent_m: float
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
                length_m=math.sqrt(dh * dh + d * d),
                energy_j=(theta / params.speed_mps)
                * math.sqrt((dh * dh + d * d) / rho_pair),
                ascent_m=dh if dh > 0.0 else 0.0,
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
        obstacle, ceiling = float(env.obstacle_m[cell]), float(env.ceiling_m[cell])
        if h[level] < obstacle:
            raise FlowError(
                f"flow violates eq7: entering {cell} at altitude {h[level]} "
                f"is below its obstacle top {obstacle}"
            )
        if h[level] > ceiling:
            raise FlowError(
                f"flow violates eq8: entering {cell} at altitude {h[level]} "
                f"is above its ceiling {ceiling}"
            )
    terms = assignment_terms(env, params, cells, levels)
    length = math.fsum(t.length_m for t in terms)
    travel = math.fsum(t.energy_j for t in terms)
    climb = math.fsum(
        params.weight_kg * params.gravity * t.ascent_m for t in terms if t.ascent_m > 0.0
    )
    risk = math.fsum(t.risk for t in terms)
    return ObjectiveVector(length, travel + climb, risk)
