"""Variation operators closed over valid candidates.

Construction walks randomly from start to goal over unused passable cells.
Crossover splices a head of the first parent onto a tail of the second at a
random cut, shifting the cut rightward until the junction is an adjacent
move, and cuts out the loop where a head cell comes back in the tail.
Mutation resamples a share of entry levels and perturbs the embedded weight.

Parents must validate (:func:`~overfly.solution.validate`); then every
operator output validates against the world too, for a spliced child keeps
its parents' (cell, level) genes and mutation draws each level inside its
cell's band. The operators do not check their inputs: ``evaluate`` and
``validate`` stay the boundary that rejects an invalid candidate.

Every ``rng`` may be a numpy Generator or a :class:`~overfly.draws.Draws` on
one; both give the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .draws import Draws
from .environment import Cell, Environment
from .solution import Chromosome


class InitializationError(RuntimeError):
    """Random construction exhausted its retry budget."""


MAX_INIT_RETRIES = 1000  # walk restarts before construction gives up


@dataclass(frozen=True)
class OperatorConfig:
    """Operator rates.

    Attributes:
        crossover_probability: Chance a mating pair is recombined.
        mutation_probability: Chance a candidate's entry levels are resampled
            and, independently, chance its weight is perturbed.
        mutation_rate: Share of mutable genes resampled per mutation
            (ceil(rate * (length - 1)) genes; the pinned first gene never).
    """

    crossover_probability: float = 0.9
    mutation_probability: float = 0.1
    mutation_rate: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 <= self.crossover_probability <= 1.0):
            raise ValueError("crossover_probability must lie in [0, 1]")
        if not (0.0 <= self.mutation_probability <= 1.0):
            raise ValueError("mutation_probability must lie in [0, 1]")
        if not (0.0 < self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must lie in (0, 1]")


# The settings of every operator call made with ``config=None``, built once.
_DEFAULT_CONFIG = OperatorConfig()


@dataclass
class OperatorStats:
    """Counters surfaced in run reports."""

    walk_restarts: int = 0
    splice_failures: int = 0
    loop_removals: int = 0
    crossovers: int = 0
    mutations: int = 0


def sample_entry_level(
    cell: Cell,
    previous_level: int,
    env: Environment,
    rng: np.random.Generator | Draws,
) -> int:
    """Draw an entry level for a passable cell.

    A three-way mixture, one third each: the lowest level clearing the cell's
    obstacle; the previous cell's level when it is feasible here (otherwise
    this branch falls through to the third); a uniform draw over the cell's
    whole feasible band.

    Raises:
        GridError: when the cell is off the grid or impassable.
    """
    lo, hi = env.feasible_levels(cell)
    branch = int(rng.integers(3))
    if branch == 0:
        return lo
    if branch == 1 and lo <= previous_level <= hi:
        return previous_level
    return int(rng.integers(lo, hi + 1))


def initialize(
    env: Environment,
    rng: np.random.Generator | Draws,
    config: OperatorConfig | None = None,
    stats: OperatorStats | None = None,
) -> Chromosome:
    """Construct a random valid candidate by walking start to goal.

    Each step picks uniformly among unused passable successors; a dead end
    abandons the walk and restarts, at most :data:`MAX_INIT_RETRIES` times.
    No rate of ``config`` applies to construction.

    Raises:
        InitializationError: when every retry dead-ended.
    """
    spec = env.spec
    for _ in range(MAX_INIT_RETRIES):
        cells: list[Cell] = [spec.start_cell]
        levels: list[int] = [spec.start_level]
        used = {spec.start_cell}
        cur = spec.start_cell
        dead_end = False
        while cur != spec.goal_cell:
            options = [c for c in env.successors(cur) if c not in used and env.passable(c)]
            if not options:
                dead_end = True
                break
            cur = options[int(rng.integers(len(options)))]
            levels.append(sample_entry_level(cur, levels[-1], env, rng))
            cells.append(cur)
            used.add(cur)
        if dead_end:
            if stats is not None:
                stats.walk_restarts += 1
            continue
        return Chromosome(tuple(cells), tuple(levels), float(rng.random()))
    raise InitializationError(
        f"no start-to-goal walk found in {MAX_INIT_RETRIES} attempts"
    )


def _splice(
    parent_a: Chromosome, parent_b: Chromosome, head_end: int, tail_start: int
) -> tuple[tuple[Cell, ...], tuple[int, ...], bool]:
    """The genes of ``parent_a`` up to ``head_end`` joined to those of
    ``parent_b`` from ``tail_start``, and whether the join cut a loop.

    Both parents must validate, so neither revisits a cell and a loop can
    only be a head cell that comes back in the tail. One cut removes every
    loop: the child keeps the head up to the head cell whose return in the
    tail comes last, then the tail after that return. Each gene keeps its
    parent's entry level, so every (cell, level) gene of the child is a gene
    of a parent.
    """
    head = parent_a.cells[: head_end + 1]
    tail = parent_b.cells[tail_start:]
    a_levels, b_levels = parent_a.entry_levels, parent_b.entry_levels
    if set(head).isdisjoint(tail):
        return head + tail, a_levels[: head_end + 1] + b_levels[tail_start:], False
    head_at = {cell: i for i, cell in enumerate(head)}
    back = next(j for j in range(len(tail) - 1, -1, -1) if tail[j] in head_at)
    keep = head_at[tail[back]] + 1
    return (
        head[:keep] + tail[back + 1 :],
        a_levels[:keep] + b_levels[tail_start + back + 1 :],
        True,
    )


def crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    env: Environment,
    rng: np.random.Generator | Draws,
    config: OperatorConfig | None = None,
    stats: OperatorStats | None = None,
) -> tuple[Chromosome, Chromosome]:
    """One-point crossover with rightward shift repair.

    Both children splice a head of ``parent_a`` onto a tail of ``parent_b``
    at a shared random cut. When the tail's first cell is not adjacent to the
    head's last cell, child one shifts the tail start rightward along
    ``parent_b`` only; child two shifts both indices in lockstep. A child
    whose shifts run off a parent without an adjacent junction falls back to
    its parent unchanged (counted as a splice failure). A head cell that
    comes back in the tail closes a loop, which :func:`_splice` cuts out
    (counted as a loop removal). No rate of ``config`` applies here; the
    caller draws ``crossover_probability``.

    Both parents must validate; then both children do too. Nothing here
    checks that: :func:`~overfly.solution.evaluate` and
    :func:`~overfly.solution.validate` reject an invalid candidate.
    """
    a_cells, b_cells = parent_a.cells, parent_b.cells
    wa, wb = parent_a.weight, parent_b.weight
    la, lb = len(a_cells), len(b_cells)
    cut = int(rng.integers(0, min(la, lb) - 1))  # head may not already end at the goal
    adjacency = env.adjacency
    loops = 0

    # Child one: shift the tail start rightward along parent_b only.
    child_one: Chromosome | None = None
    nbrs = adjacency[a_cells[cut]]
    for tail_start in range(cut + 1, lb):
        if b_cells[tail_start] in nbrs:
            cells, levels, looped = _splice(parent_a, parent_b, cut, tail_start)
            loops += looped
            alpha = rng.random()
            child_one = Chromosome(cells, levels, alpha * wa + (1.0 - alpha) * wb)
            break

    # Child two: shift the head end and the tail start in lockstep.
    child_two: Chromosome | None = None
    for head_end in range(cut, min(la, lb) - 1):
        tail_start = head_end + 1
        if b_cells[tail_start] in adjacency[a_cells[head_end]]:
            # Unshifted, this is child one's junction (its first try
            # succeeded too), so child one's genes and loop stand.
            if head_end != cut:
                cells, levels, looped = _splice(parent_a, parent_b, head_end, tail_start)
            loops += looped
            alpha = rng.random()
            child_two = Chromosome(cells, levels, alpha * wa + (1.0 - alpha) * wb)
            break

    if stats is not None:
        stats.loop_removals += loops
        stats.splice_failures += (child_one is None) + (child_two is None)
        stats.crossovers += 1
    return (
        parent_a if child_one is None else child_one,
        parent_b if child_two is None else child_two,
    )


def mutate(
    ch: Chromosome,
    config: OperatorConfig | None,
    env: Environment,
    rng: np.random.Generator | Draws,
    stats: OperatorStats | None = None,
) -> Chromosome:
    """Resample entry levels and perturb the weight, each with probability
    ``mutation_probability``.

    A level mutation redraws ``ceil(mutation_rate * (length - 1))`` distinct
    entry-level genes (never the pinned first one) left to right via
    :func:`sample_entry_level`. The weight perturbation adds Gaussian noise
    (sigma 0.1) clamped back into [0, 1]. When neither fires, ``ch`` itself
    is returned.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    p = cfg.mutation_probability
    cells, levels, weight = ch.cells, ch.entry_levels, ch.weight
    n = len(cells)
    fired = False
    if rng.random() < p and n > 1:
        count = min(math.ceil(cfg.mutation_rate * (n - 1)), n - 1)
        new = list(levels)
        for t in sorted(int(i) for i in rng.choice(n - 1, size=count, replace=False)):
            new[t + 1] = sample_entry_level(cells[t + 1], new[t], env, rng)
        levels = tuple(new)
        fired = True
    if rng.random() < p:
        weight = min(1.0, max(0.0, weight + float(rng.normal(0.0, 0.1))))
        fired = True
    if not fired:
        return ch
    if stats is not None:
        stats.mutations += 1
    return Chromosome(cells, levels, weight)
