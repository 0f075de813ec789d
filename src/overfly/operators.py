"""Variation operators closed over valid candidates.

Construction walks randomly from start to goal over unused passable cells.
Crossover splices a head of the first parent onto a tail of the second at a
random cut, shifting the cut rightward until the junction is an adjacent
move, and cuts out the loop where a head cell comes back in the tail.
Mutation resamples a share of entry levels and perturbs the embedded weight.

:func:`breed` is the search's mating step: one loop that picks each parent
by binary tournament, recombines and mutates their children on plain gene
triples, and builds a :class:`~overfly.solution.Chromosome` only for a child
the novelty filter keeps. :func:`crossover` and :func:`mutate` are the
one-step operators, and the tested reference for that loop. Mutation
shares its rules (:func:`_resample_levels`, :func:`_perturb_weight`,
:func:`sample_entry_level`). For speed, :func:`breed` writes out the
tournaments and the loop-free part of :func:`_recombine` (the cut, both
junction searches, a splice that closes no loop, the blend weights) in its
own loop; both paths call :func:`_splice`, the one loop cut, when a head
cell comes back in the tail.

Parents must validate (:func:`~overfly.solution.validate`); then every
operator output validates against the world too, for a spliced child keeps
its parents' (cell, level) genes and mutation draws each level inside its
cell's band. The operators do not check their inputs: ``evaluate`` and
``validate`` stay the boundary that rejects an invalid candidate.

Every operator draws through ``rng.random()`` (a float in [0, 1)) and, to
perturb a weight, ``rng.normal(loc, scale)``, so ``rng`` may be a numpy
Generator or the run's :class:`BlockDraws`. A uniform ``u`` becomes an index
in ``0..n-1`` as ``int(u * n)``, a coin of probability ``p`` as ``u < p``,
and a level in ``lo..hi`` as ``lo + int(u * (hi - lo + 1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .environment import Cell, Environment
from .solution import Chromosome


class InitializationError(RuntimeError):
    """Random construction exhausted its retry budget."""


MAX_INIT_RETRIES = 1000  # walk restarts before construction gives up
DRAW_BLOCK = 1024  # floats per numpy fill of a BlockDraws; changes no output


def _blocks(fill: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The floats of ``fill(DRAW_BLOCK)``, block after block, without end."""
    return chain.from_iterable(map(np.ndarray.tolist, map(fill, repeat(DRAW_BLOCK))))


class BlockDraws:
    """A search run's random source, owned by the run and split off its seed.

    ``random()`` reads uniforms in [0, 1) from one child stream of
    ``SeedSequence(seed)``, ``normal(loc, scale)`` scales standard normals
    from the other. numpy fills each stream in blocks and a C-level iterator
    hands the floats out, so a uniform draw makes no numpy call. numpy
    draws a block's floats one after another, so the block size changes no
    output.
    """

    __slots__ = ("random", "_standard_normal")

    def __init__(self, seed: int) -> None:
        uniform, normal = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        self.random = _blocks(uniform.random).__next__
        self._standard_normal = _blocks(normal.standard_normal).__next__

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return loc + scale * self._standard_normal()


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
    """Counters surfaced in run reports.

    ``matings`` counts parent pairs drawn by :func:`breed`. Of the children
    it considers, ``novelty_rejections`` were dropped as genotypes already
    seen, and ``duplicates_accepted`` were kept as such after the barren
    budget ran out.
    """

    walk_restarts: int = 0
    splice_failures: int = 0
    loop_removals: int = 0
    crossovers: int = 0
    mutations: int = 0
    matings: int = 0
    novelty_rejections: int = 0
    duplicates_accepted: int = 0


def sample_entry_level(
    cell: Cell,
    previous_level: int,
    env: Environment,
    rng: np.random.Generator | BlockDraws,
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
    branch = int(rng.random() * 3)
    if branch == 0:
        return lo
    if branch == 1 and lo <= previous_level <= hi:
        return previous_level
    return lo + int(rng.random() * (hi - lo + 1))


def initialize(
    env: Environment,
    rng: np.random.Generator | BlockDraws,
    stats: OperatorStats | None = None,
) -> Chromosome:
    """Construct a random valid candidate by walking start to goal.

    Each step picks uniformly among unused passable successors; a dead end
    abandons the walk and restarts, at most :data:`MAX_INIT_RETRIES` times.

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
            cur = options[int(rng.random() * len(options))]
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


# A child before it becomes a Chromosome: (cells, entry levels, weight).
_Genes = tuple[tuple[Cell, ...], tuple[int, ...], float]


def _recombine(
    parent_a: Chromosome,
    parent_b: Chromosome,
    adjacency: Mapping[Cell, tuple[Cell, ...]],
    rng: np.random.Generator | BlockDraws,
) -> tuple[_Genes | None, _Genes | None, int]:
    """The two children of one crossover as (cells, levels, weight) triples,
    None for a child whose junction search failed, and the loops cut.

    Draws the cut, then each spliced child's blend weight, child one's first.
    """
    a_cells, b_cells = parent_a.cells, parent_b.cells
    shorter = min(len(a_cells), len(b_cells))
    cut = int(rng.random() * (shorter - 1))  # head may not already end at the goal

    # Child one shifts the tail start rightward along parent_b only; child
    # two shifts the head end and the tail start in lockstep. Their first
    # tries are the same junction.
    nbrs = adjacency[a_cells[cut]]
    tail_one = head_two = None
    for tail_start in range(cut + 1, len(b_cells)):
        if b_cells[tail_start] in nbrs:
            tail_one = tail_start
            break
    if tail_one == cut + 1:
        head_two = cut
    else:
        for head_end in range(cut + 1, shorter - 1):
            if b_cells[head_end + 1] in adjacency[a_cells[head_end]]:
                head_two = head_end
                break

    wa, wb = parent_a.weight, parent_b.weight
    one = two = None
    loops = 0
    if tail_one is not None:
        cells, levels, looped = _splice(parent_a, parent_b, cut, tail_one)
        loops += looped
        alpha = rng.random()
        one = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
    if head_two is not None:
        # Unshifted, child two is child one's splice, loop and all.
        if head_two != cut:
            cells, levels, looped = _splice(parent_a, parent_b, head_two, head_two + 1)
        loops += looped
        alpha = rng.random()
        two = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
    return one, two, loops


def crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    env: Environment,
    rng: np.random.Generator | BlockDraws,
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
    (counted as a loop removal). Each spliced child's weight is a uniform
    blend of its parents'. The caller draws ``crossover_probability``.

    Both parents must validate; then both children do too. Nothing here
    checks that: :func:`~overfly.solution.evaluate` and
    :func:`~overfly.solution.validate` reject an invalid candidate.
    """
    one, two, loops = _recombine(parent_a, parent_b, env.adjacency, rng)
    if stats is not None:
        stats.loop_removals += loops
        stats.splice_failures += (one is None) + (two is None)
        stats.crossovers += 1
    return (
        parent_a if one is None else Chromosome(*one),
        parent_b if two is None else Chromosome(*two),
    )


def _resample_levels(
    cells: tuple[Cell, ...],
    levels: tuple[int, ...],
    rate: float,
    env: Environment,
    rng: np.random.Generator | BlockDraws,
) -> tuple[int, ...]:
    """``levels`` with ``ceil(rate * (length - 1))`` distinct genes (never
    the pinned first one) redrawn left to right by
    :func:`sample_entry_level`. ``cells`` must hold at least two cells."""
    m = len(cells) - 1
    new = list(levels)
    for t in _floyd_subset(m, min(math.ceil(rate * m), m), rng):
        new[t + 1] = sample_entry_level(cells[t + 1], new[t], env, rng)
    return tuple(new)


def _floyd_subset(n: int, count: int, rng: np.random.Generator | BlockDraws) -> list[int]:
    """``count`` distinct indices from ``0..n-1`` (``count <= n``), sorted:
    Floyd's algorithm, one uniform draw per index."""
    picked: set[int] = set()
    for j in range(n - count, n):
        t = int(rng.random() * (j + 1))
        picked.add(j if t in picked else t)
    return sorted(picked)


def _perturb_weight(weight: float, rng: np.random.Generator | BlockDraws) -> float:
    """``weight`` plus Gaussian noise (sigma 0.1), clamped into [0, 1]."""
    return min(1.0, max(0.0, weight + float(rng.normal(0.0, 0.1))))


def mutate(
    ch: Chromosome,
    config: OperatorConfig | None,
    env: Environment,
    rng: np.random.Generator | BlockDraws,
    stats: OperatorStats | None = None,
) -> Chromosome:
    """Resample entry levels and perturb the weight, each with probability
    ``mutation_probability``.

    A level mutation redraws ``ceil(mutation_rate * (length - 1))`` entry
    levels (:func:`_resample_levels`); the weight perturbation is
    :func:`_perturb_weight`. When neither fires, ``ch`` itself is returned.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    p = cfg.mutation_probability
    cells, levels, weight = ch
    fired = False
    if rng.random() < p and len(cells) > 1:
        levels = _resample_levels(cells, levels, cfg.mutation_rate, env, rng)
        fired = True
    if rng.random() < p:
        weight = _perturb_weight(weight, rng)
        fired = True
    if not fired:
        return ch
    if stats is not None:
        stats.mutations += 1
    return Chromosome(cells, levels, weight)


def breed(
    members: Sequence[Chromosome],
    keys: Sequence,
    count: int,
    seen: set[tuple[tuple[Cell, ...], tuple[int, ...]]],
    max_barren: int,
    env: Environment,
    rng: np.random.Generator | BlockDraws,
    config: OperatorConfig,
    stats: OperatorStats,
) -> list[Chromosome]:
    """``count`` children of parents drawn from ``members`` by binary
    tournament, genotype-novel while the barren budget lasts.

    Each parent is the winner of a binary tournament: two indices drawn as
    ``int(rng.random() * len(members))``, the member with the lower key
    wins, and a tie goes to a coin (``random() < 0.5`` takes the first).
    ``keys`` holds one key per member, and ``members`` at least two. The
    keys must be totally ordered by ``<`` (so no NaN; ``run`` never hands
    one over): they are ranked once per call, equal keys sharing a rank,
    and the tournaments compare ranks. Each mating draws two parents,
    recombines them with probability ``crossover_probability`` (as
    :func:`crossover`), then mutates each child (as :func:`mutate`) while a
    slot is left and keeps it when its (cells, entry levels) genotype is
    not in ``seen``. After ``max_barren``
    consecutive matings that keep no child, the next mating's children are
    kept even when they are duplicates, and the count starts again. Kept
    genotypes are added to ``seen``. The draws, children and ``stats``
    counts are those of the tournaments and that composition of the
    one-step operators in mating order; ``stats`` gets them, plus the mating
    counters, added once per call.

    Raises:
        ValueError: when ``members`` holds fewer than two candidates or
            ``keys`` does not hold one key per member.
    """
    n = len(members)
    if n < 2 or len(keys) != n:
        raise ValueError(
            f"breed needs at least two members and one key each, got "
            f"{n} members and {len(keys)} keys"
        )
    # Dense ranks: equal keys share one, so ranks compare as the keys do.
    rank = [0] * n
    order = sorted(range(n), key=keys.__getitem__)
    r, last = 0, keys[order[0]]
    for i in order:
        if last < keys[i]:
            r += 1
            last = keys[i]
        rank[i] = r
    adjacency = env.adjacency
    random = rng.random
    crossover_probability = config.crossover_probability
    p, rate = config.mutation_probability, config.mutation_rate
    children: list[Chromosome] = []
    barren = 0
    matings = crossovers = failures = loops = mutations = rejections = duplicates = 0
    left = count
    while left:
        novelty_required = barren < max_barren
        # One binary tournament per parent: the lower rank wins; a tie goes
        # to a coin.
        i, j = int(random() * n), int(random() * n)
        if rank[j] < rank[i] or (rank[j] == rank[i] and random() >= 0.5):
            i = j
        k, j = int(random() * n), int(random() * n)
        if rank[j] < rank[k] or (rank[j] == rank[k] and random() >= 0.5):
            k = j
        parent_a, parent_b = members[i], members[k]
        matings += 1
        if random() < crossover_probability:
            # _recombine written out, so that a mating makes a call only
            # when _splice has a loop to cut.
            crossovers += 1
            a_cells, a_levels, wa = parent_a
            b_cells, b_levels, wb = parent_b
            nb = len(b_cells)
            shorter = len(a_cells) if len(a_cells) < nb else nb
            cut = int(random() * (shorter - 1))
            nbrs = adjacency[a_cells[cut]]
            start = cut + 1  # both children's first tail start
            if b_cells[start] in nbrs:
                # Unshifted: both children are this splice, loop and all.
                head, tail = a_cells[:start], b_cells[start:]
                if set(head).isdisjoint(tail):
                    cells, levels = head + tail, a_levels[:start] + b_levels[start:]
                else:
                    cells, levels, _ = _splice(parent_a, parent_b, cut, start)
                    loops += 2
                alpha = random()
                one = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
                alpha = random()
                two = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
            else:
                # Child one shifts the tail start along parent_b only.
                one = parent_a
                for t in range(start + 1, nb):
                    if b_cells[t] in nbrs:
                        head, tail = a_cells[:start], b_cells[t:]
                        if set(head).isdisjoint(tail):
                            cells, levels = head + tail, a_levels[:start] + b_levels[t:]
                        else:
                            cells, levels, _ = _splice(parent_a, parent_b, cut, t)
                            loops += 1
                        alpha = random()
                        one = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
                        break
                else:
                    failures += 1
                # Child two shifts the head end and tail start in lockstep.
                two = parent_b
                for t in range(start + 1, shorter):
                    if b_cells[t] in adjacency[a_cells[t - 1]]:
                        head, tail = a_cells[:t], b_cells[t:]
                        if set(head).isdisjoint(tail):
                            cells, levels = head + tail, a_levels[:t] + b_levels[t:]
                        else:
                            cells, levels, _ = _splice(parent_a, parent_b, t - 1, t)
                            loops += 1
                        alpha = random()
                        two = (cells, levels, alpha * wa + (1.0 - alpha) * wb)
                        break
                else:
                    failures += 1
        else:
            one, two = parent_a, parent_b
        accepted = False
        for cells, levels, weight in (one, two):
            if not left:
                break
            fired = False
            if random() < p and len(cells) > 1:
                levels = _resample_levels(cells, levels, rate, env, rng)
                fired = True
            if random() < p:
                weight = _perturb_weight(weight, rng)
                fired = True
            mutations += fired
            key = (cells, levels)
            if key in seen:
                if novelty_required:
                    rejections += 1
                    continue
                duplicates += 1
            seen.add(key)
            children.append(Chromosome(cells, levels, weight))
            left -= 1
            accepted = True
        barren = 0 if accepted else barren + 1
    stats.matings += matings
    stats.crossovers += crossovers
    stats.splice_failures += failures
    stats.loop_removals += loops
    stats.mutations += mutations
    stats.novelty_rejections += rejections
    stats.duplicates_accepted += duplicates
    return children
