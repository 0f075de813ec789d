"""Multi-objective search loops over the two-dimensional (cost, risk) space.

Three elitist algorithms share one generational skeleton: rank/crowding
survival, reference-direction niching survival, and a strength/density
archive. Selection happens in two objectives: the blended cost (each
candidate's own weight applied to the normalized length and energy) and the
raw accumulated risk. The evaluation budget counts objective evaluations.

Reporting is decoupled from search: run results carry the cumulative archive
of raw-objective non-dominated solutions, and the per-generation hypervolume
trace re-measures that archive at a fixed 0.5 weight with normalization
bounds from all evaluated points against one fixed reference, which makes
the trace non-decreasing for every algorithm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .draws import Draws
from .environment import Environment
from .metrics import hypervolume_2d, shared_reference
from .operators import OperatorConfig, OperatorStats, crossover, initialize, mutate
from .physics import DroneParams
from .solution import (
    Chromosome,
    CombinedPoint,
    NormBounds,
    ObjectiveVector,
    evaluate,
)

ALGORITHMS = ("nsga2", "nsga3", "spea2")


@dataclass(frozen=True)
class AlgoConfig:
    """One solver run's settings."""

    algorithm: str = "nsga2"
    population_size: int = 100
    evaluation_budget: int = 10000
    archive_size: int = 100
    reference_point_divisions: int = 99
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError(f"population_size must be even and >= 4, got {self.population_size}")
        if self.evaluation_budget < self.population_size:
            raise ValueError("evaluation_budget must cover at least the initial population")
        if self.archive_size < 2:
            raise ValueError("archive_size must be >= 2")
        if self.reference_point_divisions < 1:
            raise ValueError("reference_point_divisions must be >= 1")


# -- building blocks ---------------------------------------------------------


def _dominance(pts: np.ndarray) -> np.ndarray:
    """``dom[i, j]``: point i dominates point j (minimization)."""
    le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    lt = (pts[:, None, :] < pts[None, :, :]).any(axis=2)
    return le & lt


def fast_nondominated_sort(points) -> list[list[int]]:
    """Split points into non-domination fronts (minimization).

    Returns index lists, best front first. Equal vectors never dominate each
    other and therefore share a front.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, m) array of points, got shape {pts.shape}")
    n = len(pts)
    if n == 0:
        return []
    dom = _dominance(pts)
    counts = dom.sum(axis=0).astype(int)
    alive = np.ones(n, dtype=bool)
    fronts: list[list[int]] = []
    while alive.any():
        current = np.where(alive & (counts == 0))[0]
        fronts.append([int(i) for i in current])
        alive[current] = False
        counts -= dom[current].sum(axis=0)
    return fronts


def crowding_distance(points) -> np.ndarray:
    """Crowding distance per point within one front.

    Boundary points of every objective get infinity; interior points sum the
    normalized neighbour gaps. Exact duplicates of an earlier point get 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, m) array of points, got shape {pts.shape}")
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


def reference_points(objectives: int = 2, divisions: int = 1) -> np.ndarray:
    """Evenly spaced simplex-lattice reference directions.

    All non-negative vectors whose coordinates are multiples of
    ``1/divisions`` and sum to one; for two objectives that is
    ``divisions + 1`` points ordered by descending first coordinate.
    """
    if objectives < 2:
        raise ValueError("need at least two objectives")
    if divisions < 1:
        raise ValueError("divisions must be >= 1")
    rows: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for v in range(remaining, -1, -1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], divisions, objectives)
    return np.asarray(rows, dtype=float) / float(divisions)


def spea2_fitness(points) -> np.ndarray:
    """Strength-based fitness: raw dominated-strength sum plus k-NN density.

    Fitness below 1 marks non-dominated points. Density is
    ``1 / (sigma_k + 2)`` with ``k = floor(sqrt(n))`` and ``sigma_k`` the
    distance to the k-th nearest neighbour (0 when there are no neighbours).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, m) array of points, got shape {pts.shape}")
    n = len(pts)
    if n == 0:
        return np.zeros(0)
    dom = _dominance(pts)
    strength = dom.sum(axis=1).astype(float)
    raw = (dom * strength[:, None]).sum(axis=0)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    k = min(math.isqrt(n), n - 1)
    sigma = np.sort(dist, axis=1)[:, k - 1] if k >= 1 else np.zeros(n)
    return raw + 1.0 / (sigma + 2.0)


def spea2_truncate(points, target: int) -> list[int]:
    """Indices kept after iteratively dropping the most crowded point.

    Each round removes the point with the smallest distance to its k-th
    nearest surviving neighbour (``k = floor(sqrt(survivors))``; first index
    wins ties) until ``target`` points remain.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if target < 0:
        raise ValueError("target must be non-negative")
    if n <= target:
        return list(range(n))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining > target:
        idx = np.where(alive)[0]
        sub = dist[np.ix_(idx, idx)]
        k = min(math.isqrt(remaining), remaining - 1)
        sigma = np.sort(sub, axis=1)[:, k - 1] if k >= 1 else np.zeros(remaining)
        alive[idx[int(np.argmin(sigma))]] = False
        remaining -= 1
    return [int(i) for i in np.where(alive)[0]]


# -- survivor selection ------------------------------------------------------


def _nsga2_select(points: np.ndarray, target: int) -> list[int]:
    """Fill whole fronts in rank order; split the last by descending crowding."""
    chosen: list[int] = []
    for front in fast_nondominated_sort(points):
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
            if len(chosen) == target:
                break
        else:
            cd = crowding_distance(points[front])
            order = np.argsort(-cd, kind="stable")
            chosen.extend(front[i] for i in order[: target - len(chosen)])
            break
    return chosen


def _nsga3_select(
    points: np.ndarray,
    target: int,
    ref_dirs: np.ndarray,
    rng: np.random.Generator,
) -> list[int]:
    """Fill whole fronts; resolve the split front by reference-point niching."""
    fronts = fast_nondominated_sort(points)
    chosen: list[int] = []
    last: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
        else:
            last = front
            break
    if len(chosen) == target or not last:
        return chosen[:target]

    pool = chosen + last
    m = points.shape[1]
    considered = points[pool]
    ideal = considered.min(axis=0)
    translated = points - ideal

    # Extreme points by achievement scalarization, then simplex intercepts;
    # fall back to the componentwise maximum when the system degenerates.
    extremes: list[int] = []
    for j in range(m):
        axis_weight = np.full(m, 1e-6)
        axis_weight[j] = 1.0
        asf = (translated[pool] / axis_weight).max(axis=1)
        extremes.append(pool[int(np.argmin(asf))])
    intercepts: np.ndarray | None = None
    try:
        sol = np.linalg.solve(translated[extremes], np.ones(m))
        if np.all(sol > 1e-12):
            cand = 1.0 / sol
            if np.all(np.isfinite(cand)):
                intercepts = cand
    except np.linalg.LinAlgError:
        intercepts = None
    if intercepts is None:
        intercepts = translated[pool].max(axis=0)
    intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
    normalized = translated / intercepts

    dirs = ref_dirs / np.linalg.norm(ref_dirs, axis=1, keepdims=True)

    def associate(indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        s = normalized[indices]
        proj = s @ dirs.T
        d2 = (s * s).sum(axis=1)[:, None] - proj * proj
        nearest = np.argmin(d2, axis=1)
        best = np.sqrt(np.clip(d2[np.arange(len(indices)), nearest], 0.0, None))
        return nearest, best

    counts = np.zeros(len(dirs), dtype=int)
    if chosen:
        nearest_chosen, _ = associate(chosen)
        for r in nearest_chosen:
            counts[r] += 1
    nearest_last, dist_last = associate(last)
    by_ref: dict[int, list[tuple[float, int]]] = {}
    for pos, idx in enumerate(last):
        by_ref.setdefault(int(nearest_last[pos]), []).append((float(dist_last[pos]), idx))
    for r in by_ref:
        by_ref[r].sort()
    open_refs = sorted(by_ref)

    while len(chosen) < target:
        min_count = min(counts[r] for r in open_refs)
        ties = [r for r in open_refs if counts[r] == min_count]
        r = ties[int(rng.integers(len(ties)))]
        bucket = by_ref[r]
        pick_pos = 0 if counts[r] == 0 else int(rng.integers(len(bucket)))
        _, idx = bucket.pop(pick_pos)
        chosen.append(idx)
        counts[r] += 1
        if not bucket:
            open_refs.remove(r)
    return chosen


def _spea2_archive_select(points: np.ndarray, fitness: np.ndarray, target: int) -> list[int]:
    """Next archive: all non-dominated, truncated on overflow, padded with the
    best dominated fitness on underflow."""
    nd = [i for i in range(len(points)) if fitness[i] < 1.0]
    if len(nd) > target:
        kept = spea2_truncate(points[nd], target)
        return [nd[i] for i in kept]
    if len(nd) < target:
        dominated = sorted(
            (i for i in range(len(points)) if fitness[i] >= 1.0),
            key=lambda i: (fitness[i], i),
        )
        return nd + dominated[: target - len(nd)]
    return nd


# -- run ---------------------------------------------------------------------


@dataclass(frozen=True)
class FrontMember:
    chromosome: Chromosome
    objectives: ObjectiveVector
    combined: CombinedPoint


@dataclass(frozen=True)
class RunResult:
    config: AlgoConfig
    front: tuple[FrontMember, ...]
    archive: tuple[FrontMember, ...]
    hv_trace: tuple[tuple[int, float], ...]
    trace_reference: tuple[float, float]
    bounds: NormBounds
    degenerate_normalization: bool
    stats: OperatorStats
    evaluations: int
    generations: int
    wall_clock_s: float


def _norm_column(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if not hi > lo:
        return np.zeros_like(x)
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0)


def combined_points(triples: np.ndarray, weights, bounds: NormBounds) -> np.ndarray:
    """(cost, risk) images of raw objective triples under given weights."""
    t = np.asarray(triples, dtype=float).reshape(-1, 3)
    nl = _norm_column(t[:, 0], bounds.length_lo, bounds.length_hi)
    ne = _norm_column(t[:, 1], bounds.energy_lo, bounds.energy_hi)
    w = np.asarray(weights, dtype=float)
    cost = w * nl + (1.0 - w) * ne
    return np.column_stack([cost, t[:, 2]])


class _ParetoArchive:
    """Cumulative non-dominated set under raw 3-objective dominance."""

    __slots__ = ("vecs", "items")

    def __init__(self) -> None:
        self.vecs: list[tuple[float, float, float]] = []
        self.items: list[Chromosome] = []

    def add(self, vec: tuple[float, float, float], item: Chromosome) -> bool:
        a, b, c = vec
        for v in self.vecs:
            if v[0] <= a and v[1] <= b and v[2] <= c:
                return False  # dominated or duplicate; first copy wins
        keep_vecs: list[tuple[float, float, float]] = []
        keep_items: list[Chromosome] = []
        for v, it in zip(self.vecs, self.items):
            if not (a <= v[0] and b <= v[1] and c <= v[2]):
                keep_vecs.append(v)
                keep_items.append(it)
        keep_vecs.append(vec)
        keep_items.append(item)
        self.vecs = keep_vecs
        self.items = keep_items
        return True

    def snapshot(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(self.vecs)


def run(env: Environment, params: DroneParams, config: AlgoConfig) -> RunResult:
    """Execute one seeded, deterministic search run.

    Normalization bounds for the blended cost refresh every generation: from
    the current parents (plus archive, for the strength-based algorithm) at
    mating time, from parents and offspring together at survival time.

    Mating retries until offspring are genotype-novel (cells and entry levels
    not evaluated before in this run). The retry budget is per child slot,
    not per generation: after ``2 * population_size`` consecutive matings
    that yield no novel child, the next mating's children are taken even if
    they are duplicates, and the count starts again from zero. Every
    evaluation is therefore spent on a new candidate whenever the operators
    can still produce one within that budget.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    t_start = time.perf_counter()
    stats = OperatorStats()
    opcfg = cfg.operators
    pop_size = cfg.population_size

    # The operators and tournaments draw through ``draws``, which shares
    # ``rng``'s stream at a fraction of the per-call cost.
    draws = Draws(rng)
    pop = [initialize(env, params, draws, opcfg, stats) for _ in range(pop_size)]
    vecs = [evaluate(ch, env, params) for ch in pop]
    evaluations = pop_size
    archive = _ParetoArchive()
    for ch, v in zip(pop, vecs):
        archive.add(v.as_tuple(), ch)
    all_triples: list[tuple[float, float, float]] = [v.as_tuple() for v in vecs]
    snapshots: list[tuple[int, tuple[tuple[float, float, float], ...]]] = [
        (evaluations, archive.snapshot())
    ]

    ref_dirs = (
        reference_points(2, cfg.reference_point_divisions) if cfg.algorithm == "nsga3" else None
    )
    arch_pop: list[Chromosome] = []
    arch_vecs: list[ObjectiveVector] = []
    generations = 0

    def triples_of(vectors: Sequence[ObjectiveVector]) -> np.ndarray:
        return np.asarray([v.as_tuple() for v in vectors], dtype=float)

    def weights_of(chroms: Sequence[Chromosome]) -> np.ndarray:
        return np.asarray([c.weight for c in chroms], dtype=float)

    seen_genotypes: set[tuple] = {(ch.cells, ch.entry_levels) for ch in pop}
    random, integers = draws.random, draws.integers
    crossover_probability = opcfg.crossover_probability

    def vary(pick: Callable[[], Chromosome]) -> list[Chromosome]:
        children: list[Chromosome] = []
        barren_streak = 0
        max_barren = 2 * pop_size
        while len(children) < pop_size:
            novelty_required = barren_streak < max_barren
            pa, pb = pick(), pick()
            if random() < crossover_probability:
                c1, c2 = crossover(pa, pb, env, draws, opcfg, stats)
            else:
                c1, c2 = pa, pb
            accepted = False
            for child in (c1, c2):
                if len(children) >= pop_size:
                    break
                child = mutate(child, opcfg, env, draws, stats)
                key = (child.cells, child.entry_levels)
                if novelty_required and key in seen_genotypes:
                    continue
                seen_genotypes.add(key)
                children.append(child)
                accepted = True
            barren_streak = 0 if accepted else barren_streak + 1
        return children

    while evaluations + pop_size <= cfg.evaluation_budget:
        if cfg.algorithm == "spea2":
            union_pop = pop + arch_pop
            union_vecs = vecs + arch_vecs
            bounds = NormBounds.from_vectors(union_vecs)
            pts = combined_points(triples_of(union_vecs), weights_of(union_pop), bounds)
            fitness = spea2_fitness(pts)
            keep = _spea2_archive_select(pts, fitness, cfg.archive_size)
            arch_pop = [union_pop[i] for i in keep]
            arch_vecs = [union_vecs[i] for i in keep]
            arch_fitness = fitness[keep].tolist()
            n_arch = len(arch_pop)

            def pick_spea2() -> Chromosome:
                i = integers(n_arch)
                j = integers(n_arch)
                if arch_fitness[i] < arch_fitness[j]:
                    return arch_pop[i]
                if arch_fitness[j] < arch_fitness[i]:
                    return arch_pop[j]
                return arch_pop[i] if random() < 0.5 else arch_pop[j]

            offspring = vary(pick_spea2)
        else:
            bounds = NormBounds.from_vectors(vecs)
            pts = combined_points(triples_of(vecs), weights_of(pop), bounds)
            fronts = fast_nondominated_sort(pts)
            rank = [0] * len(pop)
            crowd = [0.0] * len(pop)
            for fi, front in enumerate(fronts):
                for i, d in zip(front, crowding_distance(pts[front]).tolist()):
                    rank[i] = fi
                    crowd[i] = d

            def pick_ranked() -> Chromosome:
                i = integers(pop_size)
                j = integers(pop_size)
                if rank[i] != rank[j]:
                    return pop[i] if rank[i] < rank[j] else pop[j]
                if crowd[i] != crowd[j]:
                    return pop[i] if crowd[i] > crowd[j] else pop[j]
                return pop[i] if random() < 0.5 else pop[j]

            offspring = vary(pick_ranked)

        child_vecs = [evaluate(ch, env, params) for ch in offspring]
        evaluations += pop_size
        for ch, v in zip(offspring, child_vecs):
            archive.add(v.as_tuple(), ch)
            all_triples.append(v.as_tuple())

        if cfg.algorithm == "spea2":
            pop, vecs = offspring, child_vecs
        else:
            union_pop = pop + offspring
            union_vecs = vecs + child_vecs
            union_bounds = NormBounds.from_vectors(union_vecs)
            upts = combined_points(triples_of(union_vecs), weights_of(union_pop), union_bounds)
            if cfg.algorithm == "nsga2":
                sel = _nsga2_select(upts, pop_size)
            else:
                sel = _nsga3_select(upts, pop_size, ref_dirs, rng)
            pop = [union_pop[i] for i in sel]
            vecs = [union_vecs[i] for i in sel]

        generations += 1
        snapshots.append((evaluations, archive.snapshot()))

    # -- reporting ----------------------------------------------------------

    report_bounds = NormBounds.from_vectors(all_triples)
    degenerate = report_bounds.degenerate_length or report_bounds.degenerate_energy
    all_combined = combined_points(np.asarray(all_triples), 0.5, report_bounds)
    trace_ref = shared_reference([all_combined])
    hv_trace = tuple(
        (evals, hypervolume_2d(combined_points(np.asarray(snap), 0.5, report_bounds), trace_ref))
        for evals, snap in snapshots
    )

    pool_pop = list(pop) + arch_pop + list(archive.items)
    pool_vecs = vecs + arch_vecs + [ObjectiveVector(*v) for v in archive.vecs]
    seen: set[tuple] = set()
    uniq_pop: list[Chromosome] = []
    uniq_vecs: list[ObjectiveVector] = []
    for ch, v in zip(pool_pop, pool_vecs):
        key = (ch.cells, ch.entry_levels, ch.weight)
        if key in seen:
            continue
        seen.add(key)
        uniq_pop.append(ch)
        uniq_vecs.append(v)
    final_pts = combined_points(triples_of(uniq_vecs), weights_of(uniq_pop), report_bounds)
    nd = fast_nondominated_sort(final_pts)[0]
    front_members = [
        FrontMember(
            uniq_pop[i],
            uniq_vecs[i],
            CombinedPoint(float(final_pts[i, 0]), float(final_pts[i, 1])),
        )
        for i in nd
    ]
    front_members.sort(
        key=lambda fm: (fm.combined.cost, fm.combined.risk, fm.objectives.length_m, fm.chromosome.cells)
    )

    archive_pts = combined_points(np.asarray(archive.vecs), 0.5, report_bounds)
    archive_members = [
        FrontMember(ch, ObjectiveVector(*v), CombinedPoint(float(p[0]), float(p[1])))
        for ch, v, p in zip(archive.items, archive.vecs, archive_pts)
    ]
    archive_members.sort(
        key=lambda fm: (fm.objectives.length_m, fm.objectives.energy_j, fm.objectives.risk, fm.chromosome.cells)
    )

    return RunResult(
        config=cfg,
        front=tuple(front_members),
        archive=tuple(archive_members),
        hv_trace=hv_trace,
        trace_reference=(float(trace_ref[0]), float(trace_ref[1])),
        bounds=report_bounds,
        degenerate_normalization=degenerate,
        stats=stats,
        evaluations=evaluations,
        generations=generations,
        wall_clock_s=time.perf_counter() - t_start,
    )


# -- tuning ------------------------------------------------------------------


@dataclass(frozen=True)
class TunerConfig:
    """Random-search tuning over operator rates and population size.

    The budget counts solver configurations tried; every configuration gets
    one full run at the base config's evaluation budget.
    """

    budget: int = 100
    seed: int = 0
    crossover_range: tuple[float, float] = (0.5, 1.0)
    mutation_probability_range: tuple[float, float] = (0.01, 0.5)
    mutation_rate_range: tuple[float, float] = (0.05, 1.0)
    population_sizes: tuple[int, ...] = (20, 40, 60, 80, 100)

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.population_sizes:
            raise ValueError("population_sizes must not be empty")
        for size in self.population_sizes:
            if size < 4 or size % 2:
                raise ValueError("population_sizes must be even and >= 4")
        for name in ("crossover_range", "mutation_probability_range", "mutation_rate_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")


@dataclass(frozen=True)
class TrialSummary:
    population_size: int
    crossover_probability: float
    mutation_probability: float
    mutation_rate: float
    seed: int
    hypervolume: float


@dataclass(frozen=True)
class TuneResult:
    best: AlgoConfig
    trials: tuple[TrialSummary, ...]


def tune(
    env: Environment,
    params: DroneParams,
    base: AlgoConfig,
    tuner: TunerConfig,
) -> TuneResult:
    """Random search; all trials are scored afterwards under shared bounds and
    one shared reference so their hypervolumes are comparable."""
    rng = np.random.default_rng(tuner.seed)
    configs: list[AlgoConfig] = []
    results: list[RunResult] = []
    for _ in range(tuner.budget):
        cr = float(rng.uniform(*tuner.crossover_range))
        mp = float(rng.uniform(*tuner.mutation_probability_range))
        mu = float(rng.uniform(*tuner.mutation_rate_range))
        size = int(tuner.population_sizes[int(rng.integers(len(tuner.population_sizes)))])
        trial_seed = int(rng.integers(2**31 - 1))
        cfg = replace(
            base,
            population_size=size,
            seed=trial_seed,
            operators=replace(
                base.operators,
                crossover_probability=cr,
                mutation_probability=mp,
                mutation_rate=mu,
            ),
        )
        configs.append(cfg)
        results.append(run(env, params, cfg))

    bounds = results[0].bounds
    for res in results[1:]:
        bounds = bounds.merge(res.bounds)
    combined_sets = [
        combined_points(
            np.asarray([m.objectives.as_tuple() for m in res.archive]), 0.5, bounds
        )
        for res in results
    ]
    ref = shared_reference(combined_sets)
    hvs = [hypervolume_2d(pts, ref) for pts in combined_sets]
    best_index = int(np.argmax(hvs))
    trials = tuple(
        TrialSummary(
            population_size=cfg.population_size,
            crossover_probability=cfg.operators.crossover_probability,
            mutation_probability=cfg.operators.mutation_probability,
            mutation_rate=cfg.operators.mutation_rate,
            seed=cfg.seed,
            hypervolume=hv,
        )
        for cfg, hv in zip(configs, hvs)
    )
    return TuneResult(best=configs[best_index], trials=trials)
