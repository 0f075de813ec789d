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

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .environment import Environment
from .exact import enumerate_front
from .metrics import hypervolume_2d, nondominated, shared_reference
from .operators import BlockDraws, OperatorConfig, OperatorStats, breed, initialize
from .physics import DroneParams
from .solution import (
    Chromosome,
    NormBounds,
    ObjectiveVector,
    evaluate,
)

ALGORITHMS = ("nsga2", "nsga3", "spea2")
REFERENCE_POINT_DIVISIONS = 99

# The uniform ranges ``tune`` draws each operator rate from.
CROSSOVER_RANGE = (0.5, 1.0)
MUTATION_PROBABILITY_RANGE = (0.01, 0.5)
MUTATION_RATE_RANGE = (0.05, 1.0)


@dataclass(frozen=True)
class AlgoConfig:
    """One solver run's settings. NSGA-III's reference directions are
    fixed: :data:`REFERENCE_POINT_DIVISIONS` divisions of the (cost, risk)
    simplex."""

    algorithm: str = "nsga2"
    population_size: int = 100
    evaluation_budget: int = 10000
    archive_size: int = 100
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# -- building blocks ---------------------------------------------------------


def _points(points) -> np.ndarray:
    """``points`` as an (n, m) float array without NaN; ±inf is allowed."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, m) array of points, got shape {pts.shape}")
    if np.isnan(pts).any():
        raise ValueError("points must not hold NaN")
    return pts


def _dominance(pts: np.ndarray) -> np.ndarray:
    """``dom[i, j]``: point i dominates point j (minimization). Built one
    objective column at a time, so no (n, n, m) temporary is made."""
    n = len(pts)
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in pts.T:
        row, column = col[:, None], col[None, :]
        le &= row <= column
        lt |= row < column
    le &= lt
    return le


def fast_nondominated_sort(points) -> list[list[int]]:
    """Split points into non-domination fronts (minimization).

    Returns index lists, best front first. Equal vectors never dominate each
    other and therefore share a front.

    Raises:
        ValueError: when ``points`` is not an (n, m) array or holds NaN.
    """
    dom = _dominance(_points(points))
    counts = dom.sum(axis=0)
    fronts: list[list[int]] = []
    current = np.flatnonzero(counts == 0)
    while current.size:
        fronts.append(current.tolist())
        counts -= dom[current].sum(axis=0)
        counts[current] = -1  # in a front now: never zero again
        current = np.flatnonzero(counts == 0)
    return fronts


def crowding_distance(points) -> np.ndarray:
    """Crowding distance per point within one front.

    Boundary points of every objective get infinity; interior points sum the
    normalized neighbour gaps. Exact duplicates of an earlier point get 0.

    The distinct points are found by a stable sort of the rows, so each
    keeps its first copy, in lexicographic order; each objective then ranks
    them by a stable sort. A front holds up to 2 x ``population_size``
    points, but the fronts of measured runs rarely pass 32; Python lists
    cost less than numpy calls there, break even near 100 distinct points
    and cost up to twice as much at 200.

    Raises:
        ValueError: when ``points`` is not an (n, m) array or holds NaN.
    """
    pts = _points(points)
    rows = pts.tolist()
    n = len(rows)
    out = np.zeros(n)
    firsts: list[int] = []
    last = None
    for i in sorted(range(n), key=rows.__getitem__):
        if rows[i] != last:
            firsts.append(i)
            last = rows[i]
    u = len(firsts)
    if u <= 2:
        out[firsts] = np.inf
        return out
    uniq = [rows[i] for i in firsts]
    d = [0.0] * u
    for m in range(pts.shape[1]):
        vals = [row[m] for row in uniq]
        order = sorted(range(u), key=vals.__getitem__)
        d[order[0]] = math.inf
        d[order[-1]] = math.inf
        span = vals[order[-1]] - vals[order[0]]
        if span > 0.0:
            for before, k, after in zip(order, order[1:-1], order[2:]):
                d[k] += (vals[after] - vals[before]) / span
    out[firsts] = d
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


def _pair_distances(pts: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances, infinite on the diagonal. Squares are
    summed one objective column at a time, so no (n, n, m) temporary is
    made; column order is the order in which numpy summed the last axis of
    that temporary, so the distances are the same floats."""
    sq = np.zeros((len(pts), len(pts)))
    for col in pts.T:
        diff = col[:, None] - col[None, :]
        diff *= diff
        sq += diff
    dist = np.sqrt(sq, out=sq)
    np.fill_diagonal(dist, np.inf)
    return dist


def _kth_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest entry (k >= 1); zeros when k is 0."""
    if k < 1:
        return np.zeros(len(dist))
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def spea2_fitness(points) -> np.ndarray:
    """Strength-based fitness: raw dominated-strength sum plus k-NN density.

    Fitness below 1 marks non-dominated points. Density is
    ``1 / (sigma_k + 2)`` with ``k = floor(sqrt(n))`` and ``sigma_k`` the
    distance to the k-th nearest neighbour (0 when there are no neighbours).
    """
    pts = _points(points)
    n = len(pts)
    if n == 0:
        return np.zeros(0)
    dom = _dominance(pts)
    strength = dom.sum(axis=1).astype(float)
    raw = (dom * strength[:, None]).sum(axis=0)
    sigma = _kth_smallest(_pair_distances(pts), min(math.isqrt(n), n - 1))
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
    dist = _pair_distances(pts)
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining > target:
        idx = np.where(alive)[0]
        sigma = _kth_smallest(dist[np.ix_(idx, idx)], min(math.isqrt(remaining), remaining - 1))
        alive[idx[int(np.argmin(sigma))]] = False
        remaining -= 1
    return [int(i) for i in np.where(alive)[0]]


# -- survivor selection ------------------------------------------------------


def _whole_fronts(points: np.ndarray, target: int) -> tuple[list[int], list[int]]:
    """The members of the fronts that fit whole into ``target``, in rank
    order, and the first front that does not fit (empty when the whole
    fronts fill ``target`` exactly)."""
    chosen: list[int] = []
    for front in fast_nondominated_sort(points):
        if len(chosen) == target:
            break
        if len(chosen) + len(front) > target:
            return chosen, front
        chosen.extend(front)
    return chosen, []


def _nsga2_select(points: np.ndarray, target: int) -> list[int]:
    """Fill whole fronts in rank order; split the last by descending crowding."""
    chosen, split = _whole_fronts(points, target)
    if split:
        cd = crowding_distance(points[split])
        order = np.argsort(-cd, kind="stable")
        chosen.extend(split[i] for i in order[: target - len(chosen)])
    return chosen


def _nsga3_select(
    points: np.ndarray,
    target: int,
    ref_dirs: np.ndarray,
    rng: np.random.Generator | BlockDraws,
) -> list[int]:
    """Fill whole fronts; resolve the split front by reference-point niching."""
    chosen, last = _whole_fronts(points, target)
    if not last:
        return chosen

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
        r = ties[int(rng.random() * len(ties))]
        bucket = by_ref[r]
        pick_pos = 0 if counts[r] == 0 else int(rng.random() * len(bucket))
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
    """A reported solution. ``cost`` blends its normalized length and energy;
    its other search coordinate is the raw ``objectives.risk``."""

    chromosome: Chromosome
    objectives: ObjectiveVector
    cost: float


@dataclass(frozen=True)
class RunResult:
    config: AlgoConfig
    front: tuple[FrontMember, ...]
    archive: tuple[FrontMember, ...]
    hv_trace: tuple[tuple[int, float], ...]
    trace_reference: tuple[float, float]
    bounds: NormBounds
    stats: OperatorStats
    evaluations: int
    wall_clock_s: float

    @property
    def generations(self) -> int:
        """Generations after the initial population; each evaluates one
        population."""
        return self.evaluations // self.config.population_size - 1

    @property
    def degenerate_normalization(self) -> bool:
        """True when the report bounds span no length or no energy range."""
        return self.bounds.degenerate_length or self.bounds.degenerate_energy


def _norm_column(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if not hi > lo:
        return np.zeros_like(x)
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0)


def combined_points(vectors, weights, bounds: NormBounds) -> np.ndarray:
    """(cost, risk) images of raw (length, energy, risk) vectors under given
    weights; a single vector counts as a sequence of one."""
    if (
        isinstance(vectors, (list, tuple))
        and vectors
        and isinstance(vectors[0], (list, tuple))
        and set(map(len, vectors)) == {3}
    ):
        # Rows of three numbers, read as one flat stream: np.asarray
        # inspects each row as a sequence first, at several times the cost.
        flat = itertools.chain.from_iterable(vectors)
        t = np.fromiter(flat, dtype=float, count=3 * len(vectors)).reshape(-1, 3)
    else:
        t = np.asarray(vectors, dtype=float).reshape(-1, 3)
    nl = _norm_column(t[:, 0], bounds.length_lo, bounds.length_hi)
    ne = _norm_column(t[:, 1], bounds.energy_lo, bounds.energy_hi)
    w = np.asarray(weights, dtype=float)
    cost = w * nl + (1.0 - w) * ne
    return np.column_stack([cost, t[:, 2]])


def archive_hypervolumes(archives: Sequence, bounds: Sequence[NormBounds]) -> list[float]:
    """Hypervolume of each run's archive, comparable across the runs.

    Each archive holds raw (length, energy, risk) vectors and each run has
    its own bounds. Every archive is blended at weight 0.5 under the merged
    bounds and measured against one shared reference. ``tune`` scores its
    trials this way, and ``overfly table`` the runs of one instance.
    """
    merged = bounds[0]
    for b in bounds[1:]:
        merged = merged.merge(b)
    point_sets = [combined_points(vectors, 0.5, merged) for vectors in archives]
    ref = shared_reference(point_sets)
    return [hypervolume_2d(pts, ref) for pts in point_sets]


def oracle_hv_ratio(env: Environment, params: DroneParams, result: RunResult) -> float:
    """Run quality against the exact oracle, in [0, 1] (possibly above
    1 only through float noise).

    Both fronts are measured at weight 0.5 with normalization bounds and the
    reference point taken from the exact front, so the ratio compares like
    with like.
    """
    exact_vecs = [m.objectives for m in enumerate_front(env, params).members]
    bounds = NormBounds.from_vectors(exact_vecs)
    exact_pts = combined_points(exact_vecs, 0.5, bounds)
    ref = shared_reference([exact_pts])
    exact_hv = hypervolume_2d(exact_pts, ref)
    if exact_hv == 0.0:
        return 1.0
    run_pts = combined_points([m.objectives for m in result.archive], 0.5, bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_hv = hypervolume_2d(run_pts, ref)
    return run_hv / exact_hv


def _archived(
    items: list[Chromosome], vecs: list[ObjectiveVector]
) -> tuple[list[Chromosome], list[ObjectiveVector]]:
    """Non-dominated subset under raw 3-objective dominance, in input order;
    the first copy of a duplicated vector wins."""
    keep = nondominated(vecs)
    return [items[i] for i in keep], [vecs[i] for i in keep]


def run(env: Environment, params: DroneParams, config: AlgoConfig) -> RunResult:
    """Execute one seeded, deterministic search run.

    Normalization bounds for the blended cost refresh every generation: from
    the current parents (plus archive, for the strength-based algorithm) at
    mating time, from parents and offspring together at survival time.

    Each generation's offspring come from :func:`~overfly.operators.breed`,
    the search's mating step, which picks each parent by its binary
    tournament. NSGA-II and NSGA-III hand it the population keyed by front,
    then by larger crowding distance; SPEA2 hands it the archive keyed by
    fitness. Mating retries until offspring are genotype-novel (cells and
    entry levels not evaluated before in this run). The retry budget is per
    child slot, not per generation: after ``2 * population_size``
    consecutive matings that yield no novel child, the next mating's
    children are taken even if they are duplicates, and the count starts
    again from zero. Every evaluation is therefore spent on a new candidate
    whenever the operators can still produce one within that budget.
    """
    cfg = config
    # Every draw of the run, from the first walk to the last niche pick.
    rng = BlockDraws(cfg.seed)
    t_start = time.perf_counter()
    stats = OperatorStats()
    opcfg = cfg.operators
    pop_size = cfg.population_size

    pop = [initialize(env, rng, stats) for _ in range(pop_size)]
    vecs = [evaluate(ch, env, params) for ch in pop]
    evaluations = pop_size
    all_vecs = list(vecs)
    archive, archive_vecs = _archived(pop, all_vecs)
    snapshots: list[tuple[int, tuple[ObjectiveVector, ...]]] = [(evaluations, tuple(archive_vecs))]

    ref_dirs = reference_points(2, REFERENCE_POINT_DIVISIONS) if cfg.algorithm == "nsga3" else None
    arch_pop: list[Chromosome] = []
    arch_vecs: list[ObjectiveVector] = []

    def weights_of(chroms: Sequence[Chromosome]) -> np.ndarray:
        return np.asarray([c.weight for c in chroms], dtype=float)

    seen_genotypes: set[tuple] = {(ch.cells, ch.entry_levels) for ch in pop}
    while evaluations + pop_size <= cfg.evaluation_budget:
        if cfg.algorithm == "spea2":
            union_pop = pop + arch_pop
            union_vecs = vecs + arch_vecs
            bounds = NormBounds.from_vectors(union_vecs)
            pts = combined_points(union_vecs, weights_of(union_pop), bounds)
            fitness = spea2_fitness(pts)
            keep = _spea2_archive_select(pts, fitness, cfg.archive_size)
            arch_pop = [union_pop[i] for i in keep]
            arch_vecs = [union_vecs[i] for i in keep]
            members, keys = arch_pop, fitness[keep].tolist()
        else:
            bounds = NormBounds.from_vectors(vecs)
            pts = combined_points(vecs, weights_of(pop), bounds)
            fronts = fast_nondominated_sort(pts)
            # The lower front wins, then the larger crowding distance.
            keys = [(0, 0.0)] * len(pop)
            for fi, front in enumerate(fronts):
                for i, d in zip(front, crowding_distance(pts[front]).tolist()):
                    keys[i] = (fi, -d)
            members = pop
        # An archive holds min(archive_size, union) >= 2 members: AlgoConfig
        # holds archive_size >= 2 and population_size >= 4.
        offspring = breed(
            members, keys, pop_size, seen_genotypes, 2 * pop_size, env, rng, opcfg, stats
        )

        child_vecs = [evaluate(ch, env, params) for ch in offspring]
        evaluations += pop_size
        all_vecs.extend(child_vecs)
        archive, archive_vecs = _archived(archive + offspring, archive_vecs + child_vecs)

        if cfg.algorithm == "spea2":
            pop, vecs = offspring, child_vecs
        else:
            union_pop = pop + offspring
            union_vecs = vecs + child_vecs
            union_bounds = NormBounds.from_vectors(union_vecs)
            upts = combined_points(union_vecs, weights_of(union_pop), union_bounds)
            if cfg.algorithm == "nsga2":
                sel = _nsga2_select(upts, pop_size)
            else:
                sel = _nsga3_select(upts, pop_size, ref_dirs, rng)
            pop = [union_pop[i] for i in sel]
            vecs = [union_vecs[i] for i in sel]

        snapshots.append((evaluations, tuple(archive_vecs)))

    # -- reporting ----------------------------------------------------------

    report_bounds = NormBounds.from_vectors(all_vecs)
    all_combined = combined_points(all_vecs, 0.5, report_bounds)
    trace_ref = shared_reference([all_combined])
    hv_trace = tuple(
        (evals, hypervolume_2d(combined_points(snap, 0.5, report_bounds), trace_ref))
        for evals, snap in snapshots
    )

    # The first copy of a chromosome, with its vector, represents it.
    pool: dict[Chromosome, ObjectiveVector] = {}
    for ch, v in zip(pop + arch_pop + archive, vecs + arch_vecs + archive_vecs):
        pool.setdefault(ch, v)
    uniq_pop, uniq_vecs = list(pool), list(pool.values())
    final_pts = combined_points(uniq_vecs, weights_of(uniq_pop), report_bounds)
    nd = fast_nondominated_sort(final_pts)[0]
    front_members = [FrontMember(uniq_pop[i], uniq_vecs[i], float(final_pts[i, 0])) for i in nd]
    front_members.sort(
        key=lambda fm: (fm.cost, fm.objectives.risk, fm.objectives.length_m, fm.chromosome.cells)
    )

    archive_costs = combined_points(archive_vecs, 0.5, report_bounds)[:, 0].tolist()
    archive_members = [
        FrontMember(ch, v, cost) for ch, v, cost in zip(archive, archive_vecs, archive_costs)
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
        stats=stats,
        evaluations=evaluations,
        wall_clock_s=time.perf_counter() - t_start,
    )


# -- tuning ------------------------------------------------------------------


@dataclass(frozen=True)
class TunerConfig:
    """Random-search tuning over operator rates and population size.

    The budget counts solver configurations tried; every configuration gets
    one full run at the base config's evaluation budget. Its population size
    is drawn from ``population_sizes`` and its rates from the fixed ranges
    :data:`CROSSOVER_RANGE`, :data:`MUTATION_PROBABILITY_RANGE` and
    :data:`MUTATION_RATE_RANGE`.
    """

    budget: int = 100
    seed: int = 0
    population_sizes: tuple[int, ...] = (20, 40, 60, 80, 100)

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.population_sizes:
            raise ValueError("population_sizes must not be empty")
        for size in self.population_sizes:
            if size < 4 or size % 2:
                raise ValueError("population_sizes must be even and >= 4")


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
        cr = float(rng.uniform(*CROSSOVER_RANGE))
        mp = float(rng.uniform(*MUTATION_PROBABILITY_RANGE))
        mu = float(rng.uniform(*MUTATION_RATE_RANGE))
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

    hvs = archive_hypervolumes(
        [[m.objectives for m in res.archive] for res in results],
        [res.bounds for res in results],
    )
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
