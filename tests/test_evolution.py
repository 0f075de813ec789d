"""Population algorithms: ranking primitives, full runs, and the tuner."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from overfly import (
    ALGORITHMS,
    AlgoConfig,
    DroneParams,
    GeneratorSettings,
    NormBounds,
    OperatorConfig,
    TunerConfig,
    combined_points,
    crowding_distance,
    fast_nondominated_sort,
    generate,
    reference_points,
    run,
    spea2_fitness,
    spea2_truncate,
    tune,
    validate,
)

from overfly import evolution, operators
from overfly.cli import suite_settings

from helpers import (
    build_env,
    point_sets,
    reference_crowding,
    reference_dominance,
    reference_fronts,
)

PARAMS = DroneParams()


def small_env(seed=0):
    return generate(
        GeneratorSettings(rows=4, cols=4, level_count=3, obstacle_density=0.2,
                          risk_low=0.05, risk_high=0.95),
        seed,
    )


class TestNondominatedSort:
    def test_worked_example(self):
        fronts = fast_nondominated_sort(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]]))
        assert fronts == [[0, 2], [1]]

    def test_chain(self):
        pts = np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
        assert fast_nondominated_sort(pts) == [[2], [1], [0]]

    def test_antichain_single_front(self):
        pts = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        assert fast_nondominated_sort(pts) == [[0, 1, 2, 3]]

    def test_duplicates_share_front(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert fast_nondominated_sort(pts) == [[0, 1], [2]]

    def test_empty(self):
        assert fast_nondominated_sort(np.empty((0, 2))) == []


class TestCrowdingDistance:
    def test_worked_example(self):
        cd = crowding_distance(np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]))
        assert math.isinf(cd[0]) and math.isinf(cd[2])
        assert cd[1] == pytest.approx(2.0, rel=1e-12)

    def test_two_points_both_infinite(self):
        cd = crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert all(math.isinf(v) for v in cd)

    def test_duplicates_get_zero(self):
        # The lowest index of each duplicated point keeps its distance, a
        # boundary's infinity included; every later copy gets 0.
        cd = crowding_distance(np.array(
            [[2.0, 2.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [2.0, 2.0], [1.0, 3.0]]))
        assert cd.tolist() == [2.0, math.inf, 0.0, math.inf, 0.0, 0.0]

    def test_interior_spread(self):
        pts = np.array([[0.0, 4.0], [1.0, 2.0], [3.0, 1.0], [4.0, 0.0]])
        cd = crowding_distance(pts)
        assert math.isinf(cd[0]) and math.isinf(cd[3])
        assert cd[1] > 0.0 and cd[2] > 0.0


class TestSelectionKernels:
    """The column-wise dominance matrix and the list-based crowding distance
    give the fronts and the floats of the (n, n, m) and np.unique forms."""

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_match_reference_forms(self, pts):
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(evolution._dominance(pts), reference_dominance(pts))
            assert fast_nondominated_sort(pts) == reference_fronts(pts)
            assert crowding_distance(pts).tobytes() == reference_crowding(pts).tobytes()
            with mock.patch.object(evolution, "_dominance", reference_dominance):
                expected = spea2_fitness(pts)
            assert spea2_fitness(pts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel", [fast_nondominated_sort, crowding_distance, spea2_fitness])
    def test_nan_is_refused(self, kernel):
        with pytest.raises(ValueError, match="points"):
            kernel([[math.nan, 1.0], [0.0, 0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("kernel", [fast_nondominated_sort, crowding_distance, spea2_fitness])
    def test_infinity_is_allowed(self, kernel):
        with np.errstate(invalid="ignore"):
            kernel([[math.inf, 1.0], [0.0, -math.inf], [1.0, 2.0]])


class TestReferencePoints:
    def test_two_objective_lattice(self):
        refs = reference_points(2, 4)
        assert refs.shape == (5, 2)
        np.testing.assert_allclose(refs[:, 0], [1.0, 0.75, 0.5, 0.25, 0.0])
        np.testing.assert_allclose(refs.sum(axis=1), 1.0)

    def test_count_follows_divisions(self):
        assert reference_points(2, 99).shape == (100, 2)

    def test_three_objectives(self):
        refs = reference_points(3, 2)
        assert refs.shape == (6, 3)
        np.testing.assert_allclose(refs.sum(axis=1), 1.0)


class TestSpea2Primitives:
    def test_single_point_fitness(self):
        assert spea2_fitness(np.array([[1.0, 2.0]]))[0] == pytest.approx(0.5, rel=1e-12)

    def test_dominated_fitness_at_least_one(self):
        fit = spea2_fitness(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert fit[0] < 1.0 <= fit[1]

    def test_pair_fitness_values(self):
        fit = spea2_fitness(np.array([[1.0, 1.0], [2.0, 2.0]]))
        density = 1.0 / (math.sqrt(2.0) + 2.0)
        assert fit[0] == pytest.approx(density, rel=1e-12)
        assert fit[1] == pytest.approx(1.0 + density, rel=1e-12)

    def test_truncate_removes_most_crowded(self):
        pts = np.array([[0.0, 1.0], [0.45, 0.55], [0.5, 0.5], [1.0, 0.0]])
        assert spea2_truncate(pts, 3) == [0, 2, 3]

    def test_truncate_noop_when_under_target(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spea2_truncate(pts, 3) == [0, 1]

    @staticmethod
    def reference_distances(pts):
        """The (n, n, m) difference formula with a full sort, as the kernels
        computed it before they summed squares one column at a time."""
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        return dist

    def reference_fitness(self, pts):
        if len(pts) == 0:
            return np.zeros(0)
        le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
        lt = (pts[:, None, :] < pts[None, :, :]).any(axis=2)
        dom = le & lt
        raw = (dom * dom.sum(axis=1).astype(float)[:, None]).sum(axis=0)
        n = len(pts)
        k = min(math.isqrt(n), n - 1)
        dist = self.reference_distances(pts)
        sigma = np.sort(dist, axis=1)[:, k - 1] if k >= 1 else np.zeros(n)
        return raw + 1.0 / (sigma + 2.0)

    def reference_truncate(self, pts, target):
        n = len(pts)
        if n <= target:
            return list(range(n))
        dist = self.reference_distances(pts)
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

    def test_kernels_match_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(0, 150))
            pts = rng.random((n, int(rng.choice([2, 3])))) * rng.choice([1e-3, 1.0, 1e3])
            if n > 3 and trial % 3 == 0:  # duplicated points
                pts[rng.integers(0, n, n // 3)] = pts[rng.integers(0, n, n // 3)]
            fitness = spea2_fitness(pts)
            assert fitness.tobytes() == self.reference_fitness(pts).tobytes(), trial
            if trial % 5 == 0:
                target = int(rng.integers(0, n + 1))
                assert spea2_truncate(pts, target) == self.reference_truncate(pts, target), trial


class TestAlgoConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "bogus"},
            {"population_size": 3},
            {"population_size": 5},  # odd
            {"evaluation_budget": 10, "population_size": 20},
            {"archive_size": 1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AlgoConfig(**kwargs)

    def test_defaults(self):
        cfg = AlgoConfig()
        assert cfg.population_size == 100
        assert cfg.evaluation_budget == 10000
        assert cfg.archive_size == 100
        assert cfg.operators.crossover_probability == 0.9
        assert cfg.operators.mutation_probability == 0.1


class TestCostRiskProjection:
    def test_projection(self):
        triples = np.array([[10.0, 100.0, 0.3], [20.0, 50.0, 0.7]])
        bounds = NormBounds(10.0, 20.0, 50.0, 100.0)
        pts = combined_points(triples, 0.5, bounds)
        np.testing.assert_allclose(pts[:, 0], [0.5, 0.5])
        np.testing.assert_allclose(pts[:, 1], [0.3, 0.7])

    def test_per_solution_weights(self):
        triples = np.array([[10.0, 100.0, 0.0], [20.0, 50.0, 0.0]])
        bounds = NormBounds(10.0, 20.0, 50.0, 100.0)
        pts = combined_points(triples, np.array([1.0, 0.0]), bounds)
        np.testing.assert_allclose(pts[:, 0], [0.0, 0.0])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestRun:
    def test_run_contract(self, algorithm):
        env = small_env(1)
        cfg = AlgoConfig(algorithm=algorithm, population_size=20,
                         evaluation_budget=400, archive_size=20, seed=5)
        res = run(env, PARAMS, cfg)
        assert res.evaluations <= cfg.evaluation_budget
        assert res.front, "front must not be empty"
        for member in res.front:
            assert validate(member.chromosome, env).ok
        # mutual non-dominance in the reported (cost, risk) plane
        pts = [(m.cost, m.objectives.risk) for m in res.front]
        for i, (ci, ri) in enumerate(pts):
            for j, (cj, rj) in enumerate(pts):
                if i != j:
                    assert not (cj <= ci and rj <= ri and (cj < ci or rj < ri))

    def test_deterministic(self, algorithm):
        env = small_env(2)
        cfg = AlgoConfig(algorithm=algorithm, population_size=16,
                         evaluation_budget=320, archive_size=16, seed=9)
        a = run(env, PARAMS, cfg)
        b = run(env, PARAMS, cfg)
        assert [m.chromosome for m in a.front] == [m.chromosome for m in b.front]
        assert a.hv_trace == b.hv_trace

    def test_trace_monotone_nondecreasing(self, algorithm):
        env = small_env(3)
        cfg = AlgoConfig(algorithm=algorithm, population_size=16,
                         evaluation_budget=480, archive_size=16, seed=1)
        res = run(env, PARAMS, cfg)
        evals = [e for e, _ in res.hv_trace]
        hvs = [h for _, h in res.hv_trace]
        assert evals == sorted(evals)
        assert evals[0] == cfg.population_size
        for prev, cur in zip(hvs, hvs[1:]):
            assert cur >= prev - 1e-12

    def test_generations_are_read_from_the_evaluations(self, algorithm):
        # The budget leaves 4 evaluations unspent: 8 initial + 6 x 8 = 56.
        cfg = AlgoConfig(algorithm=algorithm, population_size=8,
                         evaluation_budget=60, archive_size=8, seed=2)
        res = run(small_env(8), PARAMS, cfg)
        assert res.generations == 6
        assert len(res.hv_trace) == res.generations + 1
        assert res.evaluations == (res.generations + 1) * cfg.population_size
        assert [e for e, _ in res.hv_trace] == [8 * (g + 1) for g in range(7)]

    def test_seed_changes_search(self, algorithm):
        env = small_env(4)
        base = dict(algorithm=algorithm, population_size=16,
                    evaluation_budget=320, archive_size=16)
        a = run(env, PARAMS, AlgoConfig(**base, seed=1))
        b = run(env, PARAMS, AlgoConfig(**base, seed=2))
        # traces differ somewhere (same world, different search path)
        assert a.hv_trace != b.hv_trace or [m.chromosome for m in a.front] != [
            m.chromosome for m in b.front
        ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_block_size_changes_no_output(monkeypatch, algorithm):
    # A draw that bypassed the run's BlockDraws (say, a niche pick made on
    # the Generator that fills its blocks) would land at a different point
    # of the stream for each block size.
    _instance, gen_settings, world_seed = suite_settings(0)[0]  # T1-1
    env = generate(gen_settings, world_seed)
    cfg = AlgoConfig(algorithm=algorithm, population_size=20,
                     evaluation_budget=400, archive_size=20, seed=3)
    outputs = set()
    for block in (1, 7, operators.DRAW_BLOCK):
        monkeypatch.setattr(operators, "DRAW_BLOCK", block)
        res = run(env, PARAMS, cfg)
        outputs.add(repr((res.front, res.archive, res.hv_trace, res.stats)))
    assert len(outputs) == 1


class TestRunReporting:
    def test_bounds_cover_front(self):
        env = small_env(5)
        cfg = AlgoConfig(population_size=16, evaluation_budget=320, archive_size=16, seed=0)
        res = run(env, PARAMS, cfg)
        for m in res.front:
            assert res.bounds.length_lo <= m.objectives.length_m <= res.bounds.length_hi
            assert res.bounds.energy_lo <= m.objectives.energy_j <= res.bounds.energy_hi

    def test_archive_members_sorted_and_nondominated(self):
        env = small_env(6)
        cfg = AlgoConfig(population_size=16, evaluation_budget=320, archive_size=16, seed=0)
        res = run(env, PARAMS, cfg)
        triples = [m.objectives.as_tuple() for m in res.archive]
        for i, a in enumerate(triples):
            for j, b in enumerate(triples):
                if i != j:
                    assert not (
                        all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a))
                    )

    def test_wall_clock_positive(self):
        env = small_env(7)
        res = run(env, PARAMS, AlgoConfig(population_size=8, evaluation_budget=80,
                                          archive_size=8, seed=0))
        assert res.wall_clock_s > 0.0
        assert res.generations >= 1

    def test_degenerate_normalization_is_read_from_the_bounds(self):
        cfg = AlgoConfig(population_size=4, evaluation_budget=8, archive_size=4, seed=0)
        res = run(small_env(5), PARAMS, cfg)
        assert not res.degenerate_normalization
        # One level and two cells: every candidate flies the one route.
        single = run(build_env(rows=1, cols=2, levels=(0.0,)), PARAMS, cfg)
        assert single.bounds.degenerate_length and single.bounds.degenerate_energy
        assert single.degenerate_normalization


class TestMatingCounters:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_counts_add_up(self, algorithm):
        cfg = AlgoConfig(algorithm=algorithm, population_size=16,
                         evaluation_budget=320, archive_size=16, seed=3)
        res = run(small_env(9), PARAMS, cfg)
        stats = res.stats
        accepted = res.evaluations - cfg.population_size
        # Each mating considers both children, except when child one fills a
        # generation's last slot; the considered children the novelty filter
        # does not reject are the evaluated offspring.
        considered = accepted + stats.novelty_rejections
        assert 2 * stats.matings - res.generations <= considered <= 2 * stats.matings
        assert stats.novelty_rejections > 0
        assert stats.crossovers <= stats.matings
        assert stats.duplicates_accepted <= accepted

    def test_one_genotype_world_takes_duplicates(self):
        # One level and two cells: a single genotype, so after the first
        # population every child is taken once the barren budget runs out.
        cfg = AlgoConfig(population_size=4, evaluation_budget=12, archive_size=4, seed=0)
        res = run(build_env(rows=1, cols=2, levels=(0.0,)), PARAMS, cfg)
        assert res.stats.duplicates_accepted == res.evaluations - cfg.population_size == 8
        # Per generation, twice: 8 barren matings (both children rejected),
        # then one whose two duplicates are taken.
        assert res.stats.matings == 2 * 2 * (8 + 1)
        assert res.stats.novelty_rejections == 2 * 2 * 8 * 2


class TestTune:
    def test_tuner_config_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(budget=0)
        with pytest.raises(ValueError):
            TunerConfig(population_sizes=())

    def test_tune_selects_best_trial(self):
        env = small_env(8)
        base = AlgoConfig(population_size=16, evaluation_budget=160, archive_size=8, seed=0)
        tuner = TunerConfig(budget=4, seed=11, population_sizes=(8, 16))
        result = tune(env, PARAMS, base, tuner)
        assert len(result.trials) == 4
        best_hv = max(t.hypervolume for t in result.trials)
        chosen = [t for t in result.trials if t.hypervolume == best_hv][0]
        assert result.best.population_size == chosen.population_size
        assert result.best.operators.crossover_probability == chosen.crossover_probability

    def test_tune_deterministic(self):
        env = small_env(9)
        base = AlgoConfig(population_size=8, evaluation_budget=80, archive_size=8, seed=0)
        tuner = TunerConfig(budget=3, seed=2, population_sizes=(8,))
        a = tune(env, PARAMS, base, tuner)
        b = tune(env, PARAMS, base, tuner)
        assert [t.hypervolume for t in a.trials] == [t.hypervolume for t in b.trials]
        assert a.best == b.best
