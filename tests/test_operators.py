"""Initialization, crossover, and mutation operators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from overfly import (
    Chromosome,
    GeneratorSettings,
    GridError,
    InitializationError,
    OperatorConfig,
    OperatorStats,
    breed,
    crossover,
    generate,
    initialize,
    mutate,
    sample_entry_level,
    validate,
)
from overfly import operators
from overfly.operators import BlockDraws

from helpers import build_env, generated_worlds


class TestOperatorConfig:
    def test_defaults(self):
        cfg = OperatorConfig()
        assert cfg.crossover_probability == 0.9
        assert cfg.mutation_probability == 0.1
        assert cfg.mutation_rate == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crossover_probability": 1.5},
            {"mutation_probability": -0.1},
            {"mutation_rate": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            OperatorConfig(**kwargs)

    def test_default_built_once_not_per_call(self, monkeypatch):
        env = build_env(rows=5, cols=5)
        rng = np.random.default_rng(3)
        parents = [initialize(env, rng) for _ in range(2)]
        built = []
        check = OperatorConfig.__post_init__

        def counted_check(cfg):
            built.append(cfg)
            check(cfg)

        monkeypatch.setattr(OperatorConfig, "__post_init__", counted_check)
        for _ in range(100):
            parents = list(crossover(*parents, env, rng))
            parents[0] = mutate(parents[0], None, env, rng)
        assert len(built) == 0


# The largest float numpy's random() returns: 1 - 2**-53.
TOP = math.nextafter(1.0, 0.0)
UNIFORMS = st.sampled_from([0.0, TOP]) | st.floats(0.0, TOP)


class _Uniforms:
    """A source that hands out the given uniforms in order."""

    def __init__(self, values):
        self.random = iter(values).__next__


class TestDrawMappings:
    """An index, a level and a subset drawn from uniforms in [0, 1)."""

    @given(st.integers(1, 2**31))
    def test_index_reaches_and_never_passes_the_last(self, n):
        assert int(0.0 * n) == 0
        assert int(TOP * n) == n - 1

    @settings(max_examples=60, deadline=None)
    @given(generated_worlds(), st.data())
    def test_entry_level_stays_in_the_band(self, env, data):
        spec = env.spec
        cells = [(r, c) for r in range(spec.rows) for c in range(spec.cols)
                 if env.passable((r, c))]
        cell = data.draw(st.sampled_from(cells))
        previous = data.draw(st.integers(-1, len(spec.levels_m)))
        rng = _Uniforms(data.draw(st.lists(UNIFORMS, min_size=2, max_size=2)))
        lo, hi = env.feasible_levels(cell)
        assert lo <= sample_entry_level(cell, previous, env, rng) <= hi

    @given(st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.lists(UNIFORMS, min_size=60, max_size=60))
    def test_floyd_subset_is_distinct_sorted_and_in_range(self, n_count, uniforms):
        n, count = n_count
        picked = operators._floyd_subset(n, count, _Uniforms(uniforms))
        assert len(picked) == count
        assert picked == sorted(set(picked))
        assert all(0 <= t < n for t in picked)

    def test_normals_take_nothing_from_the_uniforms(self):
        a, b = BlockDraws(4), BlockDraws(4)
        mixed = []
        for _ in range(3000):
            mixed.append(a.random())
            a.normal(0.0, 0.1)
        assert mixed == [b.random() for _ in range(3000)]
        assert all(0.0 <= u < 1.0 for u in mixed)


class TestSampleEntryLevel:
    def test_stays_in_feasible_band(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 15.0
        env = build_env(obstacle=obstacle)
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = sample_entry_level((0, 1), 0, env, rng)
            assert k == 2

    def test_mixture_with_feasible_previous(self):
        # Band 0..2 and previous level 1: thirds for "lowest", "keep previous",
        # and "uniform of three" give P(0)=4/9, P(1)=4/9, P(2)=1/9.
        import scipy.stats

        env = build_env()
        rng = np.random.default_rng(42)
        n = 30_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_entry_level((0, 1), 1, env, rng)] += 1
        expected = np.array([4 / 9, 4 / 9, 1 / 9]) * n
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < scipy.stats.chi2.ppf(0.99, df=2)

    def test_mixture_with_infeasible_previous(self):
        # Band 1..2 with previous level 0: the keep-previous branch falls
        # through to uniform, so P(1)=2/3, P(2)=1/3.
        import scipy.stats

        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 10.0
        env = build_env(obstacle=obstacle)
        rng = np.random.default_rng(7)
        n = 30_000
        counts = {1: 0, 2: 0}
        for _ in range(n):
            counts[sample_entry_level((0, 1), 0, env, rng)] += 1
        expected = {1: 2 * n / 3, 2: n / 3}
        chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
        assert chi2 < scipy.stats.chi2.ppf(0.99, df=1)

    def test_impassable_cell_raises(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 100.0  # above the top level
        env = build_env(obstacle=obstacle)
        with pytest.raises(GridError, match="impassable"):
            sample_entry_level((0, 1), 0, env, np.random.default_rng(0))

    @pytest.mark.parametrize("cell", [(3, 0), (0, 4), (-1, 0)])
    def test_off_grid_cell_raises(self, cell):
        env = build_env()
        with pytest.raises(GridError, match="outside"):
            sample_entry_level(cell, 0, env, np.random.default_rng(0))


class TestInitialize:
    def test_produces_valid_candidates(self):
        env = generate(GeneratorSettings(rows=6, cols=6, obstacle_density=0.3), 5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            ch = initialize(env, rng)
            report = validate(ch, env)
            assert report.ok, report.violations
            assert 0.0 <= ch.weight <= 1.0

    def test_deterministic(self):
        env = build_env(rows=5, cols=5)
        a = initialize(env, np.random.default_rng(3))
        b = initialize(env, np.random.default_rng(3))
        assert a == b

    def test_unreachable_goal_raises(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_INIT_RETRIES", 50)
        obstacle = np.zeros((3, 4))
        obstacle[:, 1] = 100.0
        env = build_env(obstacle=obstacle)
        stats = OperatorStats()
        with pytest.raises(InitializationError, match="50 attempts"):
            initialize(env, np.random.default_rng(0), stats)
        assert stats.walk_restarts == 50


class TestCrossover:
    def test_children_are_valid(self):
        env = generate(GeneratorSettings(rows=6, cols=6, obstacle_density=0.3), 9)
        rng = np.random.default_rng(1)
        for _ in range(100):
            pa = initialize(env, rng)
            pb = initialize(env, rng)
            c1, c2 = crossover(pa, pb, env, rng)
            assert validate(c1, env).ok
            assert validate(c2, env).ok

    def test_deterministic(self):
        env = build_env(rows=5, cols=5)
        def make(seed):
            rng = np.random.default_rng(seed)
            pa = initialize(env, rng)
            pb = initialize(env, rng)
            return crossover(pa, pb, env, rng)
        assert make(11) == make(11)

    def test_weight_blends_between_parents(self):
        env = build_env(rows=5, cols=5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            pa = initialize(env, rng)
            pb = initialize(env, rng)
            lo, hi = sorted((pa.weight, pb.weight))
            for child in crossover(pa, pb, env, rng):
                if child is pa or child is pb:
                    continue  # splice fallback keeps the parent weight
                assert lo - 1e-12 <= child.weight <= hi + 1e-12

    def test_stats_count_crossovers(self):
        env = build_env(rows=5, cols=5)
        rng = np.random.default_rng(3)
        stats = OperatorStats()
        pa = initialize(env, rng)
        pb = initialize(env, rng)
        crossover(pa, pb, env, rng, stats)
        assert stats.crossovers == 1


def _strip_revisits(cells, levels, stats):
    """Delete loops in place until no cell repeats: everything after the
    first occurrence of a repeated cell up to its last occurrence goes,
    keeping the first occurrence's entry level."""
    while True:
        first_at = {}
        dup = None
        for idx, cell in enumerate(cells):
            if cell in first_at:
                dup = cell
            else:
                first_at[cell] = idx
        if dup is None:
            return
        first = first_at[dup]
        last = max(i for i, cell in enumerate(cells) if cell == dup)
        del cells[first + 1 : last + 1]
        del levels[first + 1 : last + 1]
        stats.loop_removals += 1


def _reference_crossover(parent_a, parent_b, env, rng, stats):
    """``crossover`` as the plain composition: every child is spliced on
    lists, then goes through ``_strip_revisits``."""
    a_cells, b_cells = parent_a.cells, parent_b.cells
    la, lb = len(a_cells), len(b_cells)
    cut = int(rng.random() * (min(la, lb) - 1))

    def splice(head_end, tail_start):
        cells = list(a_cells[: head_end + 1] + b_cells[tail_start:])
        levels = list(parent_a.entry_levels[: head_end + 1] + parent_b.entry_levels[tail_start:])
        _strip_revisits(cells, levels, stats)
        alpha = rng.random()
        weight = alpha * parent_a.weight + (1.0 - alpha) * parent_b.weight
        return Chromosome(tuple(cells), tuple(levels), weight)

    child_one = child_two = None
    for tail_start in range(cut + 1, lb):
        if b_cells[tail_start] in env.successors(a_cells[cut]):
            child_one = splice(cut, tail_start)
            break
    for head_end in range(cut, min(la, lb) - 1):
        if b_cells[head_end + 1] in env.successors(a_cells[head_end]):
            child_two = splice(head_end, head_end + 1)
            break
    stats.splice_failures += (child_one is None) + (child_two is None)
    stats.crossovers += 1
    return (
        parent_a if child_one is None else child_one,
        parent_b if child_two is None else child_two,
    )


def _assert_matches_reference(parents, env, seed):
    """Every ordered parent pair: same children, same stats, and the same
    next draw as the reference composition. Returns each pair's stats."""
    all_stats = []
    for pa, pb in itertools.permutations(parents, 2):
        rng, ref_rng = BlockDraws(seed), BlockDraws(seed)
        stats, ref_stats = OperatorStats(), OperatorStats()
        children = crossover(pa, pb, env, rng, stats)
        expected = _reference_crossover(pa, pb, env, ref_rng, ref_stats)
        assert children == expected
        assert stats == ref_stats
        assert rng.random() == ref_rng.random()
        all_stats.append(stats)
        seed += 1
    return all_stats


class TestStripRevisits:
    """The reference loop strip that ``crossover`` is checked against."""

    def test_removes_loop_keeping_first_entry(self):
        cells = [(1, 0), (0, 1), (1, 1), (0, 1), (1, 2)]
        levels = [0, 1, 2, 1, 0]
        stats = OperatorStats()
        _strip_revisits(cells, levels, stats)
        assert cells == [(1, 0), (0, 1), (1, 2)]
        assert levels == [0, 1, 0]
        assert stats.loop_removals == 1

    def test_nested_loops_all_removed(self):
        cells = [(1, 0), (1, 1), (2, 1), (1, 1), (0, 1), (1, 1), (1, 2)]
        levels = [0, 0, 1, 2, 1, 2, 0]
        stats = OperatorStats()
        _strip_revisits(cells, levels, stats)
        assert cells == [(1, 0), (1, 1), (1, 2)]
        assert levels == [0, 0, 0]
        assert stats.loop_removals >= 1

    def test_no_loop_untouched(self):
        cells = [(1, 0), (1, 1), (1, 2)]
        levels = [0, 1, 2]
        stats = OperatorStats()
        _strip_revisits(cells, levels, stats)
        assert cells == [(1, 0), (1, 1), (1, 2)] and levels == [0, 1, 2]
        assert stats.loop_removals == 0


class TestSpliceKernel:
    """``crossover`` joins valid parents with one cut; the result must equal
    stripping loops until no cell repeats on every child."""

    # An open 5x5 world whose random walks wander north and south, so some
    # tails return to two head cells and only the later return cuts every
    # loop; generated worlds rarely give that case.
    @example(env=generate(GeneratorSettings(rows=5, cols=5, obstacle_density=0.1), 0), seed=0)
    @settings(max_examples=40, deadline=None)
    @given(generated_worlds(), st.integers(0, 2**32 - 1))
    def test_matches_reference_composition(self, env, seed):
        rng = np.random.default_rng(seed)
        parents = [initialize(env, rng) for _ in range(4)]
        _assert_matches_reference(parents, env, seed)

    @settings(max_examples=40, deadline=None)
    @given(generated_worlds(), st.integers(0, 2**32 - 1))
    def test_child_genes_are_parent_genes(self, env, seed):
        # The children need no level repair: each (cell, level) gene comes
        # from a parent that validates.
        rng = np.random.default_rng(seed)
        parents = [initialize(env, rng) for _ in range(4)]
        for pa, pb in itertools.permutations(parents, 2):
            genes = set(zip(pa.cells, pa.entry_levels)) | set(zip(pb.cells, pb.entry_levels))
            for child in crossover(pa, pb, env, rng):
                assert set(zip(child.cells, child.entry_levels)) <= genes

    def test_loops_are_cut(self):
        # Open worlds let random walks wander north and south, so splices
        # often close loops.
        env = generate(GeneratorSettings(rows=6, cols=6, obstacle_density=0.1), 3)
        rng = np.random.default_rng(8)
        all_stats = []
        for pool in range(10):
            parents = [initialize(env, rng) for _ in range(6)]
            all_stats += _assert_matches_reference(parents, env, pool)
        assert len(all_stats) == 300
        assert sum(s.loop_removals for s in all_stats) > 0


def _tournament(pool, keys, rng):
    """A binary tournament over ``pool`` drawing from ``rng``: the lower key
    wins, a tie goes to a coin."""
    def pick():
        i, j = int(rng.random() * len(pool)), int(rng.random() * len(pool))
        if keys[i] != keys[j]:
            return pool[i] if keys[i] < keys[j] else pool[j]
        return pool[i] if rng.random() < 0.5 else pool[j]
    return pick


def _reference_breed(pick, count, seen, max_barren, env, rng, config, stats, events):
    """``breed`` as the composition of the one-step operators; records in
    ``events`` the edge cases it met."""
    children = []
    barren = 0
    while len(children) < count:
        novelty_required = barren < max_barren
        if not novelty_required:
            events.add("barren budget ran out")
        pa, pb = pick(), pick()
        stats.matings += 1
        if rng.random() < config.crossover_probability:
            if min(len(pa.cells), len(pb.cells)) == 2:
                events.add("two-cell parent crossed")
            c1, c2 = crossover(pa, pb, env, rng, stats)
        else:
            c1, c2 = pa, pb
        accepted = False
        for child in (c1, c2):
            if len(children) >= count:
                events.add("last slot filled by child one")
                break
            child = mutate(child, config, env, rng, stats)
            key = (child.cells, child.entry_levels)
            if key in seen:
                if novelty_required:
                    stats.novelty_rejections += 1
                    continue
                stats.duplicates_accepted += 1
            seen.add(key)
            children.append(child)
            accepted = True
        barren = 0 if accepted else barren + 1
    return children


def _assert_breed_matches_reference(env, parents, seed, count, max_barren, config):
    """``breed`` and the reference, each on its own source from the same
    seed, on the same pool: equal children, stats, genotype sets and next
    draws of both streams. Returns the reference's events."""
    keys = [float(k) for k in np.random.default_rng(seed).integers(3, size=len(parents))]
    seen = {(p.cells, p.entry_levels) for p in parents}
    rng, ref_rng = BlockDraws(seed), BlockDraws(seed)
    stats, ref_stats = OperatorStats(), OperatorStats()
    ref_seen, events = set(seen), set()
    children = breed(parents, keys, count, seen, max_barren, env, rng, config, stats)
    expected = _reference_breed(_tournament(parents, keys, ref_rng), count, ref_seen,
                                max_barren, env, ref_rng, config, ref_stats, events)
    assert children == expected
    assert all(type(child) is Chromosome for child in children)
    assert stats == ref_stats
    assert seen == ref_seen
    assert rng.random() == ref_rng.random()
    assert rng.normal() == ref_rng.normal()
    return events


class TestBreed:
    """The search's mating loop makes the draws, children and counts of the
    one-step operators applied in mating order."""

    @settings(max_examples=40, deadline=None)
    @given(
        generated_worlds(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(0, 4),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.01, 1.0),
    )
    def test_matches_reference_loop(self, env, seed, count, max_barren, cp, mp, rate):
        config = OperatorConfig(crossover_probability=cp, mutation_probability=mp,
                                mutation_rate=rate)
        rng = np.random.default_rng(seed)
        parents = [initialize(env, rng) for _ in range(4)]
        _assert_breed_matches_reference(env, parents, seed, count, max_barren, config)

    def test_two_cell_parents_and_an_odd_count(self):
        # Start and goal side by side: the direct route has two cells, so
        # the cut has one place to fall when it is crossed.
        env = build_env(rows=2, cols=3, start=(0, 0), goal=(0, 1))
        direct = Chromosome(((0, 0), (0, 1)), (0, 1), 0.25)
        assert validate(direct, env).ok
        events = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            parents = [direct] + [initialize(env, rng) for _ in range(5)]
            events |= _assert_breed_matches_reference(
                env, parents, seed, 5, 3, OperatorConfig(crossover_probability=1.0))
        assert {"two-cell parent crossed", "last slot filled by child one"} <= events

    def test_barren_budget_runs_out(self):
        # One route at one level: every child repeats a genotype.
        env = build_env(rows=1, cols=3, levels=(0.0,))
        rng = np.random.default_rng(4)
        parents = [initialize(env, rng) for _ in range(3)]
        events = _assert_breed_matches_reference(
            env, parents, 4, 5, 2, OperatorConfig(mutation_probability=0.5))
        assert "barren budget ran out" in events

    def test_adds_to_the_given_stats(self):
        env = build_env(rows=4, cols=5)
        rng = np.random.default_rng(2)
        parents = [initialize(env, rng) for _ in range(6)]
        counts = []
        for start in (OperatorStats(), OperatorStats(*range(1, 9))):
            seen = {(p.cells, p.entry_levels) for p in parents}
            breed(parents, [0.0] * 6, 4, seen, 8, env, BlockDraws(3), OperatorConfig(), start)
            counts.append(list(vars(start).values()))
        assert [b - a for a, b in zip(*counts)] == list(range(1, 9))

    @pytest.mark.parametrize("members, keys", [(1, 1), (2, 3)])
    def test_needs_two_members_and_one_key_each(self, members, keys):
        env = build_env(rows=4, cols=5)
        rng = np.random.default_rng(2)
        parents = [initialize(env, rng) for _ in range(members)]
        with pytest.raises(ValueError, match="at least two members"):
            breed(parents, [0.0] * keys, 4, set(), 8, env, rng, OperatorConfig(),
                  OperatorStats())


class TestMutate:
    def test_never_touches_cells_or_first_level(self):
        env = generate(GeneratorSettings(rows=6, cols=6, obstacle_density=0.3), 4)
        rng = np.random.default_rng(5)
        cfg = OperatorConfig(mutation_probability=1.0, mutation_rate=1.0)
        for _ in range(100):
            ch = initialize(env, rng)
            out = mutate(ch, cfg, env, rng)
            assert out.cells == ch.cells
            assert out.entry_levels[0] == ch.entry_levels[0]
            assert validate(out, env).ok

    def test_probability_zero_is_identity(self):
        env = build_env(rows=5, cols=5)
        rng = np.random.default_rng(6)
        ch = initialize(env, rng)
        out = mutate(ch, OperatorConfig(mutation_probability=0.0), env, rng)
        assert out == ch

    def test_nothing_fired_counts_nothing(self):
        env = build_env(rows=5, cols=5)
        rng = np.random.default_rng(6)
        stats = OperatorStats()
        ch = initialize(env, rng)
        out = mutate(ch, OperatorConfig(mutation_probability=0.0), env, rng, stats)
        assert out is ch
        assert stats.mutations == 0

    def test_weight_stays_in_unit_interval(self):
        env = build_env(rows=4, cols=4)
        rng = np.random.default_rng(7)
        cfg = OperatorConfig(mutation_probability=1.0)
        ch = initialize(env, rng)
        for _ in range(300):
            ch = mutate(ch, cfg, env, rng)
            assert 0.0 <= ch.weight <= 1.0

    def test_gene_count_follows_rate(self):
        # With a fresh rng per call and probability 1, exactly
        # ceil(rate * (len-1)) genes are redrawn (some may keep their value).
        env = build_env(rows=1, cols=6, levels=(0.0, 10.0), start=(0, 0), goal=(0, 5))
        cells = tuple((0, c) for c in range(6))
        ch = Chromosome(cells, (0,) * 6, 0.5)
        cfg = OperatorConfig(mutation_probability=1.0, mutation_rate=0.4)
        assert math.ceil(0.4 * 5) == 2
        changed_counts = set()
        for seed in range(200):
            out = mutate(ch, cfg, env, np.random.default_rng(seed))
            diff = sum(a != b for a, b in zip(out.entry_levels, ch.entry_levels))
            changed_counts.add(diff)
            assert diff <= 2
        assert 2 in changed_counts  # both redraws actually flip sometimes

    def test_deterministic(self):
        env = build_env(rows=5, cols=5)
        ch = initialize(env, np.random.default_rng(8))
        cfg = OperatorConfig(mutation_probability=1.0)
        a = mutate(ch, cfg, env, np.random.default_rng(9))
        b = mutate(ch, cfg, env, np.random.default_rng(9))
        assert a == b

    def test_stats_count_mutations(self):
        env = build_env(rows=4, cols=4)
        rng = np.random.default_rng(10)
        stats = OperatorStats()
        ch = initialize(env, rng)
        mutate(ch, OperatorConfig(mutation_probability=1.0), env, rng, stats)
        assert stats.mutations == 1


class TestOperatorFuzz:
    def test_all_operators_preserve_validity(self):
        rng = np.random.default_rng(123)
        for inst_seed in range(4):
            env = generate(
                GeneratorSettings(rows=5, cols=5, level_count=3, obstacle_density=0.25,
                                  ceiling_fraction=0.15, risk_low=0.1, risk_high=0.9),
                inst_seed,
            )
            cfg = OperatorConfig(mutation_probability=0.5)
            pool = [initialize(env, rng) for _ in range(20)]
            for _ in range(200):
                pa, pb = rng.choice(len(pool), size=2, replace=False)
                c1, c2 = crossover(pool[pa], pool[pb], env, rng)
                m = mutate(c1, cfg, env, rng)
                for ch in (c1, c2, m):
                    assert validate(ch, env).ok
                pool[int(rng.integers(len(pool)))] = m


class TestOperatorClosureProperty:
    @settings(max_examples=40, deadline=None)
    @given(generated_worlds(), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
    def test_outputs_always_validate(self, env, seed, mutation_rate):
        rng = np.random.default_rng(seed)
        cfg = OperatorConfig(
            crossover_probability=1.0, mutation_probability=1.0, mutation_rate=mutation_rate
        )
        parents = [initialize(env, rng) for _ in range(2)]
        children = crossover(*parents, env, rng)
        mutants = [mutate(ch, cfg, env, rng) for ch in (*parents, *children)]
        for ch in (*parents, *children, *mutants):
            assert validate(ch, env).ok, ch
