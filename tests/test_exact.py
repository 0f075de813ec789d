"""Exhaustive enumeration, arc-flow checking, and the independent evaluator."""

import gc
import itertools

import numpy as np
import pytest

import overfly.exact as exact
from overfly import (
    Chromosome,
    DroneParams,
    EnumerationLimitError,
    FlowError,
    GeneratorSettings,
    chromosome_arcs,
    enumerate_front,
    evaluate,
    evaluate_assignment,
    generate,
    iter_assignments,
    validate,
)

from overfly.cli import suite_settings

from helpers import all_simple_paths, build_env, collections_started

PARAMS = DroneParams()


def brute_force_front(env, params):
    """Pareto front over every (path, level assignment), via the chromosome
    evaluator — a fully independent reference for enumerate_front."""
    vectors = []
    for cells in all_simple_paths(env):
        for levels in iter_assignments(env, cells):
            ch = Chromosome(cells, levels, 0.5)
            report = validate(ch, env)
            if not report.ok:
                continue
            vectors.append(evaluate(ch, env, params).as_tuple())
    front = []
    for v in vectors:
        if not any(
            all(o <= x for o, x in zip(other, v)) and other != v for other in vectors
        ):
            front.append(v)
    return sorted(set(front))


def hand_built_worlds():
    """Route shapes the generator rarely draws: start and goal in one column
    (goal north, goal south), four levels, routes that are all diagonal, and
    a goal that only a westward move could reach (empty front, no paths)."""
    rng = np.random.default_rng(11)
    wall = 100.0  # above every top level: impassable

    def risk(rows, cols, levels):
        return rng.uniform(0.05, 0.95, (rows, cols, levels))

    diagonal = np.full((3, 3), wall)
    for cell in ((1, 0), (0, 1), (2, 1), (1, 2)):
        diagonal[cell] = 0.0
    four_levels = np.zeros((2, 3))
    four_levels[0, 1] = 15.0
    west = np.zeros((3, 2))
    west[1, 0] = wall
    return [
        build_env(rows=4, cols=3, start=(3, 1), goal=(0, 1), risk=risk(4, 3, 3)),
        build_env(rows=4, cols=3, start=(0, 1), goal=(3, 1), risk=risk(4, 3, 3)),
        build_env(rows=2, cols=3, levels=(0.0, 10.0, 20.0, 30.0), obstacle=four_levels,
                  risk=risk(2, 3, 4)),
        build_env(rows=3, cols=3, obstacle=diagonal, risk=risk(3, 3, 3)),
        build_env(rows=3, cols=2, start=(2, 0), goal=(0, 0), obstacle=west, risk=risk(3, 2, 3)),
    ]


class TestCaps:
    def test_default_caps(self):
        # The label budget is the only guard: grid size and levels are free.
        assert exact.MAX_STATES == 10_000_000

    @pytest.mark.parametrize(
        "env",
        [
            build_env(rows=6, cols=6),
            build_env(rows=2, cols=2, levels=(0.0, 10.0, 20.0, 30.0, 40.0),
                      start=(0, 0), goal=(0, 1)),
        ],
        ids=["cells", "levels"],
    )
    def test_refused_by_state_budget_only(self, env, monkeypatch):
        front = enumerate_front(env, PARAMS)
        assert front.members
        budget = front.states_processed
        monkeypatch.setattr(exact, "MAX_STATES", budget)
        assert enumerate_front(env, PARAMS) == front
        monkeypatch.setattr(exact, "MAX_STATES", budget - 1)
        with pytest.raises(EnumerationLimitError, match=f"exceeded {budget - 1} label"):
            enumerate_front(env, PARAMS)

    def test_state_budget_enforced_not_truncated(self, monkeypatch):
        env = build_env(rows=4, cols=4)
        monkeypatch.setattr(exact, "MAX_STATES", 100)
        with pytest.raises(EnumerationLimitError):
            enumerate_front(env, PARAMS)


class TestCollectorPaused:
    """The front is built with the cyclic collector paused, and the
    caller's collector state comes back however the call ends."""

    def test_collector_on_after_the_front(self):
        assert gc.isenabled()
        enumerate_front(build_env(rows=4, cols=4), PARAMS)
        assert gc.isenabled()

    def test_collector_stays_off_for_a_caller_that_turned_it_off(self):
        gc.disable()
        try:
            enumerate_front(build_env(rows=4, cols=4), PARAMS)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_back_on_after_the_budget_refuses(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_STATES", 100)
        with pytest.raises(EnumerationLimitError):
            enumerate_front(build_env(rows=4, cols=4), PARAMS)
        assert gc.isenabled()

    def test_no_collection_starts_while_the_front_builds(self):
        _id, settings, seed = suite_settings(0)[8]  # T3-1
        assert collections_started(enumerate_front, generate(settings, seed), PARAMS) == []


class TestPathCounts:
    def test_two_by_two_has_four_paths(self):
        env = build_env(rows=2, cols=2, start=(0, 0), goal=(0, 1))
        front = enumerate_front(env, PARAMS)
        assert front.paths_enumerated == 4
        assert len(all_simple_paths(env)) == 4

    def test_one_by_two_has_one_path(self):
        env = build_env(rows=1, cols=2, start=(0, 0), goal=(0, 1))
        front = enumerate_front(env, PARAMS)
        assert front.paths_enumerated == 1
        assert len(front.members) == 1

    def test_matches_test_side_dfs(self):
        generated = generate(
            GeneratorSettings(rows=3, cols=4, obstacle_density=0.25,
                              risk_low=0.1, risk_high=0.9), 3,
        )
        for env in [generated, *hand_built_worlds()]:
            front = enumerate_front(env, PARAMS)
            assert front.paths_enumerated == len(all_simple_paths(env))


class TestEnumerateFront:
    def test_members_validate_and_reevaluate_exactly(self):
        env = generate(
            GeneratorSettings(rows=3, cols=3, level_count=3, obstacle_density=0.2,
                              ceiling_fraction=0.2, risk_low=0.05, risk_high=0.95), 5,
        )
        front = enumerate_front(env, PARAMS)
        assert front.members
        for m in front.members:
            ch = m.chromosome()
            assert validate(ch, env).ok
            assert evaluate(ch, env, PARAMS).as_tuple() == m.objectives.as_tuple()

    def test_mutually_nondominated(self):
        env = generate(
            GeneratorSettings(rows=3, cols=3, level_count=2, obstacle_density=0.2,
                              risk_low=0.1, risk_high=0.9), 6,
        )
        triples = [m.objectives.as_tuple() for m in enumerate_front(env, PARAMS).members]
        for a, b in itertools.permutations(triples, 2):
            assert not (all(x <= y for x, y in zip(a, b)) and a != b)

    def test_matches_brute_force_front(self):
        generated = [
            generate(
                GeneratorSettings(rows=3, cols=3, level_count=2, obstacle_density=0.25,
                                  ceiling_fraction=0.2, risk_low=0.05, risk_high=0.95),
                seed,
            )
            for seed in range(5)
        ]
        for env in generated + hand_built_worlds():
            expected = brute_force_front(env, PARAMS)
            got = sorted({m.objectives.as_tuple() for m in enumerate_front(env, PARAMS).members})
            assert got == expected

    def test_deterministic_member_order(self):
        env = generate(
            GeneratorSettings(rows=3, cols=3, level_count=3, obstacle_density=0.2,
                              risk_low=0.1, risk_high=0.9), 7,
        )
        a = enumerate_front(env, PARAMS)
        b = enumerate_front(env, PARAMS)
        assert [(m.cells, m.entry_levels) for m in a.members] == [
            (m.cells, m.entry_levels) for m in b.members
        ]

    def test_single_level_world(self):
        env = build_env(rows=2, cols=3, levels=(0.0,), start=(0, 0), goal=(0, 2))
        front = enumerate_front(env, PARAMS)
        assert front.members
        assert all(set(m.entry_levels) == {0} for m in front.members)

    def test_chromosome_weight_passthrough(self):
        env = build_env(rows=1, cols=2, start=(0, 0), goal=(0, 1))
        m = enumerate_front(env, PARAMS).members[0]
        assert m.chromosome().weight == 0.5
        assert m.chromosome(weight=0.25).weight == 0.25


class TestIterAssignments:
    def test_count_is_band_product(self):
        obstacle = np.zeros((3, 4))
        obstacle[1, 1] = 10.0  # band 1..2
        ceiling = np.full((3, 4), 20.0)
        ceiling[1, 2] = 0.0  # band 0..0
        env = build_env(obstacle=obstacle, ceiling=ceiling)
        cells = ((1, 0), (1, 1), (1, 2), (1, 3))
        assignments = list(iter_assignments(env, cells))
        assert len(assignments) == 1 * 2 * 1 * 3
        for levels in assignments:
            assert levels[0] == env.spec.start_level
            ch = Chromosome(cells, levels, 0.5)
            assert validate(ch, env).ok

    def test_lexicographic_order(self):
        env = build_env()
        cells = ((1, 0), (1, 1), (1, 2), (1, 3))
        assignments = list(iter_assignments(env, cells))
        assert assignments == sorted(assignments)
        assert assignments[0] == (0, 0, 0, 0)
        assert assignments[-1] == (0, 2, 2, 2)


class TestChromosomeArcs:
    def test_arc_extraction(self):
        ch = Chromosome(cells=((1, 0), (0, 1), (0, 2)), entry_levels=(0, 2, 1), weight=0.5)
        assert chromosome_arcs(ch) == (
            ((1, 0), (0, 1), 2),
            ((0, 1), (0, 2), 1),
        )


class TestEvaluateAssignment:
    def test_agrees_with_chromosome_evaluator(self):
        env = generate(
            GeneratorSettings(rows=4, cols=4, level_count=3, obstacle_density=0.2,
                              ceiling_fraction=0.15, risk_low=0.05, risk_high=0.95), 9,
        )
        from overfly import initialize

        rng = np.random.default_rng(0)
        for _ in range(200):
            ch = initialize(env, rng)
            a = evaluate(ch, env, PARAMS)
            b = evaluate_assignment(chromosome_arcs(ch), env, PARAMS)
            for va, vb in zip(a.as_tuple(), b.as_tuple()):
                assert abs(va - vb) <= 1e-9 * max(1.0, abs(va), abs(vb))

    def test_eq3_zero_departures(self):
        env = build_env()
        with pytest.raises(FlowError, match="eq3"):
            evaluate_assignment(((((0, 0)), (0, 1), 0),), env, PARAMS)

    def test_eq3_two_departures(self):
        env = build_env()
        arcs = (
            ((1, 0), (1, 1), 0),
            ((1, 0), (0, 1), 0),
            ((1, 1), (1, 2), 0),
            ((0, 1), (1, 2), 0),  # also breaks eq5, but eq3 is checked first
            ((1, 2), (1, 3), 0),
        )
        with pytest.raises(FlowError, match="eq3"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_eq4_goal_never_entered(self):
        env = build_env()
        with pytest.raises(FlowError, match="eq4"):
            evaluate_assignment((((1, 0), (1, 1), 0),), env, PARAMS)

    def test_eq5_imbalance(self):
        env = build_env()
        arcs = (
            ((1, 0), (1, 1), 0),
            ((1, 1), (1, 2), 0),
            ((1, 1), (0, 2), 0),
            ((1, 2), (1, 3), 0),
            ((0, 2), (0, 3), 0),
        )
        with pytest.raises(FlowError, match="eq5|eq4"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_eq5_disconnected_circulation(self):
        env = build_env(rows=4, cols=4, goal=(1, 3))
        arcs = (
            ((1, 0), (1, 1), 0),
            ((1, 1), (1, 2), 0),
            ((1, 2), (1, 3), 0),
            # a 4-cycle nowhere on the walk: needs a westward arc, so use
            # north/south only -- (3,0)->(2,0)->(3,0) is a 2-cycle
            ((3, 0), (2, 0), 0),
            ((2, 0), (3, 0), 0),
        )
        with pytest.raises(FlowError, match="eq5"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_eq6_goal_departs(self):
        env = build_env()
        arcs = (
            ((1, 0), (1, 1), 0),
            ((1, 1), (1, 2), 0),
            ((1, 2), (1, 3), 0),
            ((1, 3), (0, 3), 0),
        )
        with pytest.raises(FlowError, match="eq6"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_eq7_below_obstacle(self):
        obstacle = np.zeros((3, 4))
        obstacle[1, 1] = 15.0
        env = build_env(obstacle=obstacle)
        arcs = (
            ((1, 0), (1, 1), 0),  # enters a 15 m obstacle cell at 0 m
            ((1, 1), (1, 2), 2),
            ((1, 2), (1, 3), 2),
        )
        with pytest.raises(FlowError, match="eq7"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_eq8_above_ceiling(self):
        ceiling = np.full((3, 4), 20.0)
        ceiling[1, 1] = 0.0
        env = build_env(ceiling=ceiling)
        arcs = (
            ((1, 0), (1, 1), 2),
            ((1, 1), (1, 2), 0),
            ((1, 2), (1, 3), 0),
        )
        with pytest.raises(FlowError, match="eq8"):
            evaluate_assignment(arcs, env, PARAMS)

    def test_duplicate_arc_rejected(self):
        env = build_env()
        arc = ((1, 0), (1, 1), 0)
        with pytest.raises(FlowError, match="duplicate"):
            evaluate_assignment((arc, arc), env, PARAMS)

    def test_illegal_move_rejected(self):
        env = build_env()
        with pytest.raises(FlowError, match="not a grid move"):
            evaluate_assignment((((1, 1), (1, 0), 0),), env, PARAMS)

    def test_undefined_level_rejected(self):
        env = build_env()
        with pytest.raises(FlowError, match="undefined level"):
            evaluate_assignment((((1, 0), (1, 1), 9),), env, PARAMS)
