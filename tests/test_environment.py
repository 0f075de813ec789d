"""Grid geometry, terrain bands, generation, and instance files."""

import json
import math

import numpy as np
import pytest

from overfly import (
    Environment,
    GenerationError,
    GeneratorSettings,
    GridError,
    GridSpec,
    InstanceFormatError,
    generate,
    has_feasible_path,
    load_instance,
    save_instance,
)

from helpers import build_env


def spec_kwargs(**overrides):
    base = dict(
        rows=3,
        cols=4,
        cell_size_m=10.0,
        levels_m=(0.0, 10.0, 20.0),
        start_cell=(1, 0),
        goal_cell=(1, 3),
        start_level=0,
    )
    base.update(overrides)
    return base


class TestGridSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"rows": 0},
            {"cols": 0},
            {"cell_size_m": 0.0},
            {"cell_size_m": -1.0},
            {"levels_m": ()},
            {"levels_m": (0.0, 0.0)},
            {"levels_m": (10.0, 0.0)},
            {"start_cell": (3, 0)},
            {"goal_cell": (0, 4)},
            {"start_cell": (1, 3)},  # equals goal
            {"start_cell": (1, 2), "goal_cell": (1, 1)},  # goal west of start
            {"start_level": 3},
            {"start_level": -1},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(GridError):
            GridSpec(**spec_kwargs(**overrides))

    def test_level_count_and_cell_id(self):
        spec = GridSpec(**spec_kwargs())
        assert spec.level_count == 3
        assert spec.cell_id((0, 0)) == 0
        assert spec.cell_id((1, 2)) == 6
        assert spec.cell_id((2, 3)) == 11

    def test_goal_in_same_column_allowed(self):
        spec = GridSpec(**spec_kwargs(start_cell=(0, 2), goal_cell=(2, 2)))
        assert spec.start_cell == (0, 2)


class TestBoundaryRejectsNonFinite:
    """Bad numbers are rejected where they enter, with the field named."""

    def test_infinite_cell_size(self):
        with pytest.raises(GridError, match="cell_size_m"):
            GridSpec(**spec_kwargs(cell_size_m=math.inf))

    @pytest.mark.parametrize("level", [50_000.0, -1.0, math.nan])
    def test_level_outside_density_model(self, level):
        with pytest.raises(GridError, match=r"levels_m\[2\]"):
            GridSpec(**spec_kwargs(levels_m=(0.0, 10.0, level)))

    def test_nan_risk(self):
        risk = np.zeros((3, 4, 3))
        risk[2, 1, 0] = math.nan
        with pytest.raises(GridError, match=r"risk\[2, 1, 0\]"):
            build_env(risk=risk)

    def test_nan_obstacle(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 2] = math.nan
        with pytest.raises(GridError, match=r"obstacle_m\[0, 2\]"):
            build_env(obstacle=obstacle)

    def test_nan_ceiling(self):
        ceiling = np.full((3, 4), 20.0)
        ceiling[2, 2] = math.nan
        with pytest.raises(GridError, match=r"ceiling_m\[2, 2\]"):
            build_env(ceiling=ceiling)

    @pytest.mark.parametrize(
        "field, literal",
        [("obstacle_m", "NaN"), ("ceiling_m", "Infinity"), ("ceiling_m", "1" + "0" * 400)],
        ids=["nan", "infinity", "int-beyond-float"],
    )
    def test_non_finite_json_number(self, tmp_path, field, literal):
        path = tmp_path / "world.json"
        save_instance(build_env(), path)
        doc = json.loads(path.read_text())
        doc["cells"] = [{"cell": [0, 1], field: 1.5}]
        path.write_text(json.dumps(doc).replace("1.5", literal))
        with pytest.raises(InstanceFormatError, match=rf"cells\[0\]\.{field}"):
            load_instance(path)


class TestEnvironmentConstruction:
    def test_shape_mismatch_rejected(self):
        spec = GridSpec(**spec_kwargs())
        good = np.zeros((3, 4))
        risk = np.zeros((3, 4, 3))
        with pytest.raises(GridError):
            Environment(spec, np.zeros((4, 3)), good, risk)
        with pytest.raises(GridError):
            Environment(spec, good, np.full((2, 4), 20.0), risk)
        with pytest.raises(GridError):
            Environment(spec, good, np.full((3, 4), 20.0), np.zeros((3, 4, 2)))

    def test_negative_obstacle_rejected(self):
        with pytest.raises(GridError):
            build_env(obstacle=np.full((3, 4), -1.0))

    def test_risk_out_of_range_rejected(self):
        with pytest.raises(GridError):
            build_env(risk=np.full((3, 4, 3), 1.5))

    def test_blocked_start_rejected(self):
        obstacle = np.zeros((3, 4))
        obstacle[1, 0] = 15.0  # start departs at level 0 (0 m)
        with pytest.raises(GridError):
            build_env(obstacle=obstacle)

    def test_impassable_goal_rejected(self):
        obstacle = np.zeros((3, 4))
        obstacle[1, 3] = 100.0
        with pytest.raises(GridError):
            build_env(obstacle=obstacle)

    def test_hash_agrees_with_equality(self):
        a = build_env(obstacle=np.zeros((3, 4)), risk=0.25)
        b = build_env(obstacle=np.full((3, 4), -0.0), risk=0.25)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, build_env(risk=0.5)}) == 2

    def test_arrays_frozen(self):
        env = build_env()
        with pytest.raises(ValueError):
            env.obstacle_m[0, 0] = 5.0


class TestMoves:
    def test_interior_cell_has_five_moves(self):
        env = build_env()
        assert set(env.successors((1, 1))) == {(0, 1), (2, 1), (1, 2), (0, 2), (2, 2)}

    def test_column_never_decreases(self):
        env = build_env(rows=4, cols=5)
        for cell in env.cells():
            for nxt in env.successors(cell):
                assert nxt[1] >= cell[1]

    def test_east_edge_moves(self):
        env = build_env()
        assert set(env.successors((1, 3))) == {(0, 3), (2, 3)}

    def test_corners(self):
        env = build_env()
        assert set(env.successors((0, 0))) == {(1, 0), (0, 1), (1, 1)}
        assert set(env.successors((2, 3))) == {(1, 3)}

    def test_predecessors_invert_successors(self):
        env = build_env(rows=4, cols=4)
        for cell in env.cells():
            for nxt in env.successors(cell):
                assert cell in env.predecessors(nxt)
        for cell in env.cells():
            for prv in env.predecessors(cell):
                assert cell in env.successors(prv)

    def test_distances(self):
        env = build_env(cell_size=10.0)
        assert env.distance((1, 1), (0, 1)) == 10.0
        assert env.distance((1, 1), (1, 2)) == 10.0
        assert env.distance((1, 1), (0, 2)) == pytest.approx(10.0 * math.sqrt(2.0), abs=0)
        assert env.distance((1, 1), (2, 2)) == pytest.approx(10.0 * math.sqrt(2.0), abs=0)

    def test_distance_rejects_illegal_moves(self):
        env = build_env()
        with pytest.raises(GridError):
            env.distance((1, 1), (1, 0))  # westward
        with pytest.raises(GridError):
            env.distance((1, 1), (1, 3))  # not adjacent
        with pytest.raises(GridError):
            env.distance((1, 1), (5, 5))  # out of bounds

    def test_cells_row_major(self):
        env = build_env(rows=2, cols=2, start=(0, 0), goal=(1, 1))
        assert list(env.cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestTerrainBands:
    def test_band_from_obstacle_and_ceiling(self):
        obstacle = np.zeros((3, 4))
        ceiling = np.full((3, 4), 20.0)
        obstacle[0, 1] = 15.0  # clears only 20 m
        ceiling[2, 1] = 10.0  # caps at 10 m
        env = build_env(obstacle=obstacle, ceiling=ceiling)
        assert env.feasible_levels((0, 1)) == (2, 2)
        assert env.feasible_levels((2, 1)) == (0, 1)
        assert env.feasible_levels((1, 1)) == (0, 2)

    def test_obstacle_exactly_at_level_is_passable(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 10.0
        env = build_env(obstacle=obstacle)
        assert env.feasible_levels((0, 1)) == (1, 2)
        assert env.level_ok((0, 1), 1)
        assert not env.level_ok((0, 1), 0)

    def test_impassable_cell(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 25.0
        env = build_env(obstacle=obstacle)
        assert not env.passable((0, 1))
        with pytest.raises(GridError):
            env.feasible_levels((0, 1))

    def test_level_ok_bounds(self):
        env = build_env()
        assert not env.level_ok((1, 1), -1)
        assert not env.level_ok((1, 1), 3)

    def test_accessors_match_obstacle_and_ceiling(self):
        # The accessors answer from a precomputed band table; every cell's
        # answer must match the definition: obstacle <= levels[k] <= ceiling.
        env = generate(
            GeneratorSettings(rows=8, cols=8, level_count=4, obstacle_density=0.3,
                              ceiling_fraction=0.3),
            3,
        )
        levels = env.spec.levels_m
        impassable = 0
        for r, c in env.cells():
            ok = [env.obstacle_m[r, c] <= z <= env.ceiling_m[r, c] for z in levels]
            assert [env.level_ok((r, c), k) for k in range(len(levels))] == ok
            assert env.passable((r, c)) == any(ok)
            if any(ok):
                feasible = [k for k, flag in enumerate(ok) if flag]
                assert env.feasible_levels((r, c)) == (feasible[0], feasible[-1])
            else:
                impassable += 1
                with pytest.raises(GridError, match="impassable"):
                    env.feasible_levels((r, c))
        assert impassable > 0

    def test_cell_data_and_risk(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 2] = [0.1, 0.5, 0.9]
        env = build_env(risk=risk)
        data = env.cell_data((1, 2))
        assert data.obstacle_m == 0.0
        assert data.ceiling_m == 20.0
        assert data.risk == (0.1, 0.5, 0.9)
        assert env.risk_at((1, 2)) == (0.1, 0.5, 0.9)


class TestReachability:
    def test_open_grid_is_reachable(self):
        assert has_feasible_path(build_env())

    def test_full_wall_blocks(self):
        obstacle = np.zeros((3, 4))
        obstacle[:, 1] = 100.0  # above every level
        env = build_env(obstacle=obstacle)
        assert not has_feasible_path(env)

    def test_gap_in_wall_allows_passage(self):
        obstacle = np.zeros((3, 4))
        obstacle[:, 1] = 100.0
        obstacle[0, 1] = 15.0  # crossable at the top level
        env = build_env(obstacle=obstacle)
        assert has_feasible_path(env)


class TestGenerate:
    def test_deterministic_in_seed(self):
        settings = GeneratorSettings(rows=5, cols=5, obstacle_density=0.3)
        assert generate(settings, 42) == generate(settings, 42)

    def test_seed_changes_world(self):
        settings = GeneratorSettings(rows=6, cols=6, obstacle_density=0.3)
        assert generate(settings, 1) != generate(settings, 2)

    def test_generated_world_properties(self):
        settings = GeneratorSettings(
            rows=5,
            cols=6,
            level_count=4,
            obstacle_density=0.3,
            ceiling_fraction=0.2,
            risk_low=0.1,
            risk_high=0.8,
        )
        env = generate(settings, 7)
        assert env.spec.rows == 5 and env.spec.cols == 6
        assert env.spec.levels_m == (0.0, 10.0, 20.0, 30.0)
        assert has_feasible_path(env)
        assert np.all(env.risk >= 0.1) and np.all(env.risk <= 0.8)
        assert env.obstacle_m[env.spec.start_cell] == 0.0
        assert env.obstacle_m[env.spec.goal_cell] == 0.0

    def test_westward_endpoints_are_mirrored(self):
        settings = GeneratorSettings(
            rows=3, cols=5, start_cell=(1, 4), goal_cell=(1, 0), obstacle_density=0.0
        )
        env = generate(settings, 0)
        assert env.spec.start_cell == (1, 0)
        assert env.spec.goal_cell == (1, 4)

    def test_infeasible_settings_raise(self):
        settings = GeneratorSettings(
            rows=1, cols=3, level_count=1, obstacle_density=0.99, max_rounds=1
        )
        with pytest.raises(GenerationError):
            generate(settings, 0)

    def test_density_one_rejected(self):
        with pytest.raises(GridError):
            GeneratorSettings(rows=3, cols=3, obstacle_density=1.0)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        settings = GeneratorSettings(
            rows=4, cols=5, level_count=3, obstacle_density=0.3,
            ceiling_fraction=0.2, risk_low=0.05, risk_high=0.95,
        )
        env = generate(settings, 11)
        path = tmp_path / "world.json"
        save_instance(env, path)
        assert load_instance(path) == env

    def test_resave_is_byte_identical(self, tmp_path):
        env = generate(GeneratorSettings(rows=4, cols=4, obstacle_density=0.25), 3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(env, a)
        save_instance(load_instance(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_missing_field_names_path(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"grid": {"rows": 2, "cols": 2}}), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="cell_size_m"):
            load_instance(path)

    def test_sparse_cells_take_defaults(self, tmp_path):
        doc = {
            "grid": {"rows": 2, "cols": 3, "cell_size_m": 10.0},
            "levels_m": [0.0, 10.0],
            "start": {"cell": [0, 0], "level": 0},
            "goal": {"cell": [0, 2]},
            "default_risk": 0.25,
            "cells": [{"cell": [1, 1], "obstacle_m": 10.0, "risk": [0.9, 0.8]}],
        }
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        env = load_instance(path)
        assert env.cell_data((0, 0)).risk == (0.25, 0.25)
        assert env.cell_data((1, 1)).obstacle_m == 10.0
        assert env.cell_data((1, 1)).risk == (0.9, 0.8)
        assert env.cell_data((0, 1)).ceiling_m == 10.0
