"""Grid geometry, terrain bands, generation, and instance files."""

import json
import math
import pickle
import re
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overfly import (
    Chromosome,
    DroneParams,
    Environment,
    GenerationError,
    GeneratorSettings,
    GridError,
    GridSpec,
    InstanceFormatError,
    NormBounds,
    build_model,
    chromosome_arcs,
    enumerate_front,
    evaluate,
    evaluate_assignment,
    generate,
    has_feasible_path,
    load_instance,
    render_lp,
    save_instance,
)
from overfly import environment

from overfly.cli import suite_settings
from overfly.environment import MAX_CELL_SIZE_M, _move_tables

from helpers import build_env, generated_worlds


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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"cell_size_m": "10"}, "cell_size_m"),
            ({"cell_size_m": None}, "cell_size_m"),
            ({"levels_m": (0.0, "10", 20.0)}, "levels_m[1]"),
            ({"levels_m": (0.0, True)}, "levels_m[1]"),
        ],
    )
    def test_non_number_names_its_field(self, overrides, field):
        with pytest.raises(GridError) as excinfo:
            GridSpec(**spec_kwargs(**overrides))
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field} must lie in ")

    def test_numbers_are_stored_as_python_floats(self):
        spec = GridSpec(**spec_kwargs(cell_size_m=np.int64(10), levels_m=tuple(np.arange(3) * 10.0)))
        assert spec == GridSpec(**spec_kwargs())
        assert [type(x) for x in (spec.cell_size_m, *spec.levels_m)] == [float] * 4
        assert repr(spec.levels_m) == "(0.0, 10.0, 20.0)"

    def test_level_count(self):
        spec = GridSpec(**spec_kwargs())
        assert spec.level_count == 3

    def test_goal_in_same_column_allowed(self):
        spec = GridSpec(**spec_kwargs(start_cell=(0, 2), goal_cell=(2, 2)))
        assert spec.start_cell == (0, 2)


class TestBoundaryRejectsNonFinite:
    """Bad numbers are rejected where they enter, with the field named."""

    def test_infinite_cell_size(self):
        with pytest.raises(GridError, match="cell_size_m"):
            GridSpec(**spec_kwargs(cell_size_m=math.inf))

    # Squared lengths overflow near 1e154 m, so finite sizes need a cap too.
    @pytest.mark.parametrize("size", [1e154, 1e200, math.nextafter(MAX_CELL_SIZE_M, math.inf)])
    def test_oversized_cell(self, size):
        with pytest.raises(GridError, match="cell_size_m"):
            GridSpec(**spec_kwargs(cell_size_m=size))

    def test_largest_cell_size_keeps_every_objective_finite(self):
        # Levels up to 44 km also put the air density near its model floor,
        # which the energy terms divide by.
        settings = GeneratorSettings(
            rows=3, cols=4, cell_size_m=MAX_CELL_SIZE_M, obstacle_density=0.0,
            level_spacing_m=22_000.0,
        )
        env, params = generate(settings, 0), DroneParams()
        members = enumerate_front(env, params).members
        for m in members:
            ch = Chromosome(m.cells, m.entry_levels, 0.5)
            values = (
                *m.objectives.as_tuple(),
                *evaluate(ch, env, params).as_tuple(),
                *evaluate_assignment(chromosome_arcs(ch), env, params).as_tuple(),
            )
            assert all(math.isfinite(v) for v in values)
        bounds = NormBounds.from_vectors([m.objectives for m in members])
        min_risk = min(m.objectives.risk for m in members)
        for model in (
            build_model(env, params),
            build_model(env, params, "weighted", bounds=bounds),
            build_model(env, params, "epsilon", risk_cap=min_risk),
        ):
            assert not re.search(r"\b(inf|nan)\b", render_lp(model), re.IGNORECASE)

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

    def test_negative_ceiling_rejected(self):
        # An unused arc into the cell would break its LP row eq8.
        ceiling = np.full((3, 4), 20.0)
        ceiling[2, 1] = -5.0
        with pytest.raises(GridError, match=r"^ceiling_m\[2, 1\] must be finite and non-negative"):
            build_env(ceiling=ceiling)

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
        ceiling = np.full((3, 4), 20.0)
        ceiling[2, 3] = -0.0
        assert build_env(ceiling=ceiling.copy()) == build_env(ceiling=np.abs(ceiling))
        # A change to any one array, or to the spec, makes worlds unequal.
        obstacle = np.zeros((3, 4))
        obstacle[1, 2] = 5.0
        ceiling[2, 3] = 15.0
        risk = np.full((3, 4, 3), 0.25)
        risk[0, 1, 2] = 0.5
        for other in (
            build_env(obstacle=obstacle, risk=0.25),
            build_env(ceiling=ceiling, risk=0.25),
            build_env(risk=risk),
            build_env(risk=0.25, start_level=1),
            build_env(risk=0.25, cell_size=12.0),
        ):
            assert other != a and a != other
        assert a != "not a world"

    def test_arrays_frozen(self):
        env = build_env()
        with pytest.raises(ValueError):
            env.obstacle_m[0, 0] = 5.0

    def test_views_are_read_only_and_built_once(self):
        env = build_env()
        assert env.adjacency is env.adjacency
        with pytest.raises(TypeError):
            env.adjacency[(0, 0)] = ()

    def test_pickle_round_trip(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 1] = 10.0
        env = build_env(obstacle=obstacle, risk=0.25)
        copy = pickle.loads(pickle.dumps(env))
        assert copy == env and copy.spec == env.spec
        # The copy takes the move tables of its geometry, as any world does.
        assert copy.adjacency is env.adjacency


class TestSharedMoveTables:
    """Move tables depend only on (rows, cols, cell size): worlds of one
    geometry share them, and nothing read from terrain is shared."""

    def test_one_geometry_shares_one_adjacency(self):
        obstacle = np.zeros((3, 4))
        obstacle[0, 2] = 30.0  # impassable
        a, b = build_env(risk=0.25), build_env(obstacle=obstacle, risk=0.5)
        assert a.adjacency is b.adjacency
        assert a.predecessors((1, 2)) is b.predecessors((1, 2))
        assert a.passable((0, 2)) and not b.passable((0, 2))

    def test_cell_sizes_keep_their_own_distances(self):
        a, b = build_env(cell_size=10.0), build_env(cell_size=12.0)
        assert a.distance((1, 1), (0, 1)) == 10.0
        assert b.distance((1, 1), (0, 1)) == 12.0
        assert a.distance((1, 1), (0, 2)) == 10.0 * math.sqrt(2.0)
        assert b.distance((1, 1), (0, 2)) == 12.0 * math.sqrt(2.0)

    @pytest.mark.parametrize("sizes", [(10, 10.0), (10.0, 10)])
    def test_int_and_float_cell_sizes_keep_their_types(self, sizes):
        # The spec stores 10 as 10.0, so whichever size builds the table
        # first, both worlds share it and every move distance is a float.
        _move_tables.cache_clear()
        a, b = (build_env(cell_size=size) for size in sizes)
        assert a.adjacency is b.adjacency
        for env in (a, b):
            straight, diagonal = env.distance((1, 1), (1, 2)), env.distance((1, 1), (2, 2))
            assert straight == 10.0 and type(straight) is float
            assert diagonal == 10.0 * math.sqrt(2.0) and type(diagonal) is float

    def test_cache_is_bounded(self):
        limit = _move_tables.cache_info().maxsize
        assert limit is not None
        for size in range(1, limit + 2):
            build_env(rows=1, cols=2, cell_size=float(size))
        assert _move_tables.cache_info().currsize == limit


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

    def test_terrain_and_risk(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 2] = [0.1, 0.5, 0.9]
        env = build_env(risk=risk)
        assert env.obstacle_m[1, 2] == 0.0
        assert env.ceiling_m[1, 2] == 20.0
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


def reference_reachable(env):
    """Breadth-first reachability over passable (cell, level) states: the
    search ``has_feasible_path`` replaced, kept as its oracle."""
    start = (env.spec.start_cell, env.spec.start_level)
    goal = env.spec.goal_cell
    seen = {start}
    queue = deque([start])
    while queue:
        cell, _level = queue.popleft()
        if cell == goal:
            return True
        for nxt in env.successors(cell):
            if not env.passable(nxt):
                continue
            lo, hi = env.feasible_levels(nxt)
            for k in range(lo, hi + 1):
                state = (nxt, k)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return False


def walled_world(rows, cols, level_count, start, goal, start_level, obstacle_levels, ceiling_levels):
    """A world whose obstacles and ceilings sit on level altitudes.

    An obstacle level of ``level_count`` lies above the top altitude, and a
    ceiling below the obstacle leaves no feasible level: both make the cell
    impassable. The start and goal are cleared.
    """
    levels = tuple(10.0 * k for k in range(level_count))
    step = np.asarray(levels + (10.0 * level_count,))
    obstacle = step[np.asarray(obstacle_levels).reshape(rows, cols)]
    ceiling = step[np.asarray(ceiling_levels).reshape(rows, cols)]
    for cell in (start, goal):
        obstacle[cell] = 0.0
        ceiling[cell] = levels[-1]
    return build_env(rows=rows, cols=cols, levels=levels, start=start, goal=goal,
                     start_level=start_level, obstacle=obstacle, ceiling=ceiling)


@st.composite
def walled_worlds(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 7))
    level_count = draw(st.integers(1, 4))
    start = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 2)))
    goal = (draw(st.integers(0, rows - 1)), draw(st.integers(start[1] + 1, cols - 1)))
    cells = rows * cols
    return walled_world(
        rows, cols, level_count, start, goal,
        draw(st.integers(0, level_count - 1)),
        draw(st.lists(st.integers(0, level_count), min_size=cells, max_size=cells)),
        draw(st.lists(st.integers(0, level_count - 1), min_size=cells, max_size=cells)),
    )


class TestReachabilityMatchesStateSearch:
    """Cell reachability gives the state search's answer on every world."""

    @settings(max_examples=300, deadline=None)
    @given(walled_worlds())
    def test_random_walls_and_ceilings(self, env):
        assert has_feasible_path(env) == reference_reachable(env)

    def test_both_outcomes_on_seeded_worlds(self):
        rng = np.random.default_rng(2024)
        outcomes = []
        for _ in range(300):
            rows, cols, level_count = int(rng.integers(1, 7)), int(rng.integers(2, 8)), int(rng.integers(1, 5))
            start = (int(rng.integers(rows)), int(rng.integers(cols - 1)))
            goal = (int(rng.integers(rows)), int(rng.integers(start[1] + 1, cols)))
            env = walled_world(
                rows, cols, level_count, start, goal, int(rng.integers(level_count)),
                rng.integers(0, level_count + 1, rows * cols),
                rng.integers(0, level_count, rows * cols),
            )
            outcomes.append(has_feasible_path(env))
            assert outcomes[-1] == reference_reachable(env), env
        assert 30 <= sum(outcomes) <= 270

    def test_generated_worlds(self):
        for _instance, gen_settings, seed in suite_settings(0):
            env = generate(gen_settings, seed)
            assert has_feasible_path(env) and reference_reachable(env)


class TestGeneratorSettingsGrid:
    def test_grid_spec_is_the_generated_spec(self):
        gen_settings = GeneratorSettings(
            rows=3, cols=5, level_count=4, start_cell=(0, 4), goal_cell=(2, 1), start_level=2
        )
        spec = gen_settings.grid_spec()
        assert spec.levels_m == (0.0, 10.0, 20.0, 30.0)
        assert (spec.start_cell, spec.goal_cell, spec.start_level) == ((0, 0), (2, 3), 2)
        assert generate(gen_settings, 0).spec == spec

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"cell_size_m": 1e154}, "cell_size_m"),
            ({"start_level": 3}, "start_level"),
            ({"rows": 0}, "grid"),
            ({"start_cell": (5, 0)}, "start_cell"),
            ({"cell_size_m": math.inf}, "cell_size_m"),
            ({"level_spacing_m": 0.0, "level_count": 2}, "levels_m"),
        ],
    )
    def test_rejected_at_construction(self, overrides, field):
        with pytest.raises(GridError, match=re.escape(field)):
            GeneratorSettings(**{"rows": 3, "cols": 4, **overrides})


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

    def test_infeasible_settings_raise(self, monkeypatch):
        monkeypatch.setattr(environment, "MAX_ROUNDS", 1)
        settings = GeneratorSettings(rows=1, cols=3, level_count=1, obstacle_density=0.99)
        with pytest.raises(GenerationError, match="within 1 rounds"):
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

    @pytest.mark.parametrize(
        "doc, message",
        [({"grid": {"rows": "x"}}, "grid.rows: expected an integer, got str"),
         ([], "expected an object, got list")],
        ids=["field", "top-level"],
    )
    def test_error_starts_with_the_file_path(self, tmp_path, doc, message):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InstanceFormatError) as info:
            load_instance(path)
        assert str(info.value) == f"{path}: {message}"

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
        assert env.risk_at((0, 0)) == (0.25, 0.25)
        assert env.obstacle_m[1, 1] == 10.0
        assert env.risk_at((1, 1)) == (0.9, 0.8)
        assert env.ceiling_m[0, 1] == 10.0


def reference_save_instance(env, path):
    """``save_instance`` as a streaming ``json.dump``: the writer it
    replaced, kept as its oracle."""
    spec = env.spec
    top = spec.levels_m[-1]
    cells = []
    for cell in env.cells():
        r, c = cell
        obstacle, ceiling = float(env.obstacle_m[cell]), float(env.ceiling_m[cell])
        risk = env.risk_at(cell)
        entry = {}
        if obstacle != 0.0:
            entry["obstacle_m"] = obstacle
        if ceiling != top:
            entry["ceiling_m"] = ceiling
        if any(v != 0.0 for v in risk):
            entry["risk"] = list(risk)
        if entry:
            cells.append({"cell": [r, c], **entry})
    doc = {
        "grid": {"rows": spec.rows, "cols": spec.cols, "cell_size_m": spec.cell_size_m},
        "levels_m": list(spec.levels_m),
        "start": {"cell": list(spec.start_cell), "level": spec.start_level},
        "goal": {"cell": list(spec.goal_cell)},
        "default_risk": 0.0,
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class TestInstanceBytesMatchStreamingWriter:
    def test_generated_suite(self, tmp_path):
        for instance, gen_settings, seed in suite_settings(1):
            env = generate(gen_settings, seed)
            ours, ref = tmp_path / f"{instance}.json", tmp_path / f"{instance}.ref.json"
            save_instance(env, ours)
            reference_save_instance(env, ref)
            assert ours.read_bytes() == ref.read_bytes(), instance

    @settings(max_examples=40, deadline=None)
    @given(generated_worlds())
    def test_generated_worlds(self, env):
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_instance(env, ours)
            reference_save_instance(env, ref)
            assert ours.read_bytes() == ref.read_bytes()

    def test_hand_built_worlds(self, tmp_path):
        # Obstacles, lowered ceilings and risk lists (with -0.0, a third and
        # a subnormal), integer altitudes and cell size, and a world that
        # lists no cell at all.
        obstacle = np.zeros((3, 4))
        obstacle[0, 1], obstacle[2, 2] = 10.0, 12.5
        ceiling = np.full((3, 4), 20.0)
        ceiling[0, 2], ceiling[2, 1] = 10.0, 15.0
        risk = np.zeros((3, 4, 3))
        risk[0, 1] = [-0.0, 0.1, 1.0]
        risk[2, 3] = [0.3, -0.0, 2.0**-1074]
        risk[1, 1] = 1.0 / 3.0
        worlds = [
            build_env(obstacle=obstacle, ceiling=ceiling, risk=risk),
            build_env(levels=(0, 10, 20), cell_size=5, obstacle=obstacle, risk=0.5),
            build_env(rows=1, cols=2),
        ]
        for k, env in enumerate(worlds):
            ours, ref = tmp_path / f"{k}.json", tmp_path / f"{k}.ref.json"
            save_instance(env, ours)
            reference_save_instance(env, ref)
            assert ours.read_bytes() == ref.read_bytes(), k

    def test_risk_rows_keep_each_float(self):
        risk = np.zeros((3, 4, 3))
        risk[0, 1] = [-0.0, 0.1, 1.0]
        risk[2, 3] = [0.3, -0.0, 2.0**-1074]
        env = build_env(risk=risk)
        for r, c in env.cells():
            expected = tuple(float(x) for x in env.risk[r, c])
            assert list(map(repr, env.risk_at((r, c)))) == list(map(repr, expected))
            assert all(type(x) is float for x in env.risk_at((r, c)))


class TestInstanceRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(generated_worlds())
    def test_save_load_save_is_byte_identical(self, env):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_instance(env, first)
            loaded = load_instance(first)
            save_instance(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert loaded.spec == env.spec
        for cell in env.cells():
            assert loaded.obstacle_m[cell] == env.obstacle_m[cell]
            assert loaded.ceiling_m[cell] == env.ceiling_m[cell]
            assert loaded.risk_at(cell) == env.risk_at(cell)
