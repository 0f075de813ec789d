"""Chromosome validation, objective evaluation, and normalization."""

import math

import numpy as np
import pytest

from overfly import (
    Chromosome,
    ChromosomeError,
    DroneParams,
    NormBounds,
    ObjectiveVector,
    ValidationReport,
    Violation,
    arc_costs,
    average_density,
    climb_energy,
    combined_points,
    evaluate,
    generate,
    load_instance,
    max_risk_between,
    save_instance,
    segment_energy,
    traversal_energy,
    validate,
)
from overfly.cli import suite_settings

from helpers import build_env

PARAMS = DroneParams()


def violation_rules(report):
    return {v.rule for v in report.violations}


def straight_path(env, levels=None):
    row = env.spec.start_cell[0]
    cells = tuple((row, c) for c in range(env.spec.cols))
    if levels is None:
        levels = (env.spec.start_level,) * len(cells)
    return Chromosome(cells=cells, entry_levels=tuple(levels), weight=0.5)


class TestValidate:
    def test_good_path_passes(self):
        env = build_env()
        report = validate(straight_path(env), env)
        assert report.ok and report.violations == ()

    def test_ok_is_read_from_the_violations(self):
        assert ValidationReport(()).ok
        assert not ValidationReport((Violation("shape", 0, "two cells needed"),)).ok

    def test_shape_mismatch(self):
        env = build_env()
        ch = Chromosome(cells=((1, 0), (1, 1)), entry_levels=(0,), weight=0.5)
        report = validate(ch, env)
        assert not report.ok and violation_rules(report) == {"shape"}

    def test_single_cell_rejected(self):
        env = build_env()
        ch = Chromosome(cells=((1, 0),), entry_levels=(0,), weight=0.5)
        assert violation_rules(validate(ch, env)) == {"shape"}

    def test_weight_out_of_range(self):
        env = build_env()
        ch = Chromosome(straight_path(env).cells, straight_path(env).entry_levels, 1.5)
        assert "weight" in violation_rules(validate(ch, env))

    def test_wrong_endpoints(self):
        env = build_env()
        ch = Chromosome(cells=((0, 0), (0, 1), (0, 2), (0, 3)),
                        entry_levels=(0, 0, 0, 0), weight=0.5)
        assert "endpoints" in violation_rules(validate(ch, env))

    def test_wrong_start_level(self):
        env = build_env()
        good = straight_path(env)
        ch = Chromosome(good.cells, (1,) + good.entry_levels[1:], 0.5)
        assert "start-level" in violation_rules(validate(ch, env))

    def test_out_of_bounds_cell(self):
        env = build_env()
        ch = Chromosome(cells=((1, 0), (9, 9), (1, 3)), entry_levels=(0, 0, 0), weight=0.5)
        assert "cell-bounds" in violation_rules(validate(ch, env))

    def test_revisit(self):
        env = build_env()
        ch = Chromosome(
            cells=((1, 0), (0, 0), (1, 0), (1, 1), (1, 2), (1, 3)),
            entry_levels=(0,) * 6,
            weight=0.5,
        )
        assert "revisit" in violation_rules(validate(ch, env))

    def test_westward_move_is_illegal(self):
        env = build_env()
        ch = Chromosome(
            cells=((1, 0), (1, 1), (1, 0), (1, 1), (1, 2), (1, 3)),
            entry_levels=(0,) * 6,
            weight=0.5,
        )
        rules = violation_rules(validate(ch, env))
        assert "adjacency" in rules and "revisit" in rules

    def test_level_out_of_range(self):
        env = build_env()
        good = straight_path(env)
        ch = Chromosome(good.cells, good.entry_levels[:-1] + (7,), 0.5)
        assert "level-range" in violation_rules(validate(ch, env))

    def test_obstacle_clearance(self):
        obstacle = np.zeros((3, 4))
        obstacle[1, 2] = 15.0
        env = build_env(obstacle=obstacle)
        ch = straight_path(env)  # flies at 0 m through a 15 m obstacle
        report = validate(ch, env)
        assert "obstacle-clearance" in violation_rules(report)
        ok = Chromosome(ch.cells, (0, 0, 2, 2), 0.5)
        assert validate(ok, env).ok

    def test_ceiling(self):
        ceiling = np.full((3, 4), 20.0)
        ceiling[1, 2] = 0.0
        env = build_env(ceiling=ceiling)
        ch = Chromosome(straight_path(env).cells, (0, 0, 1, 1), 0.5)
        assert "ceiling" in violation_rules(validate(ch, env))

    def test_violation_carries_index_and_detail(self):
        env = build_env()
        ch = Chromosome(
            cells=((1, 0), (1, 1), (1, 1), (1, 2), (1, 3)),
            entry_levels=(0,) * 5,
            weight=0.5,
        )
        report = validate(ch, env)
        revisits = [v for v in report.violations if v.rule == "revisit"]
        assert revisits and revisits[0].index == 2 and "(1, 1)" in revisits[0].detail


class TestMaxRiskBetween:
    def test_band_maximum_and_level(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 1] = [0.1, 0.9, 0.3]
        env = build_env(risk=risk)
        assert max_risk_between(env, (1, 1), 0, 2) == (0.9, 1)
        assert max_risk_between(env, (1, 1), 2, 2) == (0.3, 2)
        assert max_risk_between(env, (1, 1), 0, 0) == (0.1, 0)

    def test_symmetric_in_levels(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 1] = [0.2, 0.8, 0.5]
        env = build_env(risk=risk)
        assert max_risk_between(env, (1, 1), 0, 2) == max_risk_between(env, (1, 1), 2, 0)

    def test_tie_takes_lowest_level(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 1] = [0.7, 0.7, 0.1]
        env = build_env(risk=risk)
        assert max_risk_between(env, (1, 1), 0, 2) == (0.7, 0)


class TestRecords:
    def test_records_are_tuples_of_their_fields(self):
        env = build_env()
        ch = straight_path(env)
        vec = evaluate(ch, env, PARAMS)
        assert vec == vec.as_tuple() and type(vec.as_tuple()) is tuple
        fields = (ch.cells, ch.entry_levels, ch.weight)
        assert ch == fields and hash(ch) == hash(fields)
        assert repr(ch) == (
            f"Chromosome(cells={ch.cells!r}, entry_levels={ch.entry_levels!r}, weight=0.5)"
        )


class TestEvaluate:
    def test_triangle_length(self):
        # One eastward move of 30 m climbing 40 m: length 50 m exactly.
        env = build_env(rows=1, cols=2, levels=(0.0, 40.0), cell_size=30.0,
                        start=(0, 0), goal=(0, 1))
        ch = Chromosome(cells=((0, 0), (0, 1)), entry_levels=(0, 1), weight=0.5)
        vec = evaluate(ch, env, PARAMS)
        assert vec.length_m == pytest.approx(50.0, rel=1e-15)

    def test_energy_matches_segment_formula(self):
        env = build_env(rows=1, cols=2, levels=(0.0, 40.0), cell_size=30.0,
                        start=(0, 0), goal=(0, 1))
        ch = Chromosome(cells=((0, 0), (0, 1)), entry_levels=(0, 1), weight=0.5)
        rho = average_density(0.0, 40.0, PARAMS)
        assert evaluate(ch, env, PARAMS).energy_j == segment_energy(30.0, 40.0, rho, PARAMS)

    def test_risk_uses_departing_cell_band(self):
        risk = np.zeros((3, 4, 3))
        risk[1, 0] = [0.1, 0.8, 0.2]  # start cell
        risk[1, 1] = [0.05, 0.05, 0.6]
        risk[1, 2] = [0.3, 0.0, 0.0]
        env = build_env(risk=risk)
        # climb 0 -> 2 on the first move, stay, then descend to 0.
        ch = Chromosome(
            cells=((1, 0), (1, 1), (1, 2), (1, 3)),
            entry_levels=(0, 2, 2, 0),
            weight=0.5,
        )
        vec = evaluate(ch, env, PARAMS)
        # segment risks: max(r[1,0][0..2])=0.8, r[1,1][2]=0.6, max(r[1,2][0..2])=0.3
        assert vec.risk == pytest.approx(0.8 + 0.6 + 0.3, rel=1e-15)

    def test_totals_are_segment_sums(self):
        env = build_env(risk=np.full((3, 4, 3), 0.2))
        ch = Chromosome(
            cells=((1, 0), (0, 1), (1, 2), (1, 3)),
            entry_levels=(0, 1, 2, 1),
            weight=0.5,
        )
        costs = arc_costs(env, PARAMS)
        steps = list(zip(ch.cells, ch.cells[1:], ch.entry_levels, ch.entry_levels[1:]))
        arcs = [costs.geometry[env.distance(a, b)][la][lb] for a, b, la, lb in steps]
        vec = evaluate(ch, env, PARAMS)
        assert vec.length_m == pytest.approx(sum(arc[0] for arc in arcs), rel=1e-15)
        assert vec.energy_j == pytest.approx(sum(arc[1] for arc in arcs), rel=1e-15)
        assert vec.risk == pytest.approx(sum(costs.risk[a][la][lb] for a, _b, la, lb in steps), rel=1e-15)

    def test_diagonal_moves_use_diagonal_ground_distance(self):
        env = build_env()
        ch = Chromosome(cells=((1, 0), (0, 1), (1, 2), (1, 3)),
                        entry_levels=(0, 0, 0, 0), weight=0.5)
        vec = evaluate(ch, env, PARAMS)
        assert vec.length_m == pytest.approx(2 * 10 * math.sqrt(2) + 10, rel=1e-15)

    def test_invalid_candidate_raises(self):
        env = build_env()
        ch = Chromosome(cells=((1, 0), (1, 2), (1, 3)), entry_levels=(0, 0, 0), weight=0.5)
        with pytest.raises(ChromosomeError, match="adjacency"):
            evaluate(ch, env, PARAMS)

    def test_segment_term_fields(self):
        env = build_env()  # levels 0, 10 and 20 m; 10 m cells
        edge = arc_costs(env, PARAMS).geometry[10.0]
        up, down, flat = edge[0][2], edge[2][1], edge[1][1]  # climb 20, descend 10, hold
        assert up[0] == math.sqrt(10.0**2 + 20.0**2) and flat[0] == 10.0
        assert up[1] == up[2] + climb_energy(20.0, PARAMS)  # segment = traversal + climb
        assert down[1] == down[2] and flat[1] == flat[2]  # descending adds nothing back


class TestNormBounds:
    def test_from_vectors(self):
        vecs = [ObjectiveVector(1.0, 10.0, 0.0), ObjectiveVector(3.0, 4.0, 0.0)]
        b = NormBounds.from_vectors(vecs)
        assert (b.length_lo, b.length_hi) == (1.0, 3.0)
        assert (b.energy_lo, b.energy_hi) == (4.0, 10.0)

    # Weight 1 keeps only the normalized length in the cost, weight 0 only
    # the normalized energy.
    def test_normalization_and_clamping(self):
        b = NormBounds(length_lo=10.0, length_hi=20.0, energy_lo=0.0, energy_hi=100.0)
        lengths = combined_points([(15.0, 0.0, 0.0), (5.0, 0.0, 0.0), (25.0, 0.0, 0.0)], 1.0, b)
        assert lengths[:, 0].tolist() == [0.5, 0.0, 1.0]
        assert combined_points((0.0, 100.0, 0.0), 0.0, b)[0, 0] == 1.0

    def test_degenerate_normalizes_to_zero(self):
        b = NormBounds(length_lo=5.0, length_hi=5.0, energy_lo=1.0, energy_hi=2.0)
        assert b.degenerate_length and not b.degenerate_energy
        lengths = combined_points([(5.0, 1.0, 0.0), (99.0, 1.0, 0.0)], 1.0, b)
        assert lengths[:, 0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((math.nan, 1.0, 0.0, 1.0), "length_lo must be finite, got nan"),
            ((0.0, math.inf, 0.0, 1.0), "length_hi must be finite, got inf"),
            ((0.0, 1.0, -math.inf, 1.0), "energy_lo must be finite, got -inf"),
            ((0.0, 1.0, 0.0, math.nan), "energy_hi must be finite, got nan"),
            ((100.0, 50.0, 0.0, 10.0), "length_hi must be >= length_lo (100.0), got 50.0"),
            ((0.0, 1.0, 2.0, 1.5), "energy_hi must be >= energy_lo (2.0), got 1.5"),
        ],
    )
    def test_rejects_non_finite_or_inverted_bounds(self, bounds, message):
        with pytest.raises(ValueError) as excinfo:
            NormBounds(*bounds)
        assert str(excinfo.value) == message

    def test_numbers_are_stored_as_python_floats(self):
        b = NormBounds(np.float64(1.0), 2, np.float32(0.5), 4.0)
        assert b == NormBounds(1.0, 2.0, 0.5, 4.0)
        assert {type(x) for x in (b.length_lo, b.length_hi, b.energy_lo, b.energy_hi)} == {float}

    def test_non_number_names_its_field(self):
        with pytest.raises(ValueError, match="^energy_hi must be finite, got '4'$"):
            NormBounds(0.0, 1.0, 0.0, "4")

    def test_merge_widens(self):
        a = NormBounds(0.0, 10.0, 5.0, 6.0)
        b = NormBounds(2.0, 12.0, 1.0, 5.5)
        m = a.merge(b)
        assert (m.length_lo, m.length_hi, m.energy_lo, m.energy_hi) == (0.0, 12.0, 1.0, 6.0)


class TestCombine:
    def test_weighted_blend_oracle(self):
        # norm length 0.4, norm energy 0.8, weight 0.25 -> 0.1 + 0.6 = 0.7
        b = NormBounds(0.0, 1.0, 0.0, 1.0)
        cost, risk = combined_points(ObjectiveVector(0.4, 0.8, 0.55).as_tuple(), 0.25, b)[0]
        assert cost == pytest.approx(0.7, rel=1e-15)
        assert risk == 0.55

    def test_weight_extremes(self):
        b = NormBounds(0.0, 1.0, 0.0, 1.0)
        vec = ObjectiveVector(0.3, 0.9, 0.0).as_tuple()
        assert combined_points(vec, 1.0, b)[0, 0] == pytest.approx(0.3)
        assert combined_points(vec, 0.0, b)[0, 0] == pytest.approx(0.9)

    def test_as_tuple(self):
        b = NormBounds(0.0, 1.0, 0.0, 1.0)
        cost, risk = combined_points(ObjectiveVector(0.5, 0.5, 0.2).as_tuple(), 0.5, b)[0]
        assert ObjectiveVector(0.5, 0.5, 0.2).as_tuple() == (0.5, 0.5, 0.2)
        assert (float(cost), float(risk)) == (0.5, 0.2)


class TestArcCosts:
    def test_entries_equal_the_terms_they_replace(self):
        # Every world of one generated suite, T1 (4x4x3) to T5 (12x12x5).
        for _id, settings, seed in suite_settings(0):
            env = generate(settings, seed)
            costs = arc_costs(env, PARAMS)
            levels = env.spec.levels_m
            ks = range(env.spec.level_count)
            cell, diag = env.spec.cell_size_m, env.distance((0, 0), (1, 1))
            assert sorted(costs.geometry) == [cell, diag]
            for d, rows in costs.geometry.items():
                for la in ks:
                    for lb in ks:
                        climb = levels[lb] - levels[la]
                        rho = average_density(levels[la], levels[lb], PARAMS)
                        assert rows[la][lb] == (
                            math.sqrt(d * d + climb * climb),
                            segment_energy(d, climb, rho, PARAMS),
                            traversal_energy(d, climb, rho, PARAMS),
                        )
            assert sorted(costs.risk) == sorted(env.cells())
            for c in env.cells():
                for la in ks:
                    for lb in ks:
                        assert costs.risk[c][la][lb] == max_risk_between(env, c, la, lb)[0]

    def test_one_table_per_world_and_drone(self, tmp_path):
        env = build_env(risk=0.3)
        save_instance(env, tmp_path / "w.json")
        loaded = load_instance(tmp_path / "w.json")
        assert loaded is not env and loaded == env and hash(loaded) == hash(env)
        assert arc_costs(loaded, PARAMS) is arc_costs(env, PARAMS)
        assert arc_costs(env, DroneParams(speed_mps=5.0)) is not arc_costs(env, PARAMS)
