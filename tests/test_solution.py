"""Chromosome validation, objective evaluation, and normalization."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

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
from overfly.operators import BlockDraws, OperatorStats, initialize

from helpers import build_env, generated_worlds, reference_validate

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


RULES = (
    "shape", "weight", "endpoints", "start-level", "cell-bounds", "revisit",
    "adjacency", "level-range", "obstacle-clearance", "ceiling",
)


def corrupt(data, env, cells, levels, weight, rule):
    """Break ``rule`` in the lists ``cells`` and ``levels`` (in place) and
    return the weight, drawing from hypothesis ``data``. Later rules may
    hide earlier ones (a shape fault ends the check) or undo them."""
    spec, n = env.spec, len(cells)
    grid = sorted(env.adjacency)
    if rule == "shape":
        if levels and data.draw(st.booleans()):
            levels.pop()
        else:
            del cells[1:], levels[1:]
    elif rule == "weight":
        weight = data.draw(st.sampled_from((math.nan, -0.25, 1.5, math.inf, -math.inf)))
    elif rule == "endpoints" and n:
        t = data.draw(st.sampled_from((0, n - 1)))
        cells[t] = data.draw(st.sampled_from([c for c in grid if c != cells[t]]))
    elif rule == "start-level" and levels:
        levels[0] = data.draw(st.sampled_from([k for k in range(-2, spec.level_count + 2) if k != levels[0]]))
    elif rule == "cell-bounds" and n:
        row = data.draw(st.integers(-3, spec.rows + 2))
        off_cols = [-2, -1, spec.cols, spec.cols + 1]
        col = data.draw(st.sampled_from(off_cols) if 0 <= row < spec.rows else st.integers(-3, spec.cols + 2))
        cells[data.draw(st.integers(0, n - 1))] = (row, col)
    elif rule == "revisit" and n:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n))
        cells.insert(j, cells[i])
        levels.insert(j, levels[i] if i < len(levels) else 0)
    elif rule == "adjacency" and n > 1:
        t = data.draw(st.integers(1, n - 1))
        moves = env.adjacency.get(cells[t - 1], ())
        cells[t] = data.draw(st.sampled_from([c for c in grid if c not in moves]))
    elif rule == "level-range" and levels:
        t = data.draw(st.integers(0, len(levels) - 1))
        levels[t] = data.draw(st.sampled_from((-1, -5, spec.level_count, spec.level_count + 3)))
    elif rule in ("obstacle-clearance", "ceiling") and len(levels) > 1:
        # Below the band of a cell with an obstacle, or above the band of a
        # cell with a low ceiling; any level when the route has neither.
        top = spec.level_count - 1
        below = rule == "obstacle-clearance"
        spots = [
            (t, band)
            for t, band in ((t, env.bands.get(cells[t])) for t in range(1, min(n, len(levels))))
            if band is not None and (band[0] > 0 if below else band[1] < top)
        ]
        if spots:
            t, (lo, hi) = data.draw(st.sampled_from(spots))
            levels[t] = data.draw(st.integers(0, lo - 1) if below else st.integers(hi + 1, top))
        else:
            levels[data.draw(st.integers(1, len(levels) - 1))] = data.draw(st.integers(0, top))
    return weight


class TestValidateMatchesReference:
    """The one-pass validate gives the reference's report, violation for
    violation, on integer genes."""

    @pytest.mark.parametrize("rule", ("none",) + RULES)
    @settings(max_examples=100, deadline=None)
    @given(env=generated_worlds(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_corrupted_routes(self, rule, env, seed, data):
        # ``rule`` first, then up to three more rules broken at once.
        ch = initialize(env, BlockDraws(seed), OperatorStats())
        cells, levels, weight = list(ch.cells), list(ch.entry_levels), ch.weight
        more = data.draw(st.lists(st.sampled_from(RULES), max_size=3)) if rule != "none" else []
        for broken in [rule, *more]:
            weight = corrupt(data, env, cells, levels, weight, broken)
        if data.draw(st.booleans()):  # numpy integers read as today
            cells = [(np.int64(r), np.int64(c)) for r, c in cells]
            levels = [np.int64(k) for k in levels]
        bad = Chromosome(tuple(cells), tuple(levels), weight)
        report = validate(bad, env)
        for rule in sorted({v.rule for v in report.violations}) or ["valid"]:
            event(rule)
        assert report == reference_validate(bad, env)

    @pytest.mark.parametrize("rule", RULES)
    def test_each_rule_on_hand_built_world(self, rule):
        # Obstacles at (0, 1) and (1, 2), low ceilings at (1, 1) and (2, 2):
        # every rule can be broken on the straight middle row.
        obstacle = np.zeros((3, 4))
        obstacle[0, 1], obstacle[1, 2] = 15.0, 5.0
        ceiling = np.full((3, 4), 20.0)
        ceiling[1, 1], ceiling[2, 2] = 10.0, 0.0
        env = build_env(obstacle=obstacle, ceiling=ceiling)

        @given(data=st.data())
        @settings(max_examples=60, deadline=None)
        def check(data):
            cells, levels = [(1, 0), (1, 1), (1, 2), (1, 3)], [0, 1, 1, 0]
            weight = corrupt(data, env, cells, levels, 0.5, rule)
            bad = Chromosome(tuple(cells), tuple(levels), weight)
            report = validate(bad, env)
            assert report == reference_validate(bad, env)
            assert rule in {v.rule for v in report.violations}

        check()

    def test_valid_routes_share_one_report(self):
        env = build_env()
        a, b = validate(straight_path(env), env), validate(straight_path(env, (0, 1, 2, 0)), env)
        assert a.ok and a is b


class TestMalformedGenes:
    """validate reports genes of the wrong kind, and evaluate then raises
    ChromosomeError, never a TypeError."""

    CASES = {
        "float-level": ("level-range", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 1.0, 0, 0), 0.5),
        "half-level": ("level-range", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 0, 0.5, 0), 0.5),
        "float-first-level": ("level-range", ((1, 0), (1, 1), (1, 2), (1, 3)), (0.0, 0, 0, 0), 0.5),
        "string-level": ("level-range", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, "1", 0, 0), 0.5),
        "numpy-bool-level": ("level-range", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, np.True_, 0, 0), 0.5),
        "list-cell": ("cell-bounds", ((1, 0), [1, 1], (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "list-first-cell": ("cell-bounds", ([1, 0], (1, 1), (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "half-cell": ("cell-bounds", ((1, 0), (1.5, 1), (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "triple-cell": ("cell-bounds", ((1, 0), (1, 1, 0), (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "array-cell": ("cell-bounds", ((1, 0), np.array([1, 1]), (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "none-cell": ("cell-bounds", ((1, 0), None, (1, 2), (1, 3)), (0, 0, 0, 0), 0.5),
        "string-weight": ("weight", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 0, 0, 0), "0.5"),
        "none-weight": ("weight", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 0, 0, 0), None),
        "array-weight": ("weight", ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 0, 0, 0), np.array([0.5, 0.5])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reported_not_raised(self, case):
        rule, cells, levels, weight = self.CASES[case]
        env = build_env()
        report = validate(Chromosome(cells, levels, weight), env)
        assert rule in {v.rule for v in report.violations}
        with pytest.raises(ChromosomeError):
            evaluate(Chromosome(cells, levels, weight), env, PARAMS)

    def test_messages_name_the_gene(self):
        env = build_env()
        cells = ((1, 0), [1, 1], (1, 2), (1, 3))
        (bad_cell,) = validate(Chromosome(cells, (0, 0, 0, 0), 0.5), env).violations
        assert bad_cell == Violation("cell-bounds", 1, "cell [1, 1] is not a pair of integers")
        report = validate(Chromosome(straight_path(env).cells, (0, 1.0, 0, 0), "heavy"), env)
        assert report.violations == (
            Violation("weight", 0, "weight 'heavy' is not a number"),
            Violation("level-range", 1, "entry level 1.0 is not an integer"),
        )

    def test_gene_equal_to_a_grid_pair_is_that_cell(self):
        # A cell is a key of the world's tables, so any pair equal to an
        # on-grid (row, col) is that cell; only its wording keeps the gene.
        obstacle = np.zeros((3, 4))
        obstacle[1, 1] = 15.0
        env = build_env(obstacle=obstacle)
        want = evaluate(Chromosome(((1, 0), (1, 1), (1, 2), (1, 3)), (0, 2, 0, 0), 0.5), env, PARAMS)
        for gene in ((1.0, 1), (np.float64(1), 1), (1 + 0j, 1)):
            cells = ((1, 0), gene, (1, 2), (1, 3))
            below = validate(Chromosome(cells, (0, 0, 0, 0), 0.5), env).violations
            assert below == (Violation("obstacle-clearance", 1, f"entering {gene} at 0.0 m, below its 15.0 m obstacle"),)
            assert evaluate(Chromosome(cells, (0, 2, 0, 0), 0.5), env, PARAMS) == want

    def test_numpy_integers_and_bools_read_as_integers(self):
        env = build_env()
        cells, levels = ((1, 0), (1, 1), (1, 2), (1, 3)), (0, 1, 2, 1)
        want = evaluate(Chromosome(cells, levels, 0.5), env, PARAMS)
        numpy_cells = tuple((np.int64(r), np.int32(c)) for r, c in cells)
        for genes in (
            Chromosome(numpy_cells, tuple(map(np.int64, levels)), 0.5),
            Chromosome(cells, (False, True, 2, True), True),
        ):
            assert validate(genes, env).ok and validate(genes, env) == reference_validate(genes, env)
            assert evaluate(genes, env, PARAMS) == want


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

    def test_evaluate_reads_the_table_of_its_own_world_and_drone(self):
        # evaluate remembers the last pair's table; switching the world or
        # the drone between calls must switch the table too.
        calm, risky = build_env(), build_env(risk=0.3)
        slow = DroneParams(speed_mps=5.0)
        ch = straight_path(calm, (0, 1, 2, 0))
        arcs = list(zip(ch.cells, ch.cells[1:], ch.entry_levels, ch.entry_levels[1:]))
        for env, params in [(calm, PARAMS), (risky, PARAMS), (risky, slow), (calm, slow), (calm, PARAMS)]:
            costs = arc_costs(env, params)
            length, energy = (sum(costs.geometry[env.distance(a, b)][la][lb][i] for a, b, la, lb in arcs) for i in (0, 1))
            risk = sum(costs.risk[a][la][lb] for a, b, la, lb in arcs)
            assert evaluate(ch, env, params) == (length, energy, risk)
