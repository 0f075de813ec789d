"""Integer-program construction, LP text rendering, and substitution checks."""

import math
import re

import numpy as np
import pytest

from overfly import (
    Chromosome,
    DroneParams,
    EnumerationLimitError,
    NormBounds,
    assignment_values,
    build_model,
    combined_points,
    corruption_suite,
    default_big_m,
    enumerate_front,
    evaluate,
    export_lp,
    generate,
    GeneratorSettings,
    iter_assignments,
    mutation_test,
    objective_value,
    render_lp,
    substitute,
    validate,
)
from overfly.cli import suite_settings
from overfly.milp import LpRow, MilpModel

from helpers import all_simple_paths, build_env

PARAMS = DroneParams()


def tiny_env():
    obstacle = np.zeros((2, 3))
    obstacle[1, 1] = 10.0  # forces the top level through the south-middle cell
    risk = np.zeros((2, 3, 2))
    risk[:, :, 0] = 0.4
    risk[:, :, 1] = 0.2
    risk[1, 1, 1] = 0.9
    return build_env(
        rows=2, cols=3, levels=(0.0, 10.0), start=(0, 0), goal=(0, 2),
        obstacle=obstacle, risk=risk,
    )


def parse_lp(text):
    """Minimal reader for the rendered LP dialect; understands comments,
    wrapped lines, Minimize, Subject To, Bounds, Binaries, End."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("\\")]
    section = None
    entries = {"objective": None, "rows": [], "free": set(), "binaries": set()}
    buffer = []

    def flush():
        if not buffer:
            return
        joined = " ".join(part.strip() for part in buffer)
        buffer.clear()
        if section == "bounds":
            name, kind = joined.split()
            assert kind == "free"
            entries["free"].add(name)
            return
        if section == "binaries":
            entries["binaries"].update(joined.split())
            return
        name, rest = joined.split(":", 1)
        tokens = rest.split()
        sense = None
        rhs = None
        for idx, tok in enumerate(tokens):
            if tok in ("<=", ">=", "="):
                sense = tok
                rhs = float(tokens[idx + 1])
                tokens = tokens[:idx]
                break
        terms = []
        sign = 1.0
        it = iter(tokens)
        for tok in it:
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                terms.append((sign * float(tok), next(it)))
                sign = 1.0
        if section == "minimize":
            entries["objective"] = (name.strip(), terms)
        else:
            entries["rows"].append((name.strip(), terms, sense, rhs))

    for ln in lines:
        if ln in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            flush()
            section = {"Minimize": "minimize", "Subject To": "rows",
                       "Bounds": "bounds", "Binaries": "binaries", "End": None}[ln]
            continue
        if not ln.strip():
            continue
        if section == "binaries":
            buffer.append(ln)
            flush()
            continue
        if ln.startswith("      "):  # continuation indent
            buffer.append(ln)
        else:
            flush()
            buffer.append(ln)
    flush()
    return entries


class TestBuildModel:
    def test_family_inventory(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        expected = {
            "eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "eq9", "eq11",
            "eq12", "eq13", "add_ub", "eq15", "eq16", "eq17", "eq18",
            "eq19", "eq20", "eq21", "eq22", "eq23",
        }
        assert set(model.families()) == expected

    def test_variable_kinds(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        kinds = {v.name: v.kind for v in model.variables}
        assert all(kinds[n] == "binary" for n in kinds if n.startswith(("x_", "u_", "y_", "yp_")))
        assert all(kinds[n] == "free" for n in kinds if n.startswith("d_") and not n.startswith("dp") and not n.startswith("dm"))
        assert all(kinds[n] == "nonneg" for n in kinds if n.startswith(("dp_", "dm_", "pp_", "pm_")))

    def test_no_empty_rows_and_no_zero_coefficients(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        for row in model.rows:
            assert row.coeffs
            for coeff, _name in row.coeffs:
                assert coeff != 0.0

    def test_big_m_default_and_override(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        assert model.big_m == default_big_m(env)
        bigger = build_model(env, PARAMS, "z1", big_m=99.0)
        assert bigger.big_m == 99.0

    def test_big_m_too_small_rejected(self):
        env = tiny_env()
        with pytest.raises(ValueError):
            build_model(env, PARAMS, "z1", big_m=1.0)

    def test_invalid_objective_rejected(self):
        env = tiny_env()
        with pytest.raises(ValueError):
            build_model(env, PARAMS, "z9")

    def test_weighted_needs_bounds(self):
        env = tiny_env()
        with pytest.raises(ValueError):
            build_model(env, PARAMS, "weighted")

    def test_epsilon_needs_risk_cap(self):
        env = tiny_env()
        with pytest.raises(ValueError):
            build_model(env, PARAMS, "epsilon")

    def test_size_guard(self):
        env = build_env(rows=6, cols=6)
        with pytest.raises(EnumerationLimitError):
            build_model(env, PARAMS, "z1")

    def test_empty_row_constructor_rejected(self):
        with pytest.raises(ValueError):
            LpRow(name="r", family="f", coeffs=(), sense="<=", rhs=0.0)


class TestSubstitution:
    def test_every_assignment_satisfies_every_row(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        checked = 0
        for cells in all_simple_paths(env):
            for levels in iter_assignments(env, cells):
                values = assignment_values(model, env, cells, levels)
                report = substitute(model, values)
                assert report.ok, [c.name for c in report.failures()][:3]
                checked += 1
        assert checked >= 4

    def test_objective_matches_path_length(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        for m in enumerate_front(env, PARAMS).members:
            values = assignment_values(model, env, m.cells, m.entry_levels)
            z1 = objective_value(model, values)
            assert abs(z1 - m.objectives.length_m) <= 1e-9 * max(1.0, z1)

    def test_missing_variable_rejected(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        with pytest.raises(ValueError, match="missing"):
            substitute(model, {})

    def test_doubling_big_m_changes_nothing(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        doubled = build_model(env, PARAMS, "z1", big_m=2.0 * model.big_m)
        for cells in all_simple_paths(env):
            for levels in iter_assignments(env, cells):
                values = assignment_values(model, env, cells, levels)
                assert substitute(model, values).ok
                assert substitute(doubled, values).ok
                assert objective_value(model, values) == objective_value(doubled, values)

    def test_report_slack_signs(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        cells = all_simple_paths(env)[0]
        levels = next(iter(iter_assignments(env, cells)))
        values = assignment_values(model, env, cells, levels)
        report = substitute(model, values)
        assert all(c.slack >= 0.0 for c in report.checks)
        assert {c.sense for c in report.checks} <= {"<=", ">=", "="}


class TestCorruptions:
    def test_every_row_violated_by_its_corruption(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        m = enumerate_front(env, PARAMS).members[0]
        base = assignment_values(model, env, m.cells, m.entry_levels)
        suite = corruption_suite(model, base)
        assert len(suite) == len(model.rows)
        for corruption in suite:
            report = substitute(model, corruption.values)
            assert any(c.name == corruption.row_name for c in report.failures()), corruption.row_name

    def test_mutation_test_covers_all_families(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        m = enumerate_front(env, PARAMS).members[0]
        base = assignment_values(model, env, m.cells, m.entry_levels)
        caught = mutation_test(model, base)
        assert set(caught) == set(model.families())
        assert all(caught.values())

    def test_mutation_test_requires_feasible_base(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        bad = {v.name: 0.0 for v in model.variables}
        with pytest.raises(ValueError):
            mutation_test(model, bad)


class TestObjectiveVariants:
    def test_weighted_blend(self):
        env = tiny_env()
        exact = enumerate_front(env, PARAMS)
        vectors = [m.objectives for m in exact.members]
        bounds = NormBounds.from_vectors(vectors)
        if bounds.degenerate_length or bounds.degenerate_energy:
            pytest.skip("tiny world collapsed an objective")
        weight = 0.3
        model = build_model(env, PARAMS, "weighted", weight=weight, bounds=bounds)
        len_lo, len_hi = bounds.length_lo, bounds.length_hi
        en_lo, en_hi = bounds.energy_lo, bounds.energy_hi
        dropped = weight * len_lo / (len_hi - len_lo) + (1 - weight) * en_lo / (en_hi - en_lo)
        for m in exact.members:
            values = assignment_values(model, env, m.cells, m.entry_levels)
            got = objective_value(model, values)
            want = combined_points(m.objectives.as_tuple(), weight, bounds)[0, 0] + dropped
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_terms_agree_with_evaluate_on_exact_members(self):
        # Weight 1 (0) over unit bounds leaves the length (energy) coefficients
        # as the objective; the risk_cap row carries the risk coefficients.
        unit = NormBounds(0.0, 1.0, 0.0, 1.0)
        for _id, settings, seed in suite_settings(0)[:4]:  # the T1 worlds
            env = generate(settings, seed)
            models = [
                build_model(env, PARAMS, "weighted", weight=1.0, bounds=unit),
                build_model(env, PARAMS, "weighted", weight=0.0, bounds=unit),
            ]
            epsilon = build_model(env, PARAMS, "epsilon", risk_cap=100.0)
            cap_row = [r for r in epsilon.rows if r.family == "risk_cap"][0]
            for m in enumerate_front(env, PARAMS).members:
                assert evaluate(m.chromosome(), env, PARAMS) == m.objectives
                length, energy = (
                    objective_value(model, assignment_values(model, env, m.cells, m.entry_levels))
                    for model in models
                )
                values = assignment_values(epsilon, env, m.cells, m.entry_levels)
                risk = math.fsum(c * values[n] for n, c in cap_row.coeffs)
                for got, want in zip((length, energy, risk), m.objectives.as_tuple()):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_epsilon_adds_risk_cap_row(self):
        env = tiny_env()
        cap = 1.25
        model = build_model(env, PARAMS, "epsilon", risk_cap=cap)
        rows = [r for r in model.rows if r.family == "risk_cap"]
        assert len(rows) == 1
        assert rows[0].sense == "<=" and rows[0].rhs == cap
        z1 = build_model(env, PARAMS, "z1")
        assert model.objective == z1.objective

    def test_epsilon_cap_row_scores_risk(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "epsilon", risk_cap=10.0)
        cap_row = [r for r in model.rows if r.family == "risk_cap"][0]
        for m in enumerate_front(env, PARAMS).members:
            values = assignment_values(model, env, m.cells, m.entry_levels)
            lhs = math.fsum(c * values[n] for n, c in cap_row.coeffs)
            assert abs(lhs - m.objectives.risk) <= 1e-9 * max(1.0, m.objectives.risk)


class TestRenderedText:
    def test_sections_present_in_order(self):
        env = tiny_env()
        text = render_lp(build_model(env, PARAMS, "z1"))
        positions = [text.index(s) for s in ("Minimize", "Subject To", "Bounds", "Binaries", "End")]
        assert positions == sorted(positions)
        assert text.endswith("End\n")

    def test_line_width_bounded(self):
        env = tiny_env()
        text = render_lp(build_model(env, PARAMS, "z1"))
        for ln in text.splitlines():
            if not ln.startswith("\\"):
                assert len(ln) <= 80

    def test_round_trip_against_model(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        parsed = parse_lp(render_lp(model))

        assert len(parsed["rows"]) == len(model.rows)
        model_binaries = {v.name for v in model.variables if v.kind == "binary"}
        model_free = {v.name for v in model.variables if v.kind == "free"}
        assert parsed["binaries"] == model_binaries
        assert parsed["free"] == model_free

        by_name = {r.name: r for r in model.rows}
        for name, terms, sense, rhs in parsed["rows"]:
            row = by_name[name]
            assert sense == row.sense
            assert rhs == row.rhs  # repr round-trips floats exactly
            assert dict((n, c) for c, n in terms) == dict(row.coeffs)

        obj_name, obj_terms = parsed["objective"]
        assert obj_name == "obj"
        assert dict((n, c) for c, n in obj_terms) == dict(model.objective)

    def test_parsed_rows_score_assignments_identically(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        parsed = parse_lp(render_lp(model))
        cells = all_simple_paths(env)[0]
        levels = next(iter(iter_assignments(env, cells)))
        values = assignment_values(model, env, cells, levels)
        for name, terms, sense, rhs in parsed["rows"]:
            lhs = math.fsum(c * values[n] for c, n in terms)
            if sense == "<=":
                assert lhs <= rhs + 1e-9
            elif sense == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert abs(lhs - rhs) <= 1e-9

    def test_export_lp_convenience(self):
        env = tiny_env()
        assert export_lp(env, PARAMS, "z1") == render_lp(build_model(env, PARAMS, "z1"))


class TestAssignmentValues:
    def test_unused_arc_convention(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        cells = ((0, 0), (0, 1), (0, 2))
        levels = (0, 0, 0)
        values = assignment_values(model, env, cells, levels)
        # used arcs carry y=1 except descents; unused arcs keep y=1, yp=0
        used = {("r0c0", "r0c1"), ("r0c1", "r0c2")}
        for v in model.variables:
            if v.name.startswith("y_"):
                _, a, b = v.name.split("_")
                if (a, b) not in used:
                    assert values[v.name] == 1.0
                    assert values["yp_" + a + "_" + b] == 0.0

    def test_climb_and_descent_split(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        cells = ((0, 0), (1, 1), (0, 2))  # diagonal over the obstacle cell
        levels = (0, 1, 0)
        values = assignment_values(model, env, cells, levels)
        assert values["d_r0c0_r1c1"] == 10.0
        assert values["dp_r0c0_r1c1"] == 10.0 and values["dm_r0c0_r1c1"] == 0.0
        assert values["pp_r0c0_r1c1"] == 10.0 and values["y_r0c0_r1c1"] == 1.0
        assert values["d_r1c1_r0c2"] == -10.0
        assert values["dm_r1c1_r0c2"] == 10.0 and values["dp_r1c1_r0c2"] == 0.0
        assert values["pm_r1c1_r0c2"] == 10.0
        assert values["y_r1c1_r0c2"] == 0.0 and values["yp_r1c1_r0c2"] == 1.0

    def test_rejects_bad_paths(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        with pytest.raises(ValueError):
            assignment_values(model, env, ((0, 0), (0, 1)), (0, 0))  # not the goal
        with pytest.raises(ValueError):
            assignment_values(model, env, ((0, 0), (0, 1), (0, 2)), (1, 0, 0))  # bad start level
