"""Integer-program construction, LP text rendering, and substitution checks."""

import contextlib
import functools
import gc
import hashlib
import io
import math
import pickle
import platform
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overfly import (
    Chromosome,
    DroneParams,
    EnumerationLimitError,
    NormBounds,
    assignment_values,
    build_model,
    combined_points,
    default_big_m,
    enumerate_front,
    evaluate,
    generate,
    GeneratorSettings,
    iter_assignments,
    mutation_test,
    objective_value,
    render_lp,
    substitute,
    validate,
)
from overfly.cli import main, suite_settings
from overfly import milp, save_instance
from overfly.milp import (
    MAX_ROWS,
    MilpModel,
    RowCheck,
    arc_var,
    row_count,
    u_name,
    violate_row,
    x_name,
)

from helpers import all_simple_paths, build_env, collections_started, generated_worlds, reference_lp

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


def tower_env():
    """Levels 0/10/20 m and one 30 m tower, taller than the top level."""
    obstacle = np.zeros((3, 3))
    obstacle[0, 1] = 30.0
    return build_env(rows=3, cols=3, obstacle=obstacle)


def full_report(model, values):
    """Reference for ``substitute``: every row summed with ``math.fsum`` and
    judged by the sense rule, with no baseline. Floats as ``float.hex``; the
    last item says whether the row holds."""
    checks = []
    for name, family, coeffs, sense, rhs in model.rows:
        lhs = math.fsum(c * float(values[n]) for n, c in coeffs)
        if sense == "<=":
            slack = rhs - lhs
        elif sense == ">=":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        checks.append((name, family, lhs.hex(), sense, rhs.hex(), slack.hex(), slack >= 0.0))
    return checks


def hex_checks(checks):
    """Failing row checks in ``full_report``'s form."""
    return [
        (c.name, c.family, c.lhs.hex(), c.sense, c.rhs.hex(), c.slack.hex(), False)
        for c in checks
    ]


def checked_substitute(model, values):
    """``substitute``, its failures asserted field by field against
    ``full_report``'s failing rows."""
    report = substitute(model, values)
    reference = full_report(model, values)
    assert hex_checks(report.failures()) == [check for check in reference if not check[-1]]
    assert report.ok == all(check[-1] for check in reference)
    return report


@functools.cache
def substitution_world(name):
    """(env, z1 model, exact members, variable names, y names) of the tiny
    world or of T1-1 of ``gen --seed 0``."""
    if name == "tiny":
        env = tiny_env()
    else:
        _id, settings_, seed = suite_settings(0)[0]
        env = generate(settings_, seed)
    model = build_model(env, PARAMS, "z1")
    names = sorted(model.baseline)
    y_names = [n for n in names if model.baseline[n] == 1.0]
    return env, model, enumerate_front(env, PARAMS).members, names, y_names


def reference_default_big_m(env):
    """``default_big_m`` as a maximum over one terrain record per cell: the
    formula it replaced, kept as its oracle."""
    spec = env.spec
    span = spec.levels_m[-1] - spec.levels_m[0]
    ceilings = max(float(env.ceiling_m[c]) for c in env.cells())
    obstacles = max(float(env.obstacle_m[c]) for c in env.cells())
    return 1.0 + max(span, ceilings, obstacles)


def model_variants(env):
    """The z1, weighted, epsilon and doubled-big-M models of one world."""
    objectives = [m.objectives for m in enumerate_front(env, PARAMS).members]
    bounds = NormBounds.from_vectors(objectives)
    z1 = build_model(env, PARAMS, "z1")
    return {
        "z1": z1,
        "weighted": build_model(env, PARAMS, "weighted", weight=0.3, bounds=bounds),
        "epsilon": build_model(env, PARAMS, "epsilon", risk_cap=objectives[0].risk),
        "doubled": build_model(env, PARAMS, "z1", big_m=2.0 * z1.big_m),
    }


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


# Per objective: build_model keywords with Python floats, and the same
# numbers as numpy scalars.
OBJECTIVE_KWARGS = {
    "z1": ({}, {}),
    "weighted": (
        {"weight": 0.3, "bounds": NormBounds(10.0, 50.0, 100.0, 900.0)},
        {"weight": np.float64(0.3), "bounds": NormBounds(*np.array([10.0, 50.0, 100.0, 900.0]))},
    ),
    "epsilon": ({"risk_cap": 2.0}, {"risk_cap": np.float64(2.0)}),
}


class TestBuildModel:
    def test_family_inventory(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        expected = {
            "eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "eq9", "eq11",
            "eq12", "eq13", "eq15", "eq16", "eq17", "eq18",
            "eq19", "eq20", "eq21", "eq22", "eq23",
        }
        assert set(model.families()) == expected

    def test_variable_kinds(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        kinds = dict(model.variables)
        assert all(kinds[n] == "binary" for n in kinds if n.startswith(("x_", "u_", "y_", "yp_")))
        assert all(kinds[n] == "free" for n in kinds if n.startswith("d_") and not n.startswith("dp") and not n.startswith("dm"))
        assert all(kinds[n] == "nonneg" for n in kinds if n.startswith(("dp_", "dm_", "pp_", "pm_")))

    def test_no_empty_rows_and_no_zero_coefficients(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        for _name, _family, coeffs, _sense, _rhs in model.rows:
            assert coeffs
            for _var, coeff in coeffs:
                assert coeff != 0.0

    def test_big_m_default_and_override(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        assert model.big_m == default_big_m(env)
        bigger = build_model(env, PARAMS, "z1", big_m=99.0)
        assert bigger.big_m == 99.0

    @settings(max_examples=40, deadline=None)
    @given(generated_worlds())
    def test_default_big_m_matches_per_cell_formula(self, env):
        assert default_big_m(env).hex() == reference_default_big_m(env).hex()

    def test_default_big_m_matches_per_cell_formula_on_each_suite_size(self):
        worlds = {w[0]: w for w in suite_settings(0)}
        for world in ("T1-1", "T2-1", "T3-1", "T4-1", "T5-1"):
            _id, settings_, seed = worlds[world]
            env = generate(settings_, seed)
            assert default_big_m(env).hex() == reference_default_big_m(env).hex(), world

    def test_big_m_too_small_rejected(self):
        env = tiny_env()
        with pytest.raises(ValueError):
            build_model(env, PARAMS, "z1", big_m=1.0)
        # Above the 20 m span but below the 30 m tower, whose unused arcs'
        # eq7 rows would fail.
        tower = tower_env()
        message = r"^big_m must reach the tallest obstacle off the start \(30\.0 m\), got 25\.0$"
        with pytest.raises(ValueError, match=message):
            build_model(tower, PARAMS, "z1", big_m=25.0)
        assert build_model(tower, PARAMS, "z1", big_m=30.0).big_m == 30.0

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, value):
        env = tiny_env()
        with pytest.raises(ValueError, match="^big_m must be finite"):
            build_model(env, PARAMS, "z1", big_m=value)
        with pytest.raises(ValueError, match="^risk_cap must"):
            build_model(env, PARAMS, "epsilon", risk_cap=value)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.just("tower"), generated_worlds()))
    def test_unused_arcs_break_only_eq3_and_eq4(self, env):
        # Every model: rows 0 and 1 are eq3 and eq4, the only rows the
        # unused-arc baseline breaks, at the default big-M and at a big-M
        # equal to the tallest obstacle off the start cell; just below that
        # obstacle the model is refused.
        env = tower_env() if env == "tower" else env
        levels = env.spec.levels_m
        span = levels[-1] - levels[0]
        tallest = max(float(env.obstacle_m[c]) for c in env.cells() if c != env.spec.start_cell)
        for objective, kwargs in (
            ("z1", {}),
            ("weighted", {"bounds": NormBounds(0.0, 1.0, 0.0, 1.0)}),
            ("epsilon", {"risk_cap": 1.0}),
        ):
            for big_m in (None, tallest) if tallest > span else (None,):
                model = build_model(env, PARAMS, objective, big_m=big_m, **kwargs)
                assert [row[0] for row in model.rows[:2]] == ["eq3", "eq4"]
                failing = [check[0] for check in full_report(model, model.baseline) if not check[-1]]
                assert failing == ["eq3", "eq4"]
            with pytest.raises(ValueError, match="^big_m must"):
                build_model(env, PARAMS, objective, big_m=math.nextafter(tallest, -math.inf), **kwargs)

    @pytest.mark.parametrize("objective", OBJECTIVE_KWARGS)
    def test_numpy_scalars_render_as_floats(self, objective):
        # z1 takes its numbers from numpy levels, weighted from a numpy
        # weight, bounds and drone mass, epsilon from a numpy risk cap.
        floats, scalars = OBJECTIVE_KWARGS[objective]
        levels = tuple(np.arange(3) * 10.0) if objective == "z1" else (0.0, 10.0, 20.0)
        params = DroneParams(weight_kg=np.float64(1.5)) if objective == "weighted" else PARAMS
        text = render_lp(build_model(build_env(), PARAMS, objective, **floats))
        scalar_text = render_lp(build_model(build_env(levels=levels), params, objective, **scalars))
        assert [line for line in scalar_text.splitlines() if "np." in line] == []
        # Digests: a failing comparison of the texts themselves would make
        # pytest diff two long strings.
        assert hashlib.sha256(scalar_text.encode()).hexdigest() == hashlib.sha256(text.encode()).hexdigest()

    def test_size_guard(self, monkeypatch):
        # 24x24 cells, six levels: about 965,000 rows.
        env = build_env(rows=24, cols=24, levels=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0))
        count = row_count(env, "z1")
        assert count > MAX_ROWS

        def never(*_args, **_kwargs):
            raise AssertionError("the guard must refuse before building")

        # _cn names the cells before the first row; _add_row makes eq3.
        for name in ("_cn", "_add_row", "arc_costs"):
            monkeypatch.setattr(milp, name, never)
        with pytest.raises(EnumerationLimitError, match=f"{count} rows.* {MAX_ROWS}"):
            build_model(env, PARAMS, "z1")

    def test_suite_row_counts(self):
        counts = {
            world: row_count(generate(settings, seed), "z1")
            for world, settings, seed in suite_settings(0)
            if world in ("T1-1", "T5-1")
        }
        assert counts == {"T1-1": 3_865, "T5-1": 151_897}

    def test_sixteen_by_sixteen_with_six_levels_fits(self):
        env = generate(GeneratorSettings(rows=16, cols=16, level_count=6), 0)
        assert row_count(env, "z1") == 405_541
        assert row_count(env, "epsilon") <= MAX_ROWS

    # T1-1..T4-4 and T5-1 of the generated suite.
    @pytest.mark.parametrize("world", range(17), ids=lambda w: suite_settings(0)[w][0])
    def test_row_count_matches_built_rows(self, world):
        _id, settings, seed = suite_settings(0)[world]
        env = generate(settings, seed)
        assert row_count(env, "z1") == len(build_model(env, PARAMS, "z1").rows)
        epsilon = build_model(env, PARAMS, "epsilon", risk_cap=1.0)
        assert row_count(env, "epsilon") == len(epsilon.rows)

    def test_add_row_drops_all_zero_rows(self):
        rows = []
        milp._add_row(rows, "r", "f", [("x", 0.0), ("y", -0.0)], "<=", 1.0)
        milp._add_row(rows, "r", "f", [], "=", 0.0)
        assert rows == []
        milp._add_row(rows, "r", "f", [("x", 2), ("y", 0), ("z", np.float64(-1.5))], ">=", 1)
        assert rows == [("r", "f", (("x", 2.0), ("z", -1.5)), ">=", 1.0)]
        assert [type(c) for _, c in rows[0][2]] == [float, float] and type(rows[0][4]) is float

    def test_unknown_sense_rejected(self):
        rows = []
        for sense in ("<", "==", "=>"):
            with pytest.raises(ValueError, match=f"unknown sense {sense!r}"):
                milp._add_row(rows, "r", "f", [("x", 1.0)], sense, 0.0)
        # Checked before the zero trimming, so an all-zero row is refused too.
        with pytest.raises(ValueError, match="unknown sense"):
            milp._add_row(rows, "r", "f", [("x", 0.0)], "<", 0.0)
        assert rows == []

    # Every row and variable of a model holds its record's invariants; gen 0
    # T1-1 and T2-1 under each objective.
    @pytest.mark.parametrize("objective", sorted(OBJECTIVE_KWARGS))
    @pytest.mark.parametrize("world", ["T1-1", "T2-1"])
    def test_model_invariants(self, world, objective):
        _id, settings, seed = {w[0]: w for w in suite_settings(0)}[world]
        floats, _scalars = OBJECTIVE_KWARGS[objective]
        model = build_model(generate(settings, seed), PARAMS, objective, **floats)
        for row in model.rows:
            assert len(row) == 5, row
            name, _family, coeffs, sense, rhs = row
            assert sense in milp._SENSES, name
            assert coeffs, name
            for _var, coeff in coeffs:
                assert type(coeff) is float and math.isfinite(coeff) and coeff != 0.0, name
            assert type(rhs) is float and math.isfinite(rhs), name
        assert all(len(var) == 2 and var[1] in milp._VAR_KINDS for var in model.variables)
        names = [name for name, _kind in model.variables]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("world", [0, 1, 2, 3])
    def test_variable_names_match_name_functions(self, world):
        _id, settings, seed = suite_settings(0)[world]
        env = generate(settings, seed)
        start, levels = env.spec.start_cell, range(env.spec.level_count)
        arcs = [(i, j) for i in env.cells() for j in env.successors(i)]
        expected = [x_name(i, j, k) for i, j in arcs for k in levels]
        products = [
            (g, i, j, k, kp)
            for i, j in arcs
            if i != start
            for g in env.predecessors(i)
            for k in levels
            for kp in levels
        ]
        expected += [u_name(*p) for p in products]
        expected += [arc_var(p, i, j) for i, j in arcs for p in ("d", "dp", "dm", "y", "yp", "pp", "pm")]
        model = build_model(env, PARAMS, "z1")
        assert [name for name, _kind in model.variables] == expected
        # Product rows are labeled by their u variable's name minus "u_".
        for name, family, coeffs, _sense, _rhs in model.rows:
            if family in ("eq12", "eq13"):
                u = coeffs[0][0]
                assert u.startswith("u_") and name.endswith("_" + u[2:])


class TestCollectorPaused:
    """The model and its variable-to-rows index are built with the cyclic
    collector paused, and the caller's collector state comes back."""

    def test_collector_on_after_the_build(self):
        assert gc.isenabled()
        model = build_model(tiny_env(), PARAMS, "z1")
        assert gc.isenabled()
        assert model._rows_of and gc.isenabled()

    def test_collector_stays_off_for_a_caller_that_turned_it_off(self):
        gc.disable()
        try:
            model = build_model(tiny_env(), PARAMS, "z1")
            assert not gc.isenabled()
            assert model._rows_of and not gc.isenabled()
        finally:
            gc.enable()

    def test_no_collection_starts_while_the_model_builds(self):
        _id, settings, seed = suite_settings(0)[8]  # T3-1
        env = generate(settings, seed)
        assert collections_started(build_model, env, PARAMS, "z1") == []

    def test_product_rows_share_their_term_records(self):
        _id, settings, seed = suite_settings(0)[0]
        model = build_model(generate(settings, seed), PARAMS, "z1")
        terms = {}
        for name, family, coeffs, _sense, _rhs in model.rows:
            if family in ("eq12", "eq13"):
                for term in coeffs:
                    if term[1] == -1.0:
                        assert terms.setdefault(term, term) is term, name
        assert len(terms) > 0

    @pytest.mark.parametrize("world", ["T1-1", "T2-1"])
    def test_rows_and_variables_are_plain_untracked_tuples(self, world):
        # A tuple subclass is never untracked; a plain tuple of strings,
        # floats and untracked tuples is, at a full collection. Each
        # collection untracks one level of nesting (the terms, then the
        # coefficient tuples, then the rows), so three untrack them all.
        _id, settings, seed = {w[0]: w for w in suite_settings(0)}[world]
        model = build_model(generate(settings, seed), PARAMS, "z1")
        assert all(type(row) is tuple for row in model.rows)
        assert all(type(var) is tuple for var in model.variables)
        if platform.python_implementation() != "CPython":
            return
        for _ in range(3):
            gc.collect()
        assert not any(gc.is_tracked(row) for row in model.rows)
        assert not any(gc.is_tracked(var) for var in model.variables)


# SHA-256 of the LP text `lp-export` writes for T1-1 and T2-1 of
# `gen --seed 0`: the model content, not only its formatting. Each text is
# that of the earlier model which also had the add_ub rows (u <= x_a and
# u <= x_b beside eq12/eq13), less those rows and their two header notes.
LP_EXPORT_FLAGS = {
    "z1": [],
    "weighted": ["--objective", "weighted", "--weight", "0.3", "--length-lo", "30",
                 "--length-hi", "75.5", "--energy-lo", "1200", "--energy-hi", "4000.25"],
    "epsilon": ["--objective", "epsilon", "--risk-cap", "2.5"],
}
LP_EXPORT_DIGESTS = {
    ("T1-1", "z1"): "186f5ede194d70145026714214aba2c27b02c098c02f09383a876a929ef092e1",
    ("T1-1", "weighted"): "cc5d7294c453da1e5ebe69e7f095e9718a7f4720bf5958e1bddc937c24f0756d",
    ("T1-1", "epsilon"): "7dde21891fb526feffcabb97461508844c693adc0328f150a9209e2d84e38375",
    ("T2-1", "z1"): "ad10155a392df9a686c35e70e51f17d33b21cfdb3049915c6be9674a79aa3316",
    ("T2-1", "weighted"): "ddd20fd360e1424b0621f64472075d0b716fc4f4037ea3965e2e42c40841fb7c",
    ("T2-1", "epsilon"): "b7c5f1ea2bc287e2bcee116a1889c2edc4ad37a429a63572545f0026e0d9a183",
}


@pytest.mark.parametrize(
    "world, objective",
    sorted(LP_EXPORT_DIGESTS),
    ids=[f"{world}-{objective}" for world, objective in sorted(LP_EXPORT_DIGESTS)],
)
def test_lp_export_text_is_pinned(tmp_path, world, objective):
    _id, settings, seed = {w[0]: w for w in suite_settings(0)}[world]
    instance, out = tmp_path / f"{world}.json", tmp_path / "model.lp"
    save_instance(generate(settings, seed), str(instance))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["lp-export", str(instance), "--out", str(out), *LP_EXPORT_FLAGS[objective]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LP_EXPORT_DIGESTS[world, objective]


class TestRecords:
    def test_fields_keep_their_order(self):
        assert RowCheck._fields == ("name", "family", "lhs", "sense", "rhs", "slack")

    def test_repr_names_each_field(self):
        check = RowCheck("eq3", "eq3", 0.0, "=", 1.0, -1.0)
        assert repr(check) == (
            "RowCheck(name='eq3', family='eq3', lhs=0.0, sense='=', rhs=1.0, slack=-1.0)"
        )

    def test_fields_cannot_be_assigned(self):
        check = RowCheck("eq3", "eq3", 0.0, "=", 1.0, -1.0)
        with pytest.raises(AttributeError):
            check.slack = 0.0
        with pytest.raises(AttributeError):
            check.extra = 0.0  # no instance dict either


class TestSubstitution:
    def test_every_assignment_satisfies_every_row(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        checked = 0
        for cells in all_simple_paths(env):
            for levels in iter_assignments(env, cells):
                values = assignment_values(model, env, cells, levels)
                report = checked_substitute(model, values)
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
                assert checked_substitute(model, values).ok
                assert checked_substitute(doubled, values).ok
                assert objective_value(model, values) == objective_value(doubled, values)

    def test_exact_members_of_suite_worlds_match_reference(self):
        for _id, settings, seed in suite_settings(0)[:4]:  # the T1 worlds
            env = generate(settings, seed)
            model = build_model(env, PARAMS, "z1")
            doubled = build_model(env, PARAMS, "z1", big_m=2.0 * model.big_m)
            for m in enumerate_front(env, PARAMS).members:
                values = assignment_values(model, env, m.cells, m.entry_levels)
                assert checked_substitute(model, values).ok
                assert checked_substitute(doubled, values).ok

    def test_broken_and_unused_assignments_match_reference(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        m = enumerate_front(env, PARAMS).members[0]
        base = assignment_values(model, env, m.cells, m.entry_levels)
        name, value = violate_row(model.rows[0], base)  # eq3, pushed 2 past its rhs
        broken = {**base, name: value}
        assert checked_substitute(model, base).ok
        assert "eq3" in {c.name for c in checked_substitute(model, broken).failures()}
        # The unused-arc baseline misses eq3 and eq4 by 1 and nothing else.
        unused = checked_substitute(model, model.baseline)
        assert [(c.name, c.slack) for c in unused.failures()] == [("eq3", -1.0), ("eq4", -1.0)]

    def test_hand_made_values_match_reference(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        m = enumerate_front(env, PARAMS).members[0]
        base = assignment_values(model, env, m.cells, m.entry_levels)
        y_name = next(n for n, v in model.baseline.items() if v == 1.0)
        x_used = next(n for n, v in base.items() if n.startswith("x_") and v == 1.0)
        zero = next(n for n, v in base.items() if v == 0.0 == model.baseline[n])
        for name, value in ((y_name, 1), (x_used, 1), (zero, 0), (zero, -0.0), (zero, math.nan)):
            values = dict(base)
            values[name] = value
            checked_substitute(model, values)
        extra = dict(base, not_a_model_variable=5.0)
        assert checked_substitute(model, extra) == substitute(model, base)
        missing = dict(base)
        del missing[zero]
        with pytest.raises(ValueError, match=f"missing 1 variable\\(s\\), e.g. {zero}$"):
            substitute(model, missing)

    @settings(max_examples=80, deadline=None)
    @given(
        world=st.sampled_from(["tiny", "T1-1"]),
        member=st.integers(min_value=0),
        changes=st.lists(
            st.tuples(
                st.booleans(),  # pick a y variable (baseline 1.0) or any variable
                st.integers(min_value=0),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, math.nan]),
                    st.floats(min_value=-1e6, max_value=1e6),
                ),
            ),
            max_size=3,
        ),
    )
    def test_sparse_report_matches_full_sum(self, world, member, changes):
        env, model, members, names, y_names = substitution_world(world)
        m = members[member % len(members)]
        overlay = assignment_values(model, env, m.cells, m.entry_levels)
        for pick_y, index, value in changes:
            pool = y_names if pick_y else names
            overlay[pool[index % len(pool)]] = value
        plain = dict(overlay)
        reference = full_report(model, plain)
        failing = [c for c in reference if not c[-1]]
        for values in (overlay, plain):
            report = substitute(model, values)
            assert report.ok == all(check[-1] for check in reference)
            assert hex_checks(report.failures()) == failing
        overlay["not_a_model_variable"] = math.nan
        report = substitute(model, overlay)
        assert report.ok == all(check[-1] for check in reference)
        assert hex_checks(report.failures()) == failing

    def test_report_slack_signs(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        cells = all_simple_paths(env)[0]
        levels = next(iter(iter_assignments(env, cells)))
        values = assignment_values(model, env, cells, levels)
        assert substitute(model, values).ok
        for row in model.rows:
            name, value = violate_row(row, values)
            report = substitute(model, {**values, name: value})
            assert report.failures()
            assert all(c.slack < 0.0 for c in report.failures())
            assert {c.sense for c in report.failures()} <= {"<=", ">=", "="}

    def test_report_is_a_value_without_its_model(self):
        env, model, members, _names, _y_names = substitution_world("tiny")
        m = members[0]
        values = assignment_values(model, env, m.cells, m.entry_levels)
        name, value = violate_row(model.rows[0], values)
        for report in (substitute(model, values), substitute(model, {**values, name: value})):
            data = pickle.dumps(report)
            assert pickle.loads(data) == report
            assert b"MilpModel" not in data


class TestCorruptions:
    @staticmethod
    def full_model_caught(model, base):
        """Reference for ``mutation_test``: apply each row's change to a copy
        of the base and judge every row by ``full_report``."""
        caught = {family: False for family in model.families()}
        for row in model.rows:
            name, value = violate_row(row, base)
            values = dict(base)
            values[name] = value
            failed = {check[0] for check in full_report(model, values) if not check[-1]}
            caught[row[1]] |= row[0] in failed
        return caught

    def test_every_row_violated_by_its_corruption(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        m = enumerate_front(env, PARAMS).members[0]
        base = assignment_values(model, env, m.cells, m.entry_levels)
        for row in model.rows:
            name, value = violate_row(row, base)
            assert name in {n for n, _ in row[2]}
            values = dict(base)
            values[name] = value
            report = checked_substitute(model, values)
            assert any(c.name == row[0] for c in report.failures()), row[0]
        reference = self.full_model_caught(model, base)
        assert all(reference.values())
        assert mutation_test(model, base) == reference

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
        bad = {name: 0.0 for name, _kind in model.variables}
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
            [cap_coeffs] = [coeffs for _, family, coeffs, _, _ in epsilon.rows if family == "risk_cap"]
            for m in enumerate_front(env, PARAMS).members:
                assert evaluate(m.chromosome(), env, PARAMS) == m.objectives
                length, energy = (
                    objective_value(model, assignment_values(model, env, m.cells, m.entry_levels))
                    for model in models
                )
                values = assignment_values(epsilon, env, m.cells, m.entry_levels)
                risk = math.fsum(c * values[n] for n, c in cap_coeffs)
                for got, want in zip((length, energy, risk), m.objectives.as_tuple()):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("index", [0, 4], ids=["T1-1", "T2-1"])
    def test_overlay_sum_is_bit_identical_to_full_sum(self, index):
        # On assignment_values' overlay only the path's own terms are summed;
        # the same values as a plain dict go through every term.
        _id, settings, seed = suite_settings(0)[index]
        env = generate(settings, seed)
        members = enumerate_front(env, PARAMS).members
        for model in model_variants(env).values():
            for m in members:
                values = assignment_values(model, env, m.cells, m.entry_levels)
                full = objective_value(model, dict(values))
                assert objective_value(model, values).hex() == full.hex()

    def test_epsilon_adds_risk_cap_row(self):
        env = tiny_env()
        cap = 1.25
        model = build_model(env, PARAMS, "epsilon", risk_cap=cap)
        rows = [row for row in model.rows if row[1] == "risk_cap"]
        assert len(rows) == 1
        _name, _family, _coeffs, sense, rhs = rows[0]
        assert sense == "<=" and rhs == cap
        z1 = build_model(env, PARAMS, "z1")
        assert model.objective == z1.objective

    def test_epsilon_cap_row_scores_risk(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "epsilon", risk_cap=10.0)
        [cap_coeffs] = [coeffs for _, family, coeffs, _, _ in model.rows if family == "risk_cap"]
        for m in enumerate_front(env, PARAMS).members:
            values = assignment_values(model, env, m.cells, m.entry_levels)
            lhs = math.fsum(c * values[n] for n, c in cap_coeffs)
            assert abs(lhs - m.objectives.risk) <= 1e-9 * max(1.0, m.objectives.risk)


def hand_built_model():
    """A model whose rows reach what generated worlds rarely do: zero
    right-hand sides of both signs in both orders, repeated nonzero ones,
    a row whose label and first token pass 72 columns, and a token longer
    than 72 columns."""
    long_label = "r_" + "l" * 40
    long_name = "v_" + "n" * 80
    rows = [
        ("z_pos", "t", (("a", 1.0),), "<=", 0.0),
        ("z_neg", "t", (("a", 1.0),), "<=", -0.0),
        ("z_neg2", "t", (("b", -1.0),), ">=", -0.0),
        ("z_pos2", "t", (("b", -1.0),), ">=", 0.0),
        ("half", "t", (("a", 2.5), ("b", -2.5)), "=", -2.5),
        ("half2", "t", (("b", 0.5),), "<=", -2.5),
        ("tiny", "t", (("a", 1e-05),), "<=", 1e-05),
        ("tiny2", "t", (("b", -1e-05),), ">=", 1e-05),
        ("huge", "t", (("a", 1e16),), "<=", 1e16),
        ("huge2", "t", (("b", 1e16),), "<=", 1e16),
        ("one", "t", (("a", 1.0), ("b", 1.0)), "=", 1.0),
        ("empty", "t", (), ">=", -0.0),
        (long_label, "t", (("x_" + "p" * 30, -3.0), ("a", 1.0)), "<=", 0.0),
        ("wide", "t", (("a", 1.0), (long_name, 2.0), ("b", -1.0)), ">=", -2.5),
    ]
    return MilpModel(
        variables=(("a", "nonneg"), ("b", "free"), (long_name, "nonneg"), ("c", "binary")),
        rows=tuple(rows),
        objective=(("a", -1.0), ("b", 0.5)),
        big_m=1.0,
        arcs=(),
        notes=("hand-built",),
    )


class TestRenderedText:
    @pytest.mark.parametrize("world", [0, 1, 2, 3, 12])
    def test_matches_reference_renderer(self, world):
        # World 12 is T4-1 (10x10x4): its two-digit cell names give token
        # widths and wrap points the 4x4 worlds never reach.
        _id, settings, seed = suite_settings(0)[world]
        for name, model in model_variants(generate(settings, seed)).items():
            assert render_lp(model) == reference_lp(model), name

    def test_tiny_world_matches_reference_renderer(self):
        model = build_model(tiny_env(), PARAMS, "z1")
        assert render_lp(model) == reference_lp(model)

    def test_hand_built_model_matches_reference_renderer(self):
        model = hand_built_model()
        text = render_lp(model)
        assert text == reference_lp(model)
        lines = text.splitlines()
        for row in (" z_pos: 1 a <= 0", " z_neg: 1 a <= -0", " z_neg2: -1 b >= -0",
                    " z_pos2: -1 b >= 0", " half2: 0.5 b <= -2.5", " tiny: 1e-05 a <= 1e-05",
                    " huge2: 1e+16 b <= 1e+16", " empty: >= -0"):
            assert row in lines
        assert lines[-3:] == ["Binaries", "  c", "End"]

    def test_negative_zero_risk_cap_prints_its_sign(self):
        model = build_model(tiny_env(), PARAMS, "epsilon", risk_cap=-0.0)
        text = render_lp(model)
        assert text == reference_lp(model)
        lines = text.splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith(" risk_cap:"))
        last = first
        while lines[last + 1].startswith("      "):
            last += 1
        row = " ".join(ln.strip() for ln in lines[first:last + 1])
        assert row.endswith(" <= -0")

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
        model_binaries = {name for name, kind in model.variables if kind == "binary"}
        model_free = {name for name, kind in model.variables if kind == "free"}
        assert parsed["binaries"] == model_binaries
        assert parsed["free"] == model_free

        by_name = {row[0]: row for row in model.rows}
        for name, terms, sense, rhs in parsed["rows"]:
            _name, _family, row_coeffs, row_sense, row_rhs = by_name[name]
            assert sense == row_sense
            assert rhs == row_rhs  # repr round-trips floats exactly
            assert dict((n, c) for c, n in terms) == dict(row_coeffs)

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


class TestAssignmentValues:
    def test_unused_arc_convention(self):
        env = tiny_env()
        model = build_model(env, PARAMS, "z1")
        cells = ((0, 0), (0, 1), (0, 2))
        levels = (0, 0, 0)
        values = assignment_values(model, env, cells, levels)
        # used arcs carry y=1 except descents; unused arcs keep y=1, yp=0
        used = {("r0c0", "r0c1"), ("r0c1", "r0c2")}
        for name, _kind in model.variables:
            if name.startswith("y_"):
                _, a, b = name.split("_")
                if (a, b) not in used:
                    assert values[name] == 1.0
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
