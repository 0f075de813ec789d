"""The LP model solved as an integer program: its optima are the exact front's.

Substitution shows that every exact member satisfies every row, so the model
is not too tight, and mutation shows that each row can fail. Neither shows
that the model admits nothing better than the best real route: a missing or
loosened row passes both. These tests solve the model with HiGHS
(``helpers.solve_lp``) and compare each optimum with the one the exact front
gives, at relative 1e-9. Dropping a family that a minimising optimum needs
must lower some optimum.
"""

import functools
import math

import pytest

from overfly import (
    DroneParams,
    NormBounds,
    assignment_values,
    build_model,
    enumerate_front,
    generate,
    objective_value,
)
from overfly.cli import suite_settings

from helpers import build_env, solve_lp

PARAMS = DroneParams()
REL = 1e-9


@functools.cache
def _world(name):
    """(env, exact members) of a world of ``gen --seed 0``, or of a flat open
    2x6 world with one level, whose start and goal have northern neighbours."""
    if name == "open-2x6":
        env = build_env(rows=2, cols=6, levels=(10.0,))
    else:
        _id, settings, seed = {w[0]: w for w in suite_settings(0)}[name]
        env = generate(settings, seed)
    return env, enumerate_front(env, PARAMS).members


@functools.cache
def _case(name, objective):
    """(model, the optimum the exact front gives) for one world and objective:
    ``epsilon`` caps risk at the least member risk, ``weighted`` blends at 0.5
    with bounds from the exact front."""
    env, members = _world(name)
    if objective == "z1":
        return build_model(env, PARAMS, "z1"), min(m.objectives.length_m for m in members)
    if objective == "epsilon":
        cap = min(m.objectives.risk for m in members) * (1 + 1e-12)
        model = build_model(env, PARAMS, "epsilon", risk_cap=cap)
        return model, min(m.objectives.length_m for m in members if m.objectives.risk <= cap)
    bounds = NormBounds.from_vectors([m.objectives for m in members])
    model = build_model(env, PARAMS, "weighted", weight=0.5, bounds=bounds)
    values = (assignment_values(model, env, m.cells, m.entry_levels) for m in members)
    return model, min(objective_value(model, v) for v in values)


CASES = [
    (world, objective)
    for world in ("T1-1", "T1-2")
    for objective in ("z1", "epsilon", "weighted")
] + [("open-2x6", "z1")]


@pytest.mark.parametrize("world, objective", CASES, ids=[f"{w}-{o}" for w, o in CASES])
def test_optimum_is_the_exact_fronts(world, objective):
    model, expected = _case(world, objective)
    assert math.isclose(solve_lp(model), expected, rel_tol=REL)


# (family, world, objective): the optimum each drop lowers. On T1-1 and T1-2
# no optimum moves without eq6; on the open world the relaxed model pays
# 40 m for two 20 m loops, start-north-start and goal-north-goal, where the
# straight route is 50 m.
DROPS = [
    ("eq4", "T1-1", "z1"),
    ("eq5", "T1-1", "z1"),
    ("eq6", "open-2x6", "z1"),
    ("eq7", "T1-2", "z1"),
    ("eq9", "T1-2", "weighted"),
    ("eq11", "T1-2", "weighted"),
    ("eq12", "T1-1", "z1"),
    ("risk_cap", "T1-1", "epsilon"),
]


@pytest.mark.parametrize("family, world, objective", DROPS, ids=[d[0] for d in DROPS])
def test_dropping_the_family_lowers_an_optimum(family, world, objective):
    model, expected = _case(world, objective)
    assert family in model.families()
    relaxed = solve_lp(model, drop=(family,))
    assert relaxed is not None
    assert relaxed < expected and not math.isclose(relaxed, expected, rel_tol=REL)
