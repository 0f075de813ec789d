"""Exact integer-program export of the path-planning model.

Builds the full linearized formulation over binary arc-level choices and
writes it in CPLEX-LP text. Row labels use the wire families eq3..eq23 (flow,
altitude windows, altitude-change definitions, product linearization, and
ascent/descent splitting), plus an optional risk_cap row. The module also
substitutes concrete assignments into every row (the exporter's correctness
oracle) and mutation-tests that oracle: each row in turn gets the
one-variable change that breaks it, and only that row is re-evaluated, by
the same row evaluator ``substitute`` uses.

Building and rendering pay for each row once. ``build_model``
formats every cell, arc, ``x``, ``u`` and per-arc variable name once, into
name tables local to the build that the variable list, the rows and the
objective all read (the public ``x_name``, ``u_name`` and ``arc_var`` give
the same strings). The product rows (eq12, eq13), most of a model's rows,
share their term records: one ``(x, -1.0)`` per ``x`` variable. A variable
is a plain tuple ``(name, kind)`` and a row a plain tuple ``(name, family,
coeffs, sense, rhs)`` (the ``LpVar`` and ``LpRow`` aliases), read by
position. Tuples that hold only strings, floats and such tuples are
untracked by CPython's cyclic collector as its collections pass over them,
one level of nesting each (terms, coefficient tuples, rows), so a live
model soon costs a collection nothing; a tuple subclass would stay tracked.
``build_model`` and the variable-to-rows index ``MilpModel._rows_of`` run
with the collector paused (``environment.collector_paused``): their records
hold no cycles, and a running collector would only scan them over and over.
``render_lp`` formats each distinct string once per call, in caches local to
the call: a coefficient's token heads, trailing space included, so a term
is one concatenation, and a nonzero right-hand side's text. A zero
right-hand side is looked up by its sign instead, because 0.0 and -0.0 are
one dict key but print "0" and "-0". A model's right-hand sides come from a
few constants (0, +-1, +-big-M, obstacle - big-M, ceilings), so most rows
reuse a text. A row that fits the 72-column width is written in one join.

Substitution works against a per-model baseline, the unused-arc assignment
``MilpModel.baseline`` (every variable 0.0, ``y`` = 1.0 on every arc), which
breaks exactly eq3 and eq4 (see ``build_model``). ``assignment_values``
overlays a path's values on it; ``substitute`` re-sums eq3, eq4 and the
rows holding a variable whose value differs from the baseline. That is
exact: ``math.fsum`` returns the correctly rounded sum of its nonzero terms
and +0.0 when there are none, so with finite coefficients a row none of
whose variables changed sums to the baseline's left-hand side bit for bit.
Its report is a value: the failing rows, judged with no tolerance.

``build_model`` counts its rows from the world before it builds any
(``row_count``, O(arcs)) and refuses a model above ``MAX_ROWS`` with
``EnumerationLimitError``. That is its only size guard: every world of the
generated T1-T5 suite fits it (T5 is below 160,000 rows).

No solver is invoked here; the text is meant for external tools, and the
exact Pareto front comes from the enumeration module instead.
"""

from __future__ import annotations

import math
from collections import ChainMap, defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .environment import Cell, EnumerationLimitError, Environment, collector_paused
from .physics import DroneParams
from .solution import NormBounds, arc_costs

OBJECTIVES = ("z1", "weighted", "epsilon")

# The most rows ``build_model`` builds. A 12x12 world with five levels (T5)
# takes under 160,000 rows and about 120 MB to build; a 16x16 world with six
# takes about 405,000 rows and 275 MB; a 24x24 world with six, about 965,000
# rows, is refused.
MAX_ROWS = 500_000

_SENSES = ("<=", ">=", "=")
_VAR_KINDS = ("binary", "nonneg", "free")

# The seven per-arc variables of the altitude-change split, and their kinds.
_SPLIT_PREFIXES = ("d", "dp", "dm", "y", "yp", "pp", "pm")
_SPLIT_KINDS = ("free", "nonneg", "nonneg", "binary", "binary", "nonneg", "nonneg")


# One model variable, (name, kind), kind one of ``_VAR_KINDS``; and one
# constraint row, (name, family, coeffs, sense, rhs), read as
# sum(coeff * var) sense rhs with sense one of ``_SENSES``.
LpVar = tuple[str, str]
LpRow = tuple[str, str, tuple[tuple[str, float], ...], str, float]


@dataclass(frozen=True)
class MilpModel:
    """Complete minimization model plus naming metadata.

    ``arcs`` lists every (from-cell, to-cell) pair that received arc
    variables, in construction order; ``notes`` are the header comments the
    LP text carries (big-M value, emitted-form records, objective details).
    """

    variables: tuple[LpVar, ...]
    rows: tuple[LpRow, ...]
    objective: tuple[tuple[str, float], ...]
    big_m: float
    arcs: tuple[tuple[Cell, Cell], ...]
    notes: tuple[str, ...]

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({family for _, family, _, _, _ in self.rows}))

    def variable_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.variables)

    # Per-model substitution caches; ``cached_property`` stores them in the
    # instance dict, which the frozen dataclass leaves writable.

    @cached_property
    def baseline(self) -> Mapping[str, float]:
        """The unused-arc assignment: every variable 0.0 and ``y`` = 1.0 on
        every arc (the ascent flag), which satisfies every row but eq3/eq4."""
        values = {name: 0.0 for name, _ in self.variables}
        for i, j in self.arcs:
            values[arc_var("y", i, j)] = 1.0
        return MappingProxyType(values)

    @cached_property
    @collector_paused
    def _rows_of(self) -> defaultdict[str, list[int]]:
        """Variable name -> indices of the rows it appears in."""
        index: defaultdict[str, list[int]] = defaultdict(list)
        for r, (_, _, coeffs, _, _) in enumerate(self.rows):
            for name, _ in coeffs:
                index[name].append(r)
        return index

    @cached_property
    def _objective_coeffs(self) -> dict[str, float]:
        """Variable name -> its objective coefficient (names are distinct)."""
        return dict(self.objective)


# -- naming ------------------------------------------------------------------


def _cn(cell: Cell) -> str:
    return f"r{cell[0]}c{cell[1]}"


def _arc(i: Cell, j: Cell) -> str:
    return f"{_cn(i)}_{_cn(j)}"


def x_name(i: Cell, j: Cell, k: int) -> str:
    return f"x_{_arc(i, j)}_k{k}"


def u_name(g: Cell, i: Cell, j: Cell, k: int, kp: int) -> str:
    return f"u_{_cn(g)}_{_arc(i, j)}_k{k}_kp{kp}"


def arc_var(prefix: str, i: Cell, j: Cell) -> str:
    return f"{prefix}_{_arc(i, j)}"


# -- model construction ------------------------------------------------------


def default_big_m(env: Environment) -> float:
    """Strictly exceeds every altitude span, ceiling and obstacle, as ``build_model`` needs."""
    spec = env.spec
    span = spec.levels_m[-1] - spec.levels_m[0]
    return 1.0 + max(span, float(env.ceiling_m.max()), float(env.obstacle_m.max()))


def row_count(env: Environment, objective: str) -> int:
    """Rows ``build_model(env, ..., objective)`` builds, counted from the
    world alone in O(arcs): eq3, eq4, eq6 when the goal has successors, one
    eq5 per intermediate cell, eq7 and eq8 per arc into a non-start cell,
    eq9 or eq11 and eq15..eq23 per arc, eq12 and eq13 per product variable,
    and the epsilon objective's risk_cap row.

    The count assumes no row is trimmed for having only zero coefficients.
    That can only fail on a one-level world whose level sits at altitude 0
    (eq8) or at the big-M value (eq7), and an overcount only makes the guard
    stricter.
    """
    spec = env.spec
    start = spec.start_cell
    level_pairs = spec.level_count ** 2
    # eq3, eq4 and one eq5 per other cell: one row per cell.
    count = spec.rows * spec.cols
    count += 1 if env.successors(spec.goal_cell) else 0
    count += 1 if objective == "epsilon" else 0
    for i in env.cells():
        succ = len(env.successors(i))
        count += 10 * succ
        if i != start:
            pred = len(env.predecessors(i))
            count += 2 * pred + 2 * succ * pred * level_pairs
    return count


def _add_row(
    rows: list[LpRow],
    name: str,
    family: str,
    coeffs: Sequence[tuple[str, float]],
    sense: str,
    rhs: float,
) -> None:
    """Append the row ``sum(coeff * var) sense rhs`` to ``rows``, its numbers
    as Python floats and its zero coefficients dropped; a row left with no
    term carries no constraint and is not appended.

    Raises:
        ValueError: on a sense outside ``_SENSES``.
    """
    if sense not in _SENSES:
        raise ValueError(f"unknown sense {sense!r}")
    trimmed = tuple([(n, float(c)) for n, c in coeffs if c != 0.0])
    if trimmed:
        rows.append((name, family, trimmed, sense, float(rhs)))


@collector_paused
def build_model(
    env: Environment,
    params: DroneParams,
    objective: str = "z1",
    *,
    weight: float = 0.5,
    bounds: NormBounds | None = None,
    risk_cap: float | None = None,
    big_m: float | None = None,
) -> MilpModel:
    """Assemble every variable family and constraint row for an instance.

    Objectives: ``z1`` (total 3D length), ``weighted`` (fixed-weight blend
    of min-max normalized length and traversal-plus-climb energy; requires
    ``bounds``; the affine constant of the normalization is dropped), or
    ``epsilon`` (length objective plus a risk_cap row bounding accumulated
    risk by ``risk_cap``).

    Rows 0 and 1 are eq3 and eq4, never trimmed (the start has a successor,
    the goal a predecessor), and the only rows ``MilpModel.baseline`` breaks:
    an unused arc's eq7 reads ``0 >= obstacle - big_m``, so ``big_m`` must
    reach every obstacle off the start cell, and its eq8 ``0 <= ceiling``,
    which ``Environment`` keeps. Numbers are taken as Python floats.

    Raises:
        ValueError: on a bad argument, including a non-finite ``risk_cap``
            or ``big_m``, or a ``big_m`` below an obstacle off the start
            cell; a message about one argument opens with its name.
        EnumerationLimitError: when ``row_count`` exceeds ``MAX_ROWS``,
            before any row is built.
    """
    risk_cap = None if risk_cap is None else float(risk_cap)
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    if objective == "weighted":
        weight = float(weight)
        if bounds is None:
            raise ValueError("weighted objective requires normalization bounds")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
    if objective == "epsilon" and (risk_cap is None or risk_cap < 0.0):
        raise ValueError(f"risk_cap must be >= 0 for the epsilon objective, got {risk_cap!r}")
    if risk_cap is not None and not math.isfinite(risk_cap):
        raise ValueError(f"risk_cap must be finite, got {risk_cap!r}")
    if big_m is not None and not math.isfinite(big_m):
        raise ValueError(f"big_m must be finite, got {big_m!r}")
    rows_needed = row_count(env, objective)
    if rows_needed > MAX_ROWS:
        raise EnumerationLimitError(
            f"the LP model would have {rows_needed} rows, above the limit of {MAX_ROWS}"
        )

    spec = env.spec
    start, goal = spec.start_cell, spec.goal_cell
    h = spec.levels_m
    h_start = h[spec.start_level]
    level_ids = range(spec.level_count)
    m_value = default_big_m(env) if big_m is None else float(big_m)
    if m_value <= max(h[-1] - h[0], 0.0):
        raise ValueError(f"big_m must exceed the largest altitude span, got {m_value!r}")
    tallest = max(float(env.obstacle_m[c]) for c in env.cells() if c != start)
    if m_value < tallest:
        raise ValueError(f"big_m must reach the tallest obstacle off the start ({tallest!r} m), got {m_value!r}")

    # Name tables: each cell, arc, x, u and per-arc variable name is
    # formatted once, here; the variable list, the rows and the objective
    # read them. The strings are those of _cn, _arc, x_name, u_name and
    # arc_var.
    cn = {c: _cn(c) for c in env.cells()}
    arc_names = {(i, j): f"{cn[i]}_{cn[j]}" for i in env.cells() for j in env.successors(i)}
    arcs = list(arc_names)
    xs = {arc: [f"x_{a}_k{k}" for k in level_ids] for arc, a in arc_names.items()}
    # Per arc (i, j) with i != start: (u name, g, k, kp) for every
    # predecessor g of i and level pair, in (g, k, kp) order.
    products = {
        (i, j): [
            (f"u_{cn[g]}_{a}_k{k}_kp{kp}", g, k, kp)
            for g in env.predecessors(i)
            for k in level_ids
            for kp in level_ids
        ]
        for (i, j), a in arc_names.items()
        if i != start
    }
    split = {arc: [f"{p}_{a}" for p in _SPLIT_PREFIXES] for arc, a in arc_names.items()}

    variables: list[LpVar] = []
    for arc in arcs:
        variables.extend((x, "binary") for x in xs[arc])
    for block in products.values():
        variables.extend((u, "binary") for u, _, _, _ in block)
    for arc in arcs:
        variables.extend(zip(split[arc], _SPLIT_KINDS))

    rows: list[LpRow] = []
    add_row = partial(_add_row, rows)

    # eq3/eq4/eq6: depart the start once, enter the goal once, never leave it.
    add_row("eq3", "eq3", [(x, 1.0) for j in env.successors(start) for x in xs[start, j]], "=", 1.0)
    add_row("eq4", "eq4", [(x, 1.0) for i in env.predecessors(goal) for x in xs[i, goal]], "=", 1.0)
    if env.successors(goal):
        add_row("eq6", "eq6", [(x, 1.0) for j in env.successors(goal) for x in xs[goal, j]], "=", 0.0)

    # eq5: flow balance on every intermediate cell.
    for i in env.cells():
        if i in (start, goal):
            continue
        coeffs = [(x, 1.0) for j in env.successors(i) for x in xs[i, j]]
        coeffs += [(x, -1.0) for g in env.predecessors(i) for x in xs[g, i]]
        add_row(f"eq5_{cn[i]}", "eq5", coeffs, "=", 0.0)

    # eq7/eq8: entry altitude above the obstacle (big-M gated) and below the
    # ceiling, for every arc into every non-start cell.
    for j in env.cells():
        if j == start:
            continue
        obstacle, ceiling = float(env.obstacle_m[j]), float(env.ceiling_m[j])
        for i in env.predecessors(j):
            a, x = arc_names[i, j], xs[i, j]
            add_row(
                f"eq7_{a}",
                "eq7",
                [(x[k], h[k] - m_value) for k in level_ids],
                ">=",
                obstacle - m_value,
            )
            add_row(
                f"eq8_{a}",
                "eq8",
                [(x[k], h[k]) for k in level_ids],
                "<=",
                ceiling,
            )

    # eq9 (start arcs) and eq11 (product form): altitude-change definitions.
    for (i, j), a in arc_names.items():
        d = split[i, j][0]
        if i == start:
            coeffs = [(d, 1.0)] + [(x, -(h[k] - h_start)) for k, x in enumerate(xs[i, j])]
            add_row(f"eq9_{a}", "eq9", coeffs, "=", 0.0)
        else:
            coeffs = [(d, 1.0)] + [(u, -(h[k] - h[kp])) for u, _, k, kp in products[i, j]]
            add_row(f"eq11_{a}", "eq11", coeffs, "=", 0.0)

    # The rows below have constant nonzero coefficients (m_value > 0) and
    # literal senses, so they are tuple literals that skip add_row's checks.

    # eq12/eq13: product variable pinned between the two arc choices. For
    # binary u and x, eq13 (2u <= x_a + x_b) already gives u <= x_a and
    # u <= x_b. The label tag is the u name without its "u_" prefix. The
    # rows share their term records: one (x, -1.0) per x variable.
    minus_x = {arc: [(x, -1.0) for x in names] for arc, names in xs.items()}
    for (i, j), block in products.items():
        xij = minus_x[i, j]
        for u, g, k, kp in block:
            xa = xij[k]
            xb = minus_x[g, i][kp]
            tag = u[2:]
            rows.append((f"eq12_{tag}", "eq12", ((u, 1.0), xa, xb), ">=", -1.0))
            rows.append((f"eq13_{tag}", "eq13", ((u, 2.0), xa, xb), "<=", 0.0))

    # eq15..eq23: ascent/descent split with big-M gating per arc.
    m = m_value
    for arc, a in arc_names.items():
        d, dp, dm, y, yp, pp, pm = split[arc]
        rows += (
            (f"eq15_{a}", "eq15", ((dp, 1.0), (dm, -1.0), (d, -1.0)), "=", 0.0),
            (f"eq16_{a}", "eq16", ((y, 1.0), (yp, 1.0)), "=", 1.0),
            (f"eq17_{a}", "eq17", ((pp, 1.0), (pm, -1.0), (d, -1.0)), "=", 0.0),
            (f"eq18_{a}", "eq18", ((pp, 1.0), (dp, -1.0), (y, -m)), ">=", -m),
            (f"eq19_{a}", "eq19", ((pp, 1.0), (dp, -1.0), (y, m)), "<=", m),
            (f"eq20_{a}", "eq20", ((pp, 1.0), (y, -m)), "<=", 0.0),
            (f"eq21_{a}", "eq21", ((pm, 1.0), (dm, -1.0), (yp, -m)), ">=", -m),
            (f"eq22_{a}", "eq22", ((pm, 1.0), (dm, -1.0), (yp, m)), "<=", m),
            (f"eq23_{a}", "eq23", ((pm, 1.0), (yp, -m)), "<=", 0.0),
        )

    # -- objective coefficients ----------------------------------------------

    # z1 length, z2 traversal energy (the climb term rides on dp), z3 risk.
    costs = arc_costs(env, params)
    z1: dict[str, float] = {}
    z2: dict[str, float] = {}
    z3: dict[str, float] = {}
    for j in env.successors(start):
        geometry = costs.geometry[env.distance(start, j)][spec.start_level]
        for k, name in enumerate(xs[start, j]):
            z1[name], _, z2[name] = geometry[k]
            z3[name] = costs.risk[start][spec.start_level][k]
    for (i, j), block in products.items():
        geometry = costs.geometry[env.distance(i, j)]
        risk = costs.risk[i]
        for name, _, k, kp in block:
            z1[name], _, z2[name] = geometry[kp][k]
            z3[name] = risk[kp][k]
    for _d, dp, *_ in split.values():
        z2[dp] = params.weight_kg * params.gravity

    notes = [
        f"big-M constant: {m_value!r}",
        "row family eq23 is emitted as its descent-side upper bound pm <= M*yp;",
        "  an ascent-side lower bound pp >= M*yp would pin pp to M on every",
        "  descent arc and make the split infeasible, so only this corrected",
        "  form is emitted.",
    ]

    if objective == "z1":
        obj = dict(z1)
        label = "z1 (total 3D path length)"
    elif objective == "weighted":
        assert bounds is not None
        len_scale = (
            0.0
            if bounds.degenerate_length
            else weight / (bounds.length_hi - bounds.length_lo)
        )
        energy_scale = (
            0.0
            if bounds.degenerate_energy
            else (1.0 - weight) / (bounds.energy_hi - bounds.energy_lo)
        )
        obj = {}
        for name, c in z1.items():
            obj[name] = obj.get(name, 0.0) + len_scale * c
        for name, c in z2.items():
            obj[name] = obj.get(name, 0.0) + energy_scale * c
        constant = -(
            len_scale * bounds.length_lo + energy_scale * bounds.energy_lo
        )
        label = f"weighted blend, weight={weight!r}"
        notes.append(
            f"weighted objective drops the affine normalization constant {constant!r}"
        )
    else:
        obj = dict(z1)
        label = f"z1 with accumulated risk capped at {risk_cap!r}"
        add_row("risk_cap", "risk_cap", sorted(z3.items()), "<=", risk_cap)

    objective_terms = tuple(sorted((n, c) for n, c in obj.items() if c != 0.0))
    if not objective_terms and variables:
        objective_terms = ((variables[0][0], 0.0),)
    notes.insert(0, f"objective: {label}")

    return MilpModel(
        variables=tuple(variables),
        rows=tuple(rows),
        objective=objective_terms,
        big_m=m_value,
        arcs=tuple(arcs),
        notes=tuple(notes),
    )


# -- LP text -----------------------------------------------------------------


class _TermHeads(dict):
    """Coefficient -> its (first, later) token heads, trailing space
    included, formatted on first use: -2.5 -> ("-2.5 ", "- 2.5 "), 1.0 ->
    ("1 ", "+ 1 "). Keyed by the signed float; 0.0 and -0.0 share a key and
    format alike."""

    def __missing__(self, coeff: float) -> tuple[str, str]:
        magnitude = repr(abs(coeff))
        if magnitude.endswith(".0"):
            magnitude = magnitude[:-2]
        negative = coeff < 0
        heads = self[coeff] = (
            f"-{magnitude} " if negative else f"{magnitude} ",
            f"- {magnitude} " if negative else f"+ {magnitude} ",
        )
        return heads


class _RhsTexts(dict):
    """Nonzero right-hand side -> its text, formatted on first use: 1.0 ->
    "1", -2.5 -> "-2.5". A zero never goes in: 0.0 and -0.0 share a key
    but print "0" and "-0", so ``render_lp`` reads a zero's text from
    ``_ZERO_RHS`` by its sign."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        text = self[value] = text[:-2] if text.endswith(".0") else text
        return text


_ZERO_RHS = {1.0: "0", -1.0: "-0"}


def _format_terms(coeffs: Sequence[tuple[str, float]], heads: _TermHeads) -> list[str]:
    """Tokens like '3.5 x_a', '+ 1 x_b', '- 2 x_c' (first token unsigned)."""
    if not coeffs:
        return []
    name, coeff = coeffs[0]
    tokens = [heads[coeff][0] + name]
    tokens += [heads[c][1] + n for n, c in coeffs[1:]]
    return tokens


def _wrap(out: list[str], prefix: str, tokens: Sequence[str]) -> None:
    """Append ``prefix`` and ``tokens`` to ``out`` as lines of at most 72
    columns where the tokens allow, later lines indented six spaces."""
    line = " ".join([prefix, *tokens])
    if len(line) <= 72:
        # Every candidate the loop below would try is a prefix of ``line``,
        # so none of them wraps.
        out.append(line)
        return
    current = prefix
    for token in tokens:
        candidate = f"{current} {token}"
        if len(candidate) > 72 and current.strip():
            out.append(current)
            current = f"      {token}"
        else:
            current = candidate
    out.append(current)


def render_lp(model: MilpModel) -> str:
    """CPLEX-LP text: comment header, Minimize, Subject To, Bounds (free
    variables), Binaries, End.

    Each distinct coefficient head and each distinct nonzero right-hand
    side is formatted once per call, into caches local to the call. A zero
    right-hand side is looked up by its sign, because 0.0 and -0.0 are one
    dict key but print "0" and "-0".
    """
    heads = _TermHeads()
    rhs_texts = _RhsTexts()
    out: list[str] = [f"\\ {note}" for note in model.notes]
    out.append("Minimize")
    _wrap(out, " obj:", _format_terms(model.objective, heads))
    out.append("Subject To")
    for name, _family, coeffs, sense, rhs in model.rows:
        tokens = _format_terms(coeffs, heads)
        tokens.append(sense)
        tokens.append(rhs_texts[rhs] if rhs else _ZERO_RHS[math.copysign(1.0, rhs)])
        _wrap(out, f" {name}:", tokens)
    free_vars = [name for name, kind in model.variables if kind == "free"]
    if free_vars:
        out.append("Bounds")
        out.extend(f" {name} free" for name in free_vars)
    binaries = [name for name, kind in model.variables if kind == "binary"]
    if binaries:
        out.append("Binaries")
        _wrap(out, " ", binaries)
    out.append("End")
    return "\n".join(out) + "\n"


# -- substitution oracle -----------------------------------------------------


class RowCheck(NamedTuple):
    """One row an assignment breaks; its slack is negative (or NaN)."""

    name: str
    family: str
    lhs: float
    sense: str
    rhs: float
    slack: float


@dataclass(frozen=True)
class SubstitutionReport:
    """The rows an assignment breaks: ``failing`` holds their checks, in row
    order. A plain value, compared by value."""

    failing: tuple[RowCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.failing

    def failures(self) -> tuple[RowCheck, ...]:
        """The failing rows' checks, in row order."""
        return self.failing


def _lhs(coeffs: Sequence[tuple[str, float]], values: Mapping[str, float]) -> float:
    """sum(coeff * value) over the terms, with compensated summation."""
    return math.fsum([c * float(values[n]) for n, c in coeffs])


def _slack(sense: str, rhs: float, lhs: float) -> float:
    """Distance of ``lhs`` inside the bound ``sense rhs``; negative when violated."""
    if sense == "<=":
        return rhs - lhs
    if sense == ">=":
        return lhs - rhs
    return -abs(lhs - rhs)


def substitute(model: MilpModel, values: Mapping[str, float]) -> SubstitutionReport:
    """Evaluate every row at a concrete assignment; the report holds the
    rows that fail.

    Every model variable must be present in ``values`` (extra keys are
    ignored); rows are checked with compensated summation, and a row fails
    when its slack is below 0. Only eq3, eq4 and the rows holding a variable
    whose value ``!=`` its ``model.baseline`` value are re-summed; every
    other row holds, as at the baseline (see ``build_model``). That is
    bit-identical to re-summing every row: a value equal to 0.0 or 1.0
    converts to a float of that value (a zero possibly negative), and
    ``math.fsum`` skips zero terms and returns +0.0 for none, so the row's
    terms and sum are the baseline's. A NaN or a value of another type that
    compares unequal is re-summed as any other change. Of
    ``assignment_values``' overlay only the path's own map is compared.
    """
    base = model.baseline
    own = _path_map(model, values)
    if own is not None:
        changed = [n for n, v in own.items() if n in base and v != base[n]]
    else:
        try:
            changed = [name for name, value in base.items() if values[name] != value]
        except KeyError:
            missing = model.variable_names() - set(values)
            raise ValueError(
                f"assignment is missing {len(missing)} variable(s), e.g. {sorted(missing)[0]}"
            ) from None
    rows, rows_of = model.rows, model._rows_of
    # eq3 and eq4 are rows 0 and 1. Row order: a bad value raises as in a full pass.
    touched = sorted({0, 1, *(r for name in changed for r in rows_of.get(name, ()))})
    failing = []
    for r in touched:
        name, family, coeffs, sense, rhs = rows[r]
        lhs = _lhs(coeffs, values)
        slack = _slack(sense, rhs, lhs)
        if not slack >= 0.0:
            failing.append(RowCheck(name, family, lhs, sense, rhs, slack))
    return SubstitutionReport(tuple(failing))


def objective_value(model: MilpModel, values: Mapping[str, float]) -> float:
    """The objective at ``values``, with compensated summation.

    On ``assignment_values``' overlay only the terms of the path's own map
    are summed. Every objective variable (``x``, ``u``, ``dp``) is 0.0 in
    ``model.baseline``, so the other terms are zeros; ``math.fsum`` rounds
    the exact sum once and returns +0.0 for a zero sum, so leaving them out
    is bit-identical. Any other mapping sums every term.
    """
    own = _path_map(model, values)
    if own is None:
        return _lhs(model.objective, values)
    coeffs = model._objective_coeffs
    return _lhs([(name, coeffs[name]) for name in own if name in coeffs], values)


def _path_map(model: MilpModel, values: Mapping[str, float]) -> Mapping[str, float] | None:
    """The path's own map when ``values`` is ``assignment_values``' overlay on
    ``model.baseline``, else None."""
    if isinstance(values, ChainMap) and len(values.maps) == 2 and values.maps[1] is model.baseline:
        return values.maps[0]
    return None


def assignment_values(
    model: MilpModel,
    env: Environment,
    cells: Sequence[Cell],
    entry_levels: Sequence[int],
) -> ChainMap[str, float]:
    """Full variable assignment encoding one feasible path.

    ``ChainMap(changes, model.baseline)``: unused arcs keep the baseline's
    all-zero block with the ascent flag set (y=1, yp=0), which satisfies
    every split row when all deltas are zero. Used arcs set their X (and,
    from the second arc on, U product), signed and split altitude changes,
    flags by direction, and the gated products.
    """
    spec = env.spec
    if len(cells) != len(entry_levels):
        raise ValueError("cells and entry_levels must have equal length")
    if len(cells) < 2 or cells[0] != spec.start_cell or cells[-1] != spec.goal_cell:
        raise ValueError("assignment must walk from the start cell to the goal cell")
    if entry_levels[0] != spec.start_level:
        raise ValueError("assignment must begin at the instance's start level")
    h = spec.levels_m
    values = ChainMap({}, model.baseline)
    for t in range(len(cells) - 1):
        i, j = cells[t], cells[t + 1]
        kf, kt = entry_levels[t], entry_levels[t + 1]
        x = x_name(i, j, kt)
        if x not in model.baseline:
            raise ValueError(f"path step {i}->{j} has no arc variable in the model")
        values[x] = 1.0
        if t >= 1:
            values[u_name(cells[t - 1], i, j, kt, kf)] = 1.0
        dh = h[kt] - h[kf]
        values[arc_var("d", i, j)] = dh
        if dh > 0.0:
            values[arc_var("dp", i, j)] = dh
            values[arc_var("pp", i, j)] = dh
        elif dh < 0.0:
            values[arc_var("dm", i, j)] = -dh
            values[arc_var("pm", i, j)] = -dh
            values[arc_var("y", i, j)] = 0.0
            values[arc_var("yp", i, j)] = 1.0
    return values


# -- mutation testing --------------------------------------------------------


def violate_row(row: LpRow, base: Mapping[str, float]) -> tuple[str, float]:
    """The one change to ``base``, as (variable, new value), that makes
    ``row`` fail.

    Picks the row's first nonzero-coefficient variable and pushes the row's
    left-hand side past its bound by a margin of 1 + |rhs|.
    """
    _, _, coeffs, sense, rhs = row
    name, coeff = coeffs[0]
    margin = 1.0 + abs(rhs)
    target = rhs + margin
    if _slack(sense, rhs, target) >= 0.0:  # a ">=" row fails below its rhs
        target = rhs - margin
    return name, float(base[name]) + (target - _lhs(coeffs, base)) / coeff


def mutation_test(model: MilpModel, base: Mapping[str, float]) -> dict[str, bool]:
    """For every row family: does some row of that family fail once
    ``violate_row``'s change is applied? The base assignment itself must
    pass ``substitute``.

    The change touches one variable, and each row is judged on its own
    result, so only the broken row is re-evaluated, by the same row sum and
    sense rule as ``substitute``. A caught family's other rows are skipped.
    """
    base_report = substitute(model, base)
    if not base_report.ok:
        first = base_report.failures()[0]
        raise ValueError(f"base assignment already violates {first.name}")
    caught: dict[str, bool] = {family: False for family in model.families()}
    for row in model.rows:
        _, family, coeffs, sense, rhs = row
        if caught[family]:
            continue
        name, value = violate_row(row, base)
        lhs = math.fsum([c * (value if n == name else float(base[n])) for n, c in coeffs])
        caught[family] = not _slack(sense, rhs, lhs) >= 0.0  # substitute's failure rule
    return caught
