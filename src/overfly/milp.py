"""Exact integer-program export of the path-planning model.

Builds the full linearized formulation over binary arc-level choices and
writes it in CPLEX-LP text. Row labels use the wire families eq3..eq23 (flow,
altitude windows, altitude-change definitions, product linearization, and
ascent/descent splitting), plus add_ub tightening rows and an optional
risk_cap row. The module also substitutes concrete assignments into every
row (the exporter's correctness oracle) and manufactures deliberately
violated assignments for mutation-testing that oracle.

No solver is invoked here; the text is meant for external tools, and the
exact Pareto front comes from the enumeration module instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .environment import Cell, Environment
from .exact import EnumerationCaps, check_caps
from .physics import DroneParams
from .solution import NormBounds, arc_costs

OBJECTIVES = ("z1", "weighted", "epsilon")

_SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class LpVar:
    """One model variable: binary, nonnegative continuous, or free."""

    name: str
    kind: str  # "binary" | "nonneg" | "free"

    def __post_init__(self) -> None:
        if self.kind not in ("binary", "nonneg", "free"):
            raise ValueError(f"unknown variable kind {self.kind!r}")


@dataclass(frozen=True)
class LpRow:
    """One constraint row: sum(coeff * var) sense rhs."""

    name: str
    family: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        if not self.coeffs:
            raise ValueError(f"row {self.name} has no terms")


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
    objective_label: str
    big_m: float
    arcs: tuple[tuple[Cell, Cell], ...]
    notes: tuple[str, ...]

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({row.family for row in self.rows}))

    def variable_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.variables)


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
    """Strictly exceeds every altitude span, ceiling, and obstacle height."""
    spec = env.spec
    span = spec.levels_m[-1] - spec.levels_m[0]
    ceilings = max(float(env.cell_data(c).ceiling_m) for c in env.cells())
    obstacles = max(float(env.cell_data(c).obstacle_m) for c in env.cells())
    return 1.0 + max(span, ceilings, obstacles)


def build_model(
    env: Environment,
    params: DroneParams,
    objective: str = "z1",
    *,
    weight: float = 0.5,
    bounds: NormBounds | None = None,
    risk_cap: float | None = None,
    big_m: float | None = None,
    caps: EnumerationCaps | None = None,
) -> MilpModel:
    """Assemble every variable family and constraint row for an instance.

    Objectives: ``z1`` (total 3D length), ``weighted`` (fixed-weight blend
    of min-max normalized length and traversal-plus-climb energy; requires
    ``bounds``; the affine constant of the normalization is dropped), or
    ``epsilon`` (length objective plus a risk_cap row bounding accumulated
    risk by ``risk_cap``).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    if objective == "weighted":
        if bounds is None:
            raise ValueError("weighted objective requires normalization bounds")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
    if objective == "epsilon":
        if risk_cap is None or risk_cap < 0.0:
            raise ValueError("epsilon objective requires a nonnegative risk_cap")
    check_caps(env, caps or EnumerationCaps())

    spec = env.spec
    start, goal = spec.start_cell, spec.goal_cell
    h = spec.levels_m
    h_start = h[spec.start_level]
    level_ids = range(spec.level_count)
    m_value = default_big_m(env) if big_m is None else float(big_m)
    if m_value <= max(h[-1] - h[0], 0.0):
        raise ValueError("big_m must exceed the largest altitude span")

    variables: list[LpVar] = []
    rows: list[LpRow] = []
    arcs: list[tuple[Cell, Cell]] = []

    for i in env.cells():
        for j in env.successors(i):
            arcs.append((i, j))
    for i, j in arcs:
        for k in level_ids:
            variables.append(LpVar(x_name(i, j, k), "binary"))
    u_index: list[tuple[Cell, Cell, Cell, int, int]] = []
    for i, j in arcs:
        if i == start:
            continue
        for g in env.predecessors(i):
            for k in level_ids:
                for kp in level_ids:
                    u_index.append((g, i, j, k, kp))
                    variables.append(LpVar(u_name(g, i, j, k, kp), "binary"))
    for i, j in arcs:
        variables.append(LpVar(arc_var("d", i, j), "free"))
        variables.append(LpVar(arc_var("dp", i, j), "nonneg"))
        variables.append(LpVar(arc_var("dm", i, j), "nonneg"))
        variables.append(LpVar(arc_var("y", i, j), "binary"))
        variables.append(LpVar(arc_var("yp", i, j), "binary"))
        variables.append(LpVar(arc_var("pp", i, j), "nonneg"))
        variables.append(LpVar(arc_var("pm", i, j), "nonneg"))

    def add_row(
        name: str,
        family: str,
        coeffs: Sequence[tuple[str, float]],
        sense: str,
        rhs: float,
    ) -> None:
        trimmed = tuple((n, float(c)) for n, c in coeffs if c != 0.0)
        if not trimmed:
            return  # all-zero coefficients carry no constraint
        rows.append(LpRow(name, family, trimmed, sense, float(rhs)))

    # eq3/eq4/eq6: depart the start once, enter the goal once, never leave it.
    add_row(
        "eq3",
        "eq3",
        [(x_name(start, j, k), 1.0) for j in env.successors(start) for k in level_ids],
        "=",
        1.0,
    )
    add_row(
        "eq4",
        "eq4",
        [(x_name(i, goal, k), 1.0) for i in env.predecessors(goal) for k in level_ids],
        "=",
        1.0,
    )
    if env.successors(goal):
        add_row(
            "eq6",
            "eq6",
            [(x_name(goal, j, k), 1.0) for j in env.successors(goal) for k in level_ids],
            "=",
            0.0,
        )

    # eq5: flow balance on every intermediate cell.
    for i in env.cells():
        if i in (start, goal):
            continue
        coeffs = [(x_name(i, j, k), 1.0) for j in env.successors(i) for k in level_ids]
        coeffs += [(x_name(g, i, k), -1.0) for g in env.predecessors(i) for k in level_ids]
        add_row(f"eq5_{_cn(i)}", "eq5", coeffs, "=", 0.0)

    # eq7/eq8: entry altitude above the obstacle (big-M gated) and below the
    # ceiling, for every arc into every non-start cell.
    for j in env.cells():
        if j == start:
            continue
        data = env.cell_data(j)
        for i in env.predecessors(j):
            add_row(
                f"eq7_{_arc(i, j)}",
                "eq7",
                [(x_name(i, j, k), h[k] - m_value) for k in level_ids],
                ">=",
                float(data.obstacle_m) - m_value,
            )
            add_row(
                f"eq8_{_arc(i, j)}",
                "eq8",
                [(x_name(i, j, k), h[k]) for k in level_ids],
                "<=",
                float(data.ceiling_m),
            )

    # eq9 (start arcs) and eq11 (product form): altitude-change definitions.
    for i, j in arcs:
        if i == start:
            coeffs = [(arc_var("d", i, j), 1.0)]
            coeffs += [(x_name(i, j, k), -(h[k] - h_start)) for k in level_ids]
            add_row(f"eq9_{_arc(i, j)}", "eq9", coeffs, "=", 0.0)
        else:
            coeffs = [(arc_var("d", i, j), 1.0)]
            coeffs += [
                (u_name(g, i, j, k, kp), -(h[k] - h[kp]))
                for g in env.predecessors(i)
                for k in level_ids
                for kp in level_ids
            ]
            add_row(f"eq11_{_arc(i, j)}", "eq11", coeffs, "=", 0.0)

    # eq12/eq13: product variable pinned between the two arc choices; add_ub
    # rows are the extra per-factor upper bounds (not part of the printed
    # family, flagged by their own label).
    for g, i, j, k, kp in u_index:
        u = u_name(g, i, j, k, kp)
        xa = x_name(i, j, k)
        xb = x_name(g, i, kp)
        tag = f"{_cn(g)}_{_arc(i, j)}_k{k}_kp{kp}"
        add_row(f"eq12_{tag}", "eq12", [(u, 1.0), (xa, -1.0), (xb, -1.0)], ">=", -1.0)
        add_row(f"eq13_{tag}", "eq13", [(u, 2.0), (xa, -1.0), (xb, -1.0)], "<=", 0.0)
        add_row(f"add_ub_a_{tag}", "add_ub", [(u, 1.0), (xa, -1.0)], "<=", 0.0)
        add_row(f"add_ub_b_{tag}", "add_ub", [(u, 1.0), (xb, -1.0)], "<=", 0.0)

    # eq15..eq23: ascent/descent split with big-M gating per arc.
    for i, j in arcs:
        d = arc_var("d", i, j)
        dp = arc_var("dp", i, j)
        dm = arc_var("dm", i, j)
        y = arc_var("y", i, j)
        yp = arc_var("yp", i, j)
        pp = arc_var("pp", i, j)
        pm = arc_var("pm", i, j)
        a = _arc(i, j)
        add_row(f"eq15_{a}", "eq15", [(dp, 1.0), (dm, -1.0), (d, -1.0)], "=", 0.0)
        add_row(f"eq16_{a}", "eq16", [(y, 1.0), (yp, 1.0)], "=", 1.0)
        add_row(f"eq17_{a}", "eq17", [(pp, 1.0), (pm, -1.0), (d, -1.0)], "=", 0.0)
        add_row(
            f"eq18_{a}", "eq18", [(pp, 1.0), (dp, -1.0), (y, -m_value)], ">=", -m_value
        )
        add_row(
            f"eq19_{a}", "eq19", [(pp, 1.0), (dp, -1.0), (y, m_value)], "<=", m_value
        )
        add_row(f"eq20_{a}", "eq20", [(pp, 1.0), (y, -m_value)], "<=", 0.0)
        add_row(
            f"eq21_{a}", "eq21", [(pm, 1.0), (dm, -1.0), (yp, -m_value)], ">=", -m_value
        )
        add_row(
            f"eq22_{a}", "eq22", [(pm, 1.0), (dm, -1.0), (yp, m_value)], "<=", m_value
        )
        add_row(f"eq23_{a}", "eq23", [(pm, 1.0), (yp, -m_value)], "<=", 0.0)

    # -- objective coefficients ----------------------------------------------

    # z1 length, z2 traversal energy (the climb term rides on dp), z3 risk.
    costs = arc_costs(env, params)
    z1: dict[str, float] = {}
    z2: dict[str, float] = {}
    z3: dict[str, float] = {}
    for j in env.successors(start):
        geometry = costs.geometry[env.distance(start, j)][spec.start_level]
        for k in level_ids:
            name = x_name(start, j, k)
            z1[name], _, z2[name] = geometry[k]
            z3[name] = costs.risk[start][spec.start_level][k]
    for g, i, j, k, kp in u_index:
        name = u_name(g, i, j, k, kp)
        z1[name], _, z2[name] = costs.geometry[env.distance(i, j)][kp][k]
        z3[name] = costs.risk[i][kp][k]
    for i, j in arcs:
        z2[arc_var("dp", i, j)] = params.weight_kg * params.gravity

    notes = [
        f"big-M constant: {m_value!r}",
        "row family eq23 is emitted as its descent-side upper bound pm <= M*yp;",
        "  an ascent-side lower bound pp >= M*yp would pin pp to M on every",
        "  descent arc and make the split infeasible, so only this corrected",
        "  form is emitted.",
        "rows labeled add_ub tighten the product linearization with per-factor",
        "  upper bounds u <= x; they are additions next to families eq12/eq13.",
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
        add_row("risk_cap", "risk_cap", sorted(z3.items()), "<=", float(risk_cap))

    objective_terms = tuple(sorted((n, c) for n, c in obj.items() if c != 0.0))
    if not objective_terms and variables:
        objective_terms = ((variables[0].name, 0.0),)
    notes.insert(0, f"objective: {label}")

    return MilpModel(
        variables=tuple(variables),
        rows=tuple(rows),
        objective=objective_terms,
        objective_label=label,
        big_m=m_value,
        arcs=tuple(arcs),
        notes=tuple(notes),
    )


# -- LP text -----------------------------------------------------------------


def _format_terms(coeffs: Sequence[tuple[str, float]]) -> list[str]:
    """Tokens like '3.5 x_a', '+ 1 x_b', '- 2 x_c' (first token unsigned)."""
    tokens: list[str] = []
    for pos, (name, coeff) in enumerate(coeffs):
        magnitude = repr(abs(coeff))
        if magnitude.endswith(".0"):
            magnitude = magnitude[:-2]
        if pos == 0:
            head = "-" if coeff < 0 else ""
            tokens.append(f"{head}{magnitude} {name}")
        else:
            sign = "-" if coeff < 0 else "+"
            tokens.append(f"{sign} {magnitude} {name}")
    return tokens


def _wrap(prefix: str, tokens: Sequence[str], indent: str = "      ") -> list[str]:
    lines: list[str] = []
    current = prefix
    for token in tokens:
        candidate = f"{current} {token}"
        if len(candidate) > 72 and current.strip():
            lines.append(current)
            current = f"{indent}{token}"
        else:
            current = candidate
    lines.append(current)
    return lines


def _format_rhs(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def render_lp(model: MilpModel) -> str:
    """CPLEX-LP text: comment header, Minimize, Subject To, Bounds (free
    variables), Binaries, End."""
    out: list[str] = [f"\\ {note}" for note in model.notes]
    out.append("Minimize")
    out.extend(_wrap(" obj:", _format_terms(model.objective)))
    out.append("Subject To")
    for row in model.rows:
        tokens = _format_terms(row.coeffs)
        tokens.append(row.sense)
        tokens.append(_format_rhs(row.rhs))
        out.extend(_wrap(f" {row.name}:", tokens))
    free_vars = [v.name for v in model.variables if v.kind == "free"]
    if free_vars:
        out.append("Bounds")
        out.extend(f" {name} free" for name in free_vars)
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap(" ", binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def export_lp(
    env: Environment,
    params: DroneParams,
    objective: str = "z1",
    *,
    weight: float = 0.5,
    bounds: NormBounds | None = None,
    risk_cap: float | None = None,
    big_m: float | None = None,
    caps: EnumerationCaps | None = None,
) -> str:
    """Build and render the model in one step."""
    model = build_model(
        env,
        params,
        objective,
        weight=weight,
        bounds=bounds,
        risk_cap=risk_cap,
        big_m=big_m,
        caps=caps,
    )
    return render_lp(model)


# -- substitution oracle -----------------------------------------------------


@dataclass(frozen=True)
class RowCheck:
    """One row evaluated at one assignment; slack >= -tol means satisfied."""

    name: str
    family: str
    lhs: float
    sense: str
    rhs: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class SubstitutionReport:
    checks: tuple[RowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RowCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def substitute(
    model: MilpModel, values: Mapping[str, float], tol: float = 0.0
) -> SubstitutionReport:
    """Evaluate every row at a concrete assignment.

    Every model variable must be present in ``values``; rows are checked
    with compensated summation and the given tolerance.
    """
    missing = model.variable_names() - set(values)
    if missing:
        raise ValueError(
            f"assignment is missing {len(missing)} variable(s), e.g. {sorted(missing)[0]}"
        )
    checks: list[RowCheck] = []
    for row in model.rows:
        lhs = math.fsum(c * float(values[n]) for n, c in row.coeffs)
        if row.sense == "<=":
            slack = row.rhs - lhs
        elif row.sense == ">=":
            slack = lhs - row.rhs
        else:
            slack = -abs(lhs - row.rhs)
        checks.append(
            RowCheck(
                name=row.name,
                family=row.family,
                lhs=lhs,
                sense=row.sense,
                rhs=row.rhs,
                slack=slack,
                ok=slack >= -tol,
            )
        )
    return SubstitutionReport(tuple(checks))


def objective_value(model: MilpModel, values: Mapping[str, float]) -> float:
    return math.fsum(c * float(values[n]) for n, c in model.objective)


def assignment_values(
    model: MilpModel,
    env: Environment,
    cells: Sequence[Cell],
    entry_levels: Sequence[int],
) -> dict[str, float]:
    """Full variable assignment encoding one feasible path.

    Unused arcs carry the all-zero block with the ascent flag set (y=1,
    yp=0), which satisfies every split row when all deltas are zero. Used
    arcs set their X (and, from the second arc on, U product), signed and
    split altitude changes, flags by direction, and the gated products.
    """
    spec = env.spec
    if len(cells) != len(entry_levels):
        raise ValueError("cells and entry_levels must have equal length")
    if len(cells) < 2 or cells[0] != spec.start_cell or cells[-1] != spec.goal_cell:
        raise ValueError("assignment must walk from the start cell to the goal cell")
    if entry_levels[0] != spec.start_level:
        raise ValueError("assignment must begin at the instance's start level")
    h = spec.levels_m
    values = {v.name: 0.0 for v in model.variables}
    for i, j in model.arcs:
        values[arc_var("y", i, j)] = 1.0
    for t in range(len(cells) - 1):
        i, j = cells[t], cells[t + 1]
        kf, kt = entry_levels[t], entry_levels[t + 1]
        x = x_name(i, j, kt)
        if x not in values:
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


@dataclass(frozen=True)
class Corruption:
    """A deliberately broken assignment targeting one row."""

    row_name: str
    family: str
    description: str
    values: Mapping[str, float]


def violate_row(
    model: MilpModel, row: LpRow, base: Mapping[str, float]
) -> dict[str, float]:
    """Copy of ``base`` adjusted on one variable so that ``row`` fails.

    Picks the row's first nonzero-coefficient variable and pushes the row's
    left-hand side past its bound by a margin of 1 + |rhs|.
    """
    values = dict(base)
    name, coeff = row.coeffs[0]
    lhs = math.fsum(c * float(values[n]) for n, c in row.coeffs)
    margin = 1.0 + abs(row.rhs)
    if row.sense == "<=":
        target = row.rhs + margin
    elif row.sense == ">=":
        target = row.rhs - margin
    else:
        target = row.rhs + margin
    values[name] = float(values[name]) + (target - lhs) / coeff
    return values


def corruption_suite(model: MilpModel, base: Mapping[str, float]) -> list[Corruption]:
    """One targeted corruption per emitted row (covers every family)."""
    return [
        Corruption(
            row_name=row.name,
            family=row.family,
            description=f"push {row.name} past its bound",
            values=violate_row(model, row, base),
        )
        for row in model.rows
    ]


def mutation_test(model: MilpModel, base: Mapping[str, float], tol: float = 0.0) -> dict[str, bool]:
    """For every row family: does some corruption make a row of that family
    fail substitution? The base assignment itself must pass."""
    base_report = substitute(model, base, tol)
    if not base_report.ok:
        first = base_report.failures()[0]
        raise ValueError(f"base assignment already violates {first.name}")
    caught: dict[str, bool] = {family: False for family in model.families()}
    for corruption in corruption_suite(model, base):
        report = substitute(model, corruption.values, tol)
        for check in report.failures():
            if check.name == corruption.row_name:
                caught[corruption.family] = True
    return caught
