"""Exact ground truth and the linear-program export.

Every world of the generated suite admits two independent sources of truth:
the exact Pareto front over every simple path with every feasible level
assignment, found by label setting under a budget of label extensions, and
an exported mixed-integer linear program (up to ``milp.MAX_ROWS`` rows)
whose rows any feasible assignment must satisfy. Both double-check the
evaluators and each other.
"""

from overfly import (
    DroneParams,
    GeneratorSettings,
    enumerate_front,
    evaluate_assignment,
    generate,
    iter_assignments,
)
from overfly.milp import (
    assignment_values,
    build_model,
    mutation_test,
    objective_value,
    render_lp,
    substitute,
)

params = DroneParams()
env = generate(
    GeneratorSettings(rows=3, cols=3, level_count=2, obstacle_density=0.3,
                      ceiling_fraction=0.3, risk_low=0.1, risk_high=0.9),
    seed=7000,
)
print(env)

# -- exact front ----------------------------------------------------------------

front = enumerate_front(env, params)
print(f"\nlabel setting: {front.paths_enumerated} simple paths, "
      f"{front.states_processed} label extensions, {len(front.members)} non-dominated routes")
for m in front.members[:4]:
    print(f"  {m.objectives.length_m:6.1f} m  {m.objectives.energy_j:7.1f} J  "
          f"risk {m.objectives.risk:.3f}  via {m.cells}")

# arc-form evaluation agrees with the front's stored objectives
member = front.members[0]
arcs = tuple(
    (member.cells[t], member.cells[t + 1], member.entry_levels[t + 1])
    for t in range(len(member.cells) - 1)
)
again = evaluate_assignment(arcs, env, params)
print("arc-form evaluator reproduces the front member:",
      again.as_tuple() == member.objectives.as_tuple())

# -- LP export -------------------------------------------------------------------

model = build_model(env, params)
print(f"\nLP model: {len(model.variables)} variables, {len(model.rows)} rows, "
      f"big-M {model.big_m}")

# every feasible assignment satisfies every row; the shortest one scores its length
checked = 0
for levels in iter_assignments(env, member.cells):
    values = assignment_values(model, env, member.cells, levels)
    assert substitute(model, values).ok
    checked += 1
values = assignment_values(model, env, member.cells, member.entry_levels)
print(f"substitution: {checked} assignments of the best path all satisfy the model")
print(f"linear objective {objective_value(model, values):.6f} "
      f"== direct length {member.objectives.length_m:.6f}")

# corrupting an assignment must break at least one row of every family
coverage = mutation_test(model, values)
print(f"mutation test: {sum(coverage.values())}/{len(coverage)} constraint "
      "families caught a corrupted assignment")

text = render_lp(build_model(env, params))
print(f"\nLP text preview ({len(text.splitlines())} lines):")
for line in text.splitlines()[:8]:
    print(" ", line)
