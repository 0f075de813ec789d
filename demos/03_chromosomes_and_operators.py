"""Candidate encoding and the three search operators.

A candidate is two parallel rows — the cell path and the entry level at each
cell — plus a scalar weight in [0, 1] used later to blend the length and
energy objectives. The operators are constructive random initialization,
one-point crossover with a rightward-shifting splice repair, and mutation
that resamples a fraction of the entry levels.
"""

from dataclasses import asdict

import numpy as np

from overfly import (
    Chromosome,
    DroneParams,
    GeneratorSettings,
    OperatorConfig,
    OperatorStats,
    crossover,
    evaluate,
    generate,
    initialize,
    mutate,
    validate,
)

params = DroneParams()
env = generate(
    GeneratorSettings(rows=5, cols=5, level_count=3, obstacle_density=0.2,
                      risk_low=0.1, risk_high=0.9),
    seed=3,
)
rng = np.random.default_rng(0)
stats = OperatorStats()

# -- hand-built candidate -------------------------------------------------------

manual = Chromosome(
    cells=((2, 0), (2, 1), (2, 2), (2, 3), (2, 4)),
    entry_levels=(0, 0, 0, 0, 0),
    weight=0.5,
)
report = validate(manual, env)
print("straight path valid:", report.ok)
if not report.ok:
    print("  violations:", [v.rule for v in report.violations])

# -- initialization --------------------------------------------------------------

a = initialize(env, rng, stats)
b = initialize(env, rng, stats)
print("\nwalk A:", a.cells)
print("levels:", a.entry_levels, f"weight {a.weight:.3f}")
print("walk B:", b.cells)
va = evaluate(a, env, params)
print(f"objectives of A: length {va.length_m:.1f} m, "
      f"energy {va.energy_j:.1f} J, risk {va.risk:.3f}")

# -- crossover and mutation -------------------------------------------------------

c1, c2 = crossover(a, b, env, rng, stats)
print("\nchild 1:", c1.cells)
print("child 2:", c2.cells)
always = OperatorConfig(mutation_probability=1.0, mutation_rate=0.5)
m = mutate(c1, always, env, rng, stats)
print("mutated child 1 levels:", c1.entry_levels, "->", m.entry_levels)
print("children valid:", all(validate(ch, env).ok for ch in (c1, c2, m)))

print("\noperator counters:", asdict(stats))
