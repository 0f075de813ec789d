"""Multi-objective search with three algorithms, plus rate tuning.

Each run minimizes a blended, normalized length/energy cost against raw path
risk. The result carries the final non-dominated front, a cumulative archive
of everything good seen along the way, and a per-generation hypervolume
trace that never decreases.
"""

from overfly import (
    AlgoConfig,
    DroneParams,
    GeneratorSettings,
    TunerConfig,
    generate,
    run,
    tune,
)

params = DroneParams()
env = generate(
    GeneratorSettings(rows=8, cols=8, level_count=4, obstacle_density=0.25,
                      ceiling_fraction=0.1, risk_low=0.05, risk_high=0.95),
    seed=18,
)
print(env, "\n")

for algo in ("nsga2", "nsga3", "spea2"):
    cfg = AlgoConfig(algorithm=algo, population_size=40, evaluation_budget=2000,
                     archive_size=40, seed=7)
    res = run(env, params, cfg)
    trace = [hv for _, hv in res.hv_trace]
    best = min(res.front, key=lambda m: m.cost)
    print(f"{algo:6s}: front {len(res.front):2d}, archive {len(res.archive):2d}, "
          f"HV {trace[0]:.3f} -> {trace[-1]:.3f} over {res.generations} generations, "
          f"{res.wall_clock_s * 1000:.0f} ms")
    print(f"        cheapest route: {best.objectives.length_m:.1f} m, "
          f"{best.objectives.energy_j:.0f} J, risk {best.objectives.risk:.2f}")

# -- random-search tuning of operator rates ----------------------------------------

base = AlgoConfig(algorithm="nsga2", population_size=20, evaluation_budget=600, seed=7)
result = tune(env, params, base, TunerConfig(budget=6, seed=1, population_sizes=(20, 40)))
print(f"\ntuning tried {len(result.trials)} configurations; best:")
best = result.best
print(f"  population {best.population_size}, crossover {best.operators.crossover_probability:.2f}, "
      f"mutation {best.operators.mutation_probability:.2f} "
      f"at rate {best.operators.mutation_rate:.2f}")
