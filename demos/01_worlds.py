"""Build, inspect, randomize, and round-trip grid worlds.

A world is a rows x cols grid of ground cells with a shared ladder of
altitude levels. Each cell carries an obstacle top, a local ceiling, and one
risk value per level. Legal moves keep the column from decreasing: north,
south, east, north-east, south-east.
"""

import tempfile
from pathlib import Path

import numpy as np

from overfly import (
    Environment,
    GeneratorSettings,
    GridSpec,
    generate,
    has_feasible_path,
    load_instance,
    save_instance,
)

# -- a tiny hand-built world ---------------------------------------------------

spec = GridSpec(
    rows=3,
    cols=4,
    cell_size_m=10.0,
    levels_m=(0.0, 10.0, 20.0),
    start_cell=(1, 0),
    goal_cell=(1, 3),
    start_level=0,
)
obstacle = np.zeros((3, 4))
obstacle[1, 1] = 15.0           # forces level 2 (20 m) or a lateral detour
ceiling = np.full((3, 4), 20.0)
risk = np.full((3, 4, 3), 0.1)
risk[0, :, :] = 0.6             # the northern lane is dangerous
env = Environment(spec, obstacle_m=obstacle, ceiling_m=ceiling, risk=risk)

print(env)
print("moves from (1, 1):", env.successors((1, 1)))
print("feasible levels over the obstacle cell:", env.feasible_levels((1, 1)))
print("diagonal step length:", round(env.distance((1, 1), (0, 2)), 3), "m")
print("start-to-goal route exists:", has_feasible_path(env))

# -- random worlds ---------------------------------------------------------------

settings = GeneratorSettings(
    rows=6,
    cols=6,
    level_count=4,
    obstacle_density=0.25,
    ceiling_fraction=0.15,
    risk_low=0.05,
    risk_high=0.95,
)
world = generate(settings, seed=42)
blocked = int((world.obstacle_m > 0).sum())
print(f"\nrandom 6x6 world: {blocked} obstacle cells, always start-goal feasible")

# -- file round-trip --------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "world.json"
    save_instance(world, path)
    again = load_instance(path)
    print("round-trip preserves geometry:", again.spec == world.spec)
    print("instance file size:", path.stat().st_size, "bytes")
