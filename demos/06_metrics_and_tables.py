"""Front quality metrics and the cross-algorithm comparison table.

Hypervolume measures how much of the objective plane a front dominates below
a reference point; a shared reference makes fronts comparable. The relative
table rescales each instance row so its best algorithm reads 100.00%.
"""

from overfly import (
    FrontSummary,
    hypervolume_2d,
    pearson,
    relative_hv_table,
    shared_reference,
    table_csv,
    table_text,
)

# -- hypervolume ------------------------------------------------------------------

front_a = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
front_b = [(1.5, 3.5), (2.5, 2.5)]
print("HV of the staircase front vs (4, 4):", hypervolume_2d(front_a, (4.0, 4.0)))

ref = shared_reference([front_a, front_b])
print(f"shared reference over both fronts: ({ref[0]:.3f}, {ref[1]:.3f})")
print(f"  front A: {hypervolume_2d(front_a, ref):.3f}")
print(f"  front B: {hypervolume_2d(front_b, ref):.3f}")

# -- correlation --------------------------------------------------------------------

lengths = [30.0, 42.0, 48.0, 61.0, 75.0]
energies = [210.0, 265.0, 330.0, 370.0, 480.0]
print(f"\nlength/energy correlation on a toy sample: r = {pearson(lengths, energies):.3f}")

# -- relative tables ------------------------------------------------------------------

summaries = [
    FrontSummary("T2-1", "spea2", True, 0.91),
    FrontSummary("T2-1", "nsga2", True, 0.87),
    FrontSummary("T2-1", "nsga3", True, 0.79),
    FrontSummary("T10-1", "spea2", True, 0.42),
    FrontSummary("T10-1", "nsga2", True, 0.55),
    FrontSummary("T10-1", "nsga3", True, 0.31),
]
scored = relative_hv_table(summaries)
print("\n" + table_text(scored))
print("CSV form:\n" + table_csv(scored))
