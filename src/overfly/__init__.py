"""Multi-objective drone path planning over gridded airspace.

A drone flies from a start cell to a goal cell across a rectangular grid at
discrete altitude levels, never moving backward along the west-east axis.
Paths are scored on three objectives — travelled distance, consumed energy
(altitude-dependent air density, asymmetric climb cost), and accumulated
ground risk — and searched with evolutionary algorithms whose results can be
verified against an exact label-setting front and an exported integer program.

Modules:

- ``environment``: grids, obstacles, ceilings, risk maps, instance files.
- ``physics``: air density and per-segment energy.
- ``solution``: chromosomes, validation, the arc-cost table, objective
  evaluation, normalization.
- ``operators``: random-walk initialization, crossover of valid parents,
  mutation, the search's mating loop built from them, and the run's
  block-filled random source.
- ``evolution``: three population-based algorithms plus a random-search tuner.
- ``exact``: the exact front by label setting (under a label budget) and a
  flow checker.
- ``milp``: integer-program construction (under a row limit), LP text
  export, substitution checks.
- ``metrics``: the Pareto filter, hypervolume, shared reference points,
  correlation, tables.
- ``plots``: dependency-free SVG scatter/line rendering and CSV output.
- ``cli``: the ``overfly`` command (gen, solve, tune, table, plot, check,
  lp-export).
"""

from .environment import (
    Environment,
    GenerationError,
    GeneratorSettings,
    GridError,
    GridSpec,
    InstanceFormatError,
    generate,
    has_feasible_path,
    load_instance,
    save_instance,
)
from .evolution import (
    ALGORITHMS,
    AlgoConfig,
    FrontMember,
    RunResult,
    TrialSummary,
    TuneResult,
    TunerConfig,
    combined_points,
    crowding_distance,
    fast_nondominated_sort,
    reference_points,
    run,
    spea2_fitness,
    spea2_truncate,
    tune,
)
from .exact import (
    EnumerationLimitError,
    ExactFront,
    ExactMember,
    FlowError,
    assignment_terms,
    chromosome_arcs,
    enumerate_front,
    evaluate_assignment,
    iter_assignments,
)
from .metrics import (
    FrontSummary,
    MetricError,
    hypervolume_2d,
    nondominated,
    pearson,
    relative_hv_table,
    shared_reference,
    table_csv,
    table_text,
)
from .milp import (
    LpRow,
    LpVar,
    MilpModel,
    RowCheck,
    SubstitutionReport,
    assignment_values,
    build_model,
    default_big_m,
    mutation_test,
    objective_value,
    render_lp,
    substitute,
)
from .operators import (
    InitializationError,
    OperatorConfig,
    OperatorStats,
    breed,
    crossover,
    initialize,
    mutate,
    sample_entry_level,
)
from .physics import (
    DroneParams,
    air_density,
    average_density,
    climb_energy,
    segment_energy,
    traversal_energy,
)
from .solution import (
    ArcCosts,
    Chromosome,
    ChromosomeError,
    NormBounds,
    ObjectiveVector,
    ValidationReport,
    Violation,
    arc_costs,
    evaluate,
    max_risk_between,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgoConfig",
    "ArcCosts",
    "Chromosome",
    "ChromosomeError",
    "DroneParams",
    "EnumerationLimitError",
    "Environment",
    "ExactFront",
    "ExactMember",
    "FlowError",
    "FrontMember",
    "FrontSummary",
    "GenerationError",
    "GeneratorSettings",
    "GridError",
    "GridSpec",
    "InitializationError",
    "InstanceFormatError",
    "LpRow",
    "LpVar",
    "MetricError",
    "MilpModel",
    "NormBounds",
    "ObjectiveVector",
    "OperatorConfig",
    "OperatorStats",
    "RowCheck",
    "RunResult",
    "SubstitutionReport",
    "TrialSummary",
    "TuneResult",
    "TunerConfig",
    "ValidationReport",
    "Violation",
    "air_density",
    "arc_costs",
    "assignment_terms",
    "assignment_values",
    "average_density",
    "breed",
    "build_model",
    "chromosome_arcs",
    "climb_energy",
    "combined_points",
    "crossover",
    "crowding_distance",
    "default_big_m",
    "enumerate_front",
    "evaluate",
    "evaluate_assignment",
    "fast_nondominated_sort",
    "generate",
    "has_feasible_path",
    "hypervolume_2d",
    "initialize",
    "iter_assignments",
    "load_instance",
    "max_risk_between",
    "mutate",
    "mutation_test",
    "nondominated",
    "objective_value",
    "pearson",
    "reference_points",
    "relative_hv_table",
    "render_lp",
    "run",
    "sample_entry_level",
    "save_instance",
    "segment_energy",
    "shared_reference",
    "spea2_fitness",
    "spea2_truncate",
    "substitute",
    "table_csv",
    "table_text",
    "traversal_energy",
    "tune",
    "validate",
]
