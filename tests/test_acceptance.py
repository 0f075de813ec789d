"""End-to-end acceptance checks.

Every test here guards one release criterion at its stated tolerance and
prints a single verdict line (``ACCEPTANCE NN <name>: PASS/FAIL``), so a
verbose run reads as a checklist. Criteria are never relaxed: each one
either holds on the frozen fixtures or the suite fails.
"""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np

from overfly import (
    AlgoConfig,
    DroneParams,
    FrontSummary,
    GenerationError,
    GeneratorSettings,
    NormBounds,
    OperatorConfig,
    air_density,
    chromosome_arcs,
    crossover,
    enumerate_front,
    evaluate,
    evaluate_assignment,
    generate,
    hypervolume_2d,
    initialize,
    iter_assignments,
    mutate,
    pearson,
    relative_hv_table,
    run,
    save_instance,
    segment_energy,
    shared_reference,
    table_csv,
    validate,
)
from overfly.cli import main, oracle_hv_ratio
from overfly.milp import arc_var, assignment_values, build_model, mutation_test, substitute
from overfly.physics import MAX_MODEL_ALTITUDE_M

from helpers import all_simple_paths, raster_hv

PARAMS = DroneParams()


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1: search quality against the exhaustive oracle --------------------------


def test_criterion_01_search_matches_exhaustive_oracle():
    """20 seed-fixed random 4x4, 3-level worlds: NSGA-II at population 40 and
    8000 evaluations reaches >= 0.95x the exhaustive front's hypervolume,
    both sides measured against the exact front's shared reference, in under
    five minutes total."""
    t0 = time.perf_counter()
    ratios = []
    for i in range(20):
        env = generate(GeneratorSettings(rows=4, cols=4, level_count=3), 2020 + i)
        result = run(
            env,
            PARAMS,
            AlgoConfig(
                algorithm="nsga2", population_size=40, evaluation_budget=8000, seed=i
            ),
        )
        ratios.append(oracle_hv_ratio(env, PARAMS, result))
    elapsed = time.perf_counter() - t0
    ok = min(ratios) >= 0.95 and elapsed < 300.0
    verdict(
        1,
        "search_matches_exhaustive_oracle",
        ok,
        f"min ratio {min(ratios):.4f} over 20 instances, {elapsed:.0f}s",
    )


# -- 2: operator closure -------------------------------------------------------


def test_criterion_02_operator_closure():
    """1e5 randomly seeded operator applications across the size ladder emit
    only chromosomes that pass validation."""
    suite = [
        (4, 4, 3, 0.15, 101),
        (6, 6, 3, 0.25, 102),
        (8, 8, 4, 0.20, 103),
        (10, 10, 4, 0.30, 104),
        (12, 12, 5, 0.20, 105),
    ]
    applications = 0
    failures = 0
    opcfg = OperatorConfig()
    for rows, cols, levels, density, seed in suite:
        env = generate(
            GeneratorSettings(
                rows=rows,
                cols=cols,
                level_count=levels,
                obstacle_density=density,
                ceiling_fraction=0.15,
                risk_low=0.05,
                risk_high=0.95,
            ),
            seed,
        )
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(200):
            ch = initialize(env, rng)
            applications += 1
            failures += not validate(ch, env).ok
            pool.append(ch)
        for _ in range(6600):
            pa = pool[int(rng.integers(len(pool)))]
            pb = pool[int(rng.integers(len(pool)))]
            c1, c2 = crossover(pa, pb, env, rng)
            applications += 1
            m1 = mutate(c1, opcfg, env, rng)
            m2 = mutate(c2, opcfg, env, rng)
            applications += 2
            for ch in (c1, c2, m1, m2):
                failures += not validate(ch, env).ok
            pool.append(m1)
            pool.append(m2)
            if len(pool) > 240:
                del pool[: len(pool) - 240]
    ok = applications == 100_000 and failures == 0
    verdict(
        2,
        "operator_closure",
        ok,
        f"{applications} applications, {failures} validation failures",
    )


# -- 3: the two evaluators agree ------------------------------------------------


def test_criterion_03_dual_evaluator_agreement():
    """Chromosome-form and arc-form evaluation agree within 1e-9 relative on
    all three objectives for 1e3 random chromosomes."""

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    worlds = [
        GeneratorSettings(rows=5, cols=5, level_count=3, obstacle_density=0.2,
                          ceiling_fraction=0.2, risk_low=0.1, risk_high=0.9),
        GeneratorSettings(rows=8, cols=6, level_count=4, obstacle_density=0.3,
                          risk_low=0.0, risk_high=1.0),
        GeneratorSettings(rows=10, cols=10, level_count=4, obstacle_density=0.25,
                          ceiling_fraction=0.1, risk_low=0.05, risk_high=0.95),
        GeneratorSettings(rows=3, cols=9, level_count=2, obstacle_density=0.15,
                          risk_low=0.3, risk_high=0.7),
    ]
    checked = 0
    worst = 0.0
    for w_idx, settings in enumerate(worlds):
        env = generate(settings, 300 + w_idx)
        rng = np.random.default_rng(w_idx)
        for _ in range(250):
            ch = initialize(env, rng)
            direct = evaluate(ch, env, PARAMS)
            arcform = evaluate_assignment(chromosome_arcs(ch), env, PARAMS)
            for a, b in zip(direct.as_tuple(), arcform.as_tuple()):
                worst = max(worst, rel(a, b))
            checked += 1
    ok = checked == 1000 and worst <= 1e-9
    verdict(
        3,
        "dual_evaluator_agreement",
        ok,
        f"{checked} chromosomes, worst relative gap {worst:.2e}",
    )


# -- 4: exported LP rows are sound and mutation-covered --------------------------


def _tiny_lp_worlds(count: int = 10):
    """Deterministic scan for small worlds exercising obstacles, reduced
    ceilings, and multiple levels, with a bounded enumeration size."""
    shapes = [(2, 3, 2), (3, 3, 2), (2, 3, 3), (3, 3, 3)]
    found = []
    seed = 0
    while len(found) < count and seed < 3000:
        rows, cols, levels = shapes[seed % len(shapes)]
        try:
            env = generate(
                GeneratorSettings(
                    rows=rows,
                    cols=cols,
                    level_count=levels,
                    obstacle_density=0.35,
                    ceiling_fraction=0.4,
                    risk_low=0.1,
                    risk_high=0.9,
                ),
                7000 + seed,
            )
        except GenerationError:
            seed += 1
            continue
        top = env.spec.levels_m[-1]
        has_obstacle = bool((env.obstacle_m > 0.0).any())
        has_ceiling = bool((env.ceiling_m < top).any())
        paths = all_simple_paths(env)
        n_assignments = sum(len(list(iter_assignments(env, p))) for p in paths)
        if has_obstacle and has_ceiling and 2 <= n_assignments <= 400:
            found.append(env)
        seed += 1
    return found


def test_criterion_04_lp_rows_sound_and_mutation_covered():
    """On 10 tiny worlds: every enumerated feasible assignment satisfies every
    exported LP row; the linearized altitude-change and gated-product values
    equal direct recomputation exactly; and every constraint family is
    violated by at least one corrupted assignment."""
    worlds = _tiny_lp_worlds()
    assert len(worlds) == 10, f"only {len(worlds)} qualifying tiny worlds found"
    n_assignments = 0
    row_failures = 0
    value_mismatches = 0
    families_uncovered: set[str] = set()
    for env in worlds:
        model = build_model(env, PARAMS)
        h = env.spec.levels_m
        first_values = None
        for cells in all_simple_paths(env):
            for entry_levels in iter_assignments(env, cells):
                values = assignment_values(model, env, cells, entry_levels)
                if first_values is None:
                    first_values = values
                report = substitute(model, values)
                row_failures += len(report.failures())
                n_assignments += 1
                for t in range(1, len(cells) - 1):
                    i, j = cells[t], cells[t + 1]
                    dh = h[entry_levels[t + 1]] - h[entry_levels[t]]
                    up = dh if dh > 0.0 else 0.0
                    down = -dh if dh < 0.0 else 0.0
                    pairs = (
                        (arc_var("d", i, j), dh),
                        (arc_var("dp", i, j), up),
                        (arc_var("dm", i, j), down),
                        (arc_var("pp", i, j), up),
                        (arc_var("pm", i, j), down),
                    )
                    for name, expected in pairs:
                        if values[name] != expected:
                            value_mismatches += 1
        coverage = mutation_test(model, first_values)
        families_uncovered |= {fam for fam, hit in coverage.items() if not hit}
    ok = row_failures == 0 and value_mismatches == 0 and not families_uncovered
    verdict(
        4,
        "lp_rows_sound_and_mutation_covered",
        ok,
        f"{n_assignments} assignments across 10 worlds, {row_failures} row "
        f"failures, {value_mismatches} value mismatches, "
        f"uncovered families: {sorted(families_uncovered) or 'none'}",
    )


# -- 5: physics identities --------------------------------------------------------


def test_criterion_05_physics_identities():
    """Sea-level density is exact; density strictly decreases on 1e4 random
    altitude pairs; the climb/descent energy asymmetry equals W*g*dh within
    1e-12; flat-segment energy matches the closed form within 1e-12."""
    exact_sea_level = air_density(0.0, PARAMS) == PARAMS.sea_level_density_kgm3

    rng = np.random.default_rng(12345)
    alts = rng.uniform(0.0, MAX_MODEL_ALTITUDE_M * 0.999, size=(10_000, 2))
    monotone = True
    for a, b in alts:
        lo, hi = (a, b) if a < b else (b, a)
        if hi - lo < 1e-9:
            continue
        if not air_density(hi, PARAMS) < air_density(lo, PARAMS):
            monotone = False
            break

    asym_worst = 0.0
    flat_worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(0.1, 100.0))
        dh = float(rng.uniform(0.1, 100.0))
        rho = float(rng.uniform(0.5, 1.3))
        up = segment_energy(d, dh, rho, PARAMS)
        down = segment_energy(d, -dh, rho, PARAMS)
        expected_gap = PARAMS.weight_kg * PARAMS.gravity * dh
        asym_worst = max(
            asym_worst, abs((up - down) - expected_gap) / max(1.0, expected_gap)
        )
        flat = segment_energy(d, 0.0, rho, PARAMS)
        closed_form = (
            PARAMS.energy_coefficient / math.sqrt(rho) * d / PARAMS.speed_mps
        )
        flat_worst = max(flat_worst, abs(flat - closed_form) / max(1.0, closed_form))
    ok = exact_sea_level and monotone and asym_worst <= 1e-12 and flat_worst <= 1e-12
    verdict(
        5,
        "physics_identities",
        ok,
        f"sea level exact: {exact_sea_level}, monotone: {monotone}, "
        f"asymmetry gap {asym_worst:.1e}, flat-form gap {flat_worst:.1e}",
    )


# -- 6: hypervolume against the raster oracle --------------------------------------


def test_criterion_06_hypervolume_matches_raster_oracle():
    """The sweep hypervolume matches a coordinate-compression raster oracle
    within 1e-9 relative on 100 random fronts, and returns 6.0 exactly on the
    worked three-point front."""
    worked = hypervolume_2d([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        ref = (10.5, 10.5)
        got = hypervolume_2d(pts, ref)
        want = raster_hv([tuple(p) for p in pts], ref)
        worst = max(worst, abs(got - want) / max(1.0, want))
    ok = worked == 6.0 and worst <= 1e-9
    verdict(
        6,
        "hypervolume_matches_raster_oracle",
        ok,
        f"worked example {worked}, worst relative gap {worst:.2e} on 100 fronts",
    )


# -- 7: length and energy move together ---------------------------------------------


def test_criterion_07_length_energy_correlation():
    """On a 10x10, 4-level world the first two objectives of 1000 random
    chromosomes correlate with r >= 0.8; on a single-level world r == 1
    within 1e-12."""
    env = generate(GeneratorSettings(rows=10, cols=10, level_count=4), 7)
    rng = np.random.default_rng(123)
    z1, z2 = [], []
    for _ in range(1000):
        v = evaluate(initialize(env, rng), env, PARAMS)
        z1.append(v.length_m)
        z2.append(v.energy_j)
    r_multi = pearson(z1, z2)

    flat = generate(GeneratorSettings(rows=10, cols=10, level_count=1), 5)
    rng = np.random.default_rng(9)
    z1f, z2f = [], []
    for _ in range(200):
        v = evaluate(initialize(flat, rng), flat, PARAMS)
        z1f.append(v.length_m)
        z2f.append(v.energy_j)
    r_flat = pearson(z1f, z2f)
    ok = r_multi >= 0.8 and abs(r_flat - 1.0) <= 1e-12
    verdict(
        7,
        "length_energy_correlation",
        ok,
        f"r = {r_multi:.4f} on 1000 draws, |r-1| = {abs(r_flat - 1.0):.1e} flat",
    )


# -- 8: comparison table mechanics ----------------------------------------------------


def test_criterion_08_table_single_winner_and_formatting():
    """With pairwise-distinct hypervolumes, the relative table shows exactly
    one 100.00% entry per instance row, all cells carrying two decimals."""
    summaries = [
        FrontSummary("T2-1", "spea2", True, 0.91),
        FrontSummary("T2-1", "nsga2", True, 0.87),
        FrontSummary("T2-1", "nsga3", True, 0.79),
        FrontSummary("T10-1", "spea2", True, 0.42),
        FrontSummary("T10-1", "nsga2", True, 0.55),
        FrontSummary("T10-1", "nsga3", True, 0.31),
        FrontSummary("T3-2", "spea2", True, 0.64),
        FrontSummary("T3-2", "nsga2", True, 0.66),
        FrontSummary("T3-2", "nsga3", True, 0.65),
    ]
    scored = relative_hv_table(summaries)
    csv_text = table_csv(scored)
    lines = csv_text.strip().split("\n")
    rows_ok = True
    for line in lines[1:]:
        cells = [c for c in line.split(",")[1:]]
        if cells.count("100.00") != 1:
            rows_ok = False
        for cell in cells:
            if cell and (len(cell.split(".")[-1]) != 2):
                rows_ok = False
    ok = rows_ok and len(lines) == 4
    verdict(
        8,
        "table_single_winner_and_formatting",
        ok,
        f"{len(lines) - 1} instance rows, one 100.00 each: {rows_ok}",
    )


# -- 9: elitist trace monotonicity ------------------------------------------------------


def test_criterion_09_hv_trace_monotone_all_algorithms(tmp_path):
    """Against its fixed per-run reference, the hypervolume trace never
    decreases, for all three algorithms on every generated suite instance."""
    assert main(["gen", "--seed", "0", "--out", str(tmp_path)]) == 0
    instances = sorted(tmp_path.glob("T*.json"))
    assert len(instances) == 20
    from overfly import load_instance

    violations = []
    runs = 0
    for path in instances:
        env = load_instance(path)
        for algo in ("nsga2", "nsga3", "spea2"):
            result = run(
                env,
                PARAMS,
                AlgoConfig(
                    algorithm=algo,
                    population_size=20,
                    evaluation_budget=400,
                    archive_size=20,
                    seed=11,
                ),
            )
            runs += 1
            values = [hv for _, hv in result.hv_trace]
            for a, b in zip(values, values[1:]):
                if b < a - 1e-12:
                    violations.append((path.name, algo))
                    break
    ok = runs == 60 and not violations
    verdict(
        9,
        "hv_trace_monotone_all_algorithms",
        ok,
        f"{runs} runs, violations: {violations or 'none'}",
    )


# -- 10: repeated solve is byte-identical ---------------------------------------------------


def test_criterion_10_repeated_solve_byte_identical(tmp_path):
    """Running the solve command twice with the same config and seeds yields
    byte-identical front files, and the tables built from them are
    byte-identical too."""
    env = generate(GeneratorSettings(rows=3, cols=3, level_count=2), 21)
    save_instance(env, tmp_path / "world.json")
    config = {
        "instances": ["world.json"],
        "algorithms": ["nsga2", "spea2"],
        "tuned": [False],
        "seeds": [0, 1],
        "population_size": 8,
        "evaluation_budget": 80,
        "archive_size": 8,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"runs_{tag}"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        fronts = sorted(out.glob("*.front.json"))
        table_dir = tmp_path / f"table_{tag}"
        assert main(["table", *map(str, fronts), "--out", str(table_dir)]) == 0
        outs.append((out, table_dir))

    (out_a, tab_a), (out_b, tab_b) = outs
    mismatched = []
    for fa in sorted(out_a.glob("*.front.json")) + sorted(out_a.glob("*.convergence.csv")):
        fb = out_b / fa.name
        if fa.read_bytes() != fb.read_bytes():
            mismatched.append(fa.name)
    for name in ("table.csv", "table.txt"):
        if (tab_a / name).read_bytes() != (tab_b / name).read_bytes():
            mismatched.append(name)
    n_fronts = len(list(out_a.glob("*.front.json")))
    ok = n_fronts == 4 and not mismatched
    verdict(
        10,
        "repeated_solve_byte_identical",
        ok,
        f"{n_fronts} front files + 2 tables compared, mismatches: {mismatched or 'none'}",
    )
