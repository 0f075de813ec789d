"""Batch command-line front-end.

Subcommands: ``gen`` (write the instance suite), ``solve`` (run algorithms
over instances, tuned and/or untuned), ``tune`` (random-search tuning only),
``table`` (relative-hypervolume table from front files), ``plot`` (CSV + SVG
figures), ``check`` (exact-oracle verification of a tiny instance), and
``lp-export`` (integer-program text). Every command is deterministic given
its config and seeds; outputs are plain files. Exit codes: 0 success,
1 usage or configuration error, 2 run failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import zlib
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .environment import (
    Environment,
    GeneratorSettings,
    generate,
    load_instance,
    save_instance,
)
from .evolution import (
    ALGORITHMS,
    AlgoConfig,
    RunResult,
    TunerConfig,
    combined_points,
    run,
    tune,
)
from .exact import EnumerationCaps, EnumerationLimitError, enumerate_front, chromosome_arcs, evaluate_assignment
from .metrics import (
    FrontSummary,
    hypervolume_2d,
    pearson,
    relative_hv_table,
    shared_reference,
    table_csv,
    table_text,
    MetricError,
)
from .milp import (
    assignment_values,
    build_model,
    mutation_test,
    objective_value,
    render_lp,
    substitute,
)
from .operators import OperatorConfig, initialize
from .physics import DroneParams
from .plots import Series, render_svg, write_csv
from .solution import NormBounds, validate

import numpy as np


class _UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# -- shared helpers ----------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _UsageError(f"{path}: expected a JSON object at the top level")
    return payload


def _dump_json(path: str | Path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _drone_from(config: dict) -> DroneParams:
    try:
        return DroneParams(**config.get("drone", {}))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad drone parameters: {exc}") from exc


def _operators_from(config: dict) -> OperatorConfig:
    try:
        return OperatorConfig(**config.get("operators", {}))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad operator settings: {exc}") from exc


def _require_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- gen ---------------------------------------------------------------------

_SUITE_SIZES: dict[int, tuple[int, int, int]] = {
    1: (4, 4, 3),
    2: (6, 6, 3),
    3: (8, 8, 4),
    4: (10, 10, 4),
    5: (12, 12, 5),
}

_SUITE_DENSITIES: dict[int, float] = {1: 0.15, 2: 0.25, 3: 0.2, 4: 0.3}


def _variant_endpoints(variant: int, rows: int, cols: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if variant == 3:
        return (0, 0), (rows - 1, cols - 1)
    if variant == 4:
        return (rows - 1, 0), (0, cols - 1)
    return (rows // 2, 0), (rows // 2, cols - 1)


def suite_settings(
    seed: int, overrides: dict | None = None
) -> list[tuple[str, GeneratorSettings, int]]:
    """The five-size, four-variant instance suite (T1-1 .. T5-4).

    Sizes grow the grid and level count; variants vary obstacle density and
    the start/goal placement. ``overrides`` replaces generator fields on
    every instance.
    """
    out: list[tuple[str, GeneratorSettings, int]] = []
    for size in range(1, 6):
        rows, cols, levels = _SUITE_SIZES[size]
        for variant in range(1, 5):
            start, goal = _variant_endpoints(variant, rows, cols)
            settings = GeneratorSettings(
                rows=rows,
                cols=cols,
                level_count=levels,
                obstacle_density=_SUITE_DENSITIES[variant],
                ceiling_fraction=0.15,
                risk_low=0.05,
                risk_high=0.95,
                start_cell=start,
                goal_cell=goal,
            )
            if overrides:
                try:
                    settings = replace(settings, **overrides)
                except (TypeError, ValueError) as exc:
                    raise _UsageError(f"bad generator overrides: {exc}") from exc
            out.append((f"T{size}-{variant}", settings, seed * 9973 + size * 101 + variant * 7))
    return out


def _cmd_gen(args: argparse.Namespace) -> int:
    out = _require_out(args)
    config = _load_json(args.config) if args.config else {}
    overrides = config.get("overrides", {})
    listing = []
    for instance_id, settings, inst_seed in suite_settings(args.seed, overrides):
        env = generate(settings, inst_seed)
        path = out / f"{instance_id}.json"
        save_instance(env, path)
        listing.append({"id": instance_id, "file": path.name, "seed": inst_seed})
        print(f"wrote {path}")
    _dump_json(out / "suite.json", {"schema": "overfly.suite/1", "instances": listing})
    return 0


# -- solve / tune ------------------------------------------------------------


def _derived_tuner_seed(base: int, instance_id: str, algorithm: str) -> int:
    return (base + zlib.crc32(f"{instance_id}:{algorithm}".encode())) % (2**31 - 1)


def _tuner_payload(config: dict, derived_seed: int) -> dict:
    tuner = config.get("tuner", {})
    return {
        "budget": int(tuner.get("budget", 100)),
        "seed": derived_seed,
        "crossover_range": tuple(tuner.get("crossover_range", (0.5, 1.0))),
        "mutation_probability_range": tuple(
            tuner.get("mutation_probability_range", (0.01, 0.5))
        ),
        "mutation_rate_range": tuple(tuner.get("mutation_rate_range", (0.05, 1.0))),
        "population_sizes": tuple(tuner.get("population_sizes", (20, 40, 60, 80, 100))),
    }


def _member_payload(member, env: Environment) -> dict:
    levels = env.spec.levels_m
    return {
        "cells": [list(c) for c in member.chromosome.cells],
        "entry_levels": list(member.chromosome.entry_levels),
        "entry_altitudes_m": [levels[k] for k in member.chromosome.entry_levels],
        "weight": member.chromosome.weight,
        "length_m": member.objectives.length_m,
        "energy_j": member.objectives.energy_j,
        "risk": member.objectives.risk,
        "cost": member.combined.cost,
        "combined_risk": member.combined.risk,
    }


def _front_payload(
    result: RunResult, env: Environment, params: DroneParams, meta: dict
) -> dict:
    return {
        "schema": "overfly.front/1",
        "instance": {"id": meta["instance_id"], "path": meta["instance_path"]},
        "algorithm": result.config.algorithm,
        "tuned": meta["tuned"],
        "seed": result.config.seed,
        "config": {
            "population_size": result.config.population_size,
            "evaluation_budget": result.config.evaluation_budget,
            "archive_size": result.config.archive_size,
            "reference_point_divisions": result.config.reference_point_divisions,
            "operators": asdict(result.config.operators),
        },
        "drone": asdict(params),
        "evaluations": result.evaluations,
        "generations": result.generations,
        "bounds": {
            "length_lo": result.bounds.length_lo,
            "length_hi": result.bounds.length_hi,
            "energy_lo": result.bounds.energy_lo,
            "energy_hi": result.bounds.energy_hi,
        },
        "degenerate_normalization": result.degenerate_normalization,
        "trace_reference": list(result.trace_reference),
        "front": [_member_payload(m, env) for m in result.front],
        "archive": [_member_payload(m, env) for m in result.archive],
        "hv_trace": [[e, hv] for e, hv in result.hv_trace],
    }


def oracle_hv_ratio(env: Environment, params: DroneParams, result: RunResult) -> float:
    """Run quality against the exhaustive oracle, in [0, 1] (possibly above
    1 only through float noise).

    Both fronts are measured at weight 0.5 with normalization bounds and the
    reference point taken from the exact front, so the ratio compares like
    with like.
    """
    exact = enumerate_front(env, params)
    triples = np.asarray([m.objectives.as_tuple() for m in exact.members])
    bounds = NormBounds.from_vectors([m.objectives for m in exact.members])
    exact_pts = combined_points(triples, 0.5, bounds)
    ref = shared_reference([exact_pts])
    exact_hv = hypervolume_2d(exact_pts, ref)
    if exact_hv == 0.0:
        return 1.0
    run_triples = np.asarray([m.objectives.as_tuple() for m in result.archive])
    run_pts = combined_points(run_triples, 0.5, bounds)
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        run_hv = hypervolume_2d(run_pts, ref)
    return run_hv / exact_hv


def _execute_job(payload: dict) -> dict:
    """One solver run, isolated: returns a manifest entry, never raises."""
    run_id = payload["run_id"]
    try:
        env = load_instance(payload["instance_path"])
        params = DroneParams(**payload["drone"])
        operators = OperatorConfig(**payload["operators"])
        cfg = AlgoConfig(
            algorithm=payload["algorithm"],
            population_size=payload["population_size"],
            evaluation_budget=payload["evaluation_budget"],
            archive_size=payload["archive_size"],
            reference_point_divisions=payload["reference_point_divisions"],
            operators=operators,
            seed=payload["seed"],
        )
        tuning_info = None
        if payload["tuned"]:
            tuner_cfg = TunerConfig(**payload["tuner"])
            tuned_result = tune(env, params, cfg, tuner_cfg)
            cfg = replace(tuned_result.best, seed=payload["seed"])
            tuning_info = {
                "tuner_seed": payload["tuner"]["seed"],
                "trials": len(tuned_result.trials),
                "best": {
                    "population_size": cfg.population_size,
                    "operators": asdict(cfg.operators),
                },
            }
        result = run(env, params, cfg)
        meta = {
            "instance_id": payload["instance_id"],
            "instance_path": payload["instance_path"],
            "tuned": payload["tuned"],
        }
        front = _front_payload(result, env, params, meta)
        out_dir = Path(payload["out_dir"])
        front_path = out_dir / f"{run_id}.front.json"
        report_path = out_dir / f"{run_id}.report.json"
        conv_path = out_dir / f"{run_id}.convergence.csv"
        _dump_json(front_path, front)
        report = dict(front)
        report["schema"] = "overfly.report/1"
        report["wall_clock_s"] = result.wall_clock_s
        report["operator_stats"] = result.stats.as_dict()
        if tuning_info:
            report["tuning"] = tuning_info
        if payload.get("oracle"):
            report["oracle_hv_ratio"] = oracle_hv_ratio(env, params, result)
        _dump_json(report_path, report)
        write_csv(conv_path, ["evaluations", "hypervolume"], result.hv_trace)
        entry = {
            "run_id": run_id,
            "status": "ok",
            "front": front_path.name,
            "report": report_path.name,
            "convergence": conv_path.name,
            "front_size": len(result.front),
        }
        if payload.get("oracle"):
            entry["oracle_hv_ratio"] = report["oracle_hv_ratio"]
        return entry
    except Exception as exc:  # noqa: BLE001 - per-run isolation by contract
        return _failed_entry(run_id, exc)


def _failed_entry(run_id: str, exc: BaseException) -> dict:
    return {"run_id": run_id, "status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _solve_jobs(args: argparse.Namespace) -> list[dict]:
    config = _load_json(args.config)
    base_dir = Path(args.config).parent
    instances = config.get("instances")
    if not instances or not isinstance(instances, list):
        raise _UsageError("config must list instance files under 'instances'")
    algorithms = args.algo or config.get("algorithms", list(ALGORITHMS))
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise _UsageError(f"unknown algorithm {algo!r}, expected one of {ALGORITHMS}")
    if args.tuned and args.untuned:
        flags = [True, False]
    elif args.tuned:
        flags = [True]
    elif args.untuned:
        flags = [False]
    else:
        flags = [bool(f) for f in config.get("tuned", [False])]
    seeds = args.seed if args.seed else [int(s) for s in config.get("seeds", [0])]
    if not seeds:
        raise _UsageError("at least one seed is required")
    drone = asdict(_drone_from(config))
    operators = asdict(_operators_from(config))
    out = _require_out(args)
    tuner_base = int(config.get("tuner", {}).get("seed", 0))
    jobs: list[dict] = []
    for inst in instances:
        inst_path = (base_dir / inst).resolve() if not Path(inst).is_absolute() else Path(inst)
        instance_id = inst_path.stem
        for algorithm in algorithms:
            for tuned in flags:
                for seed in seeds:
                    run_id = (
                        f"{instance_id}_{algorithm}_{'tuned' if tuned else 'untuned'}_s{seed}"
                    )
                    jobs.append(
                        {
                            "run_id": run_id,
                            "instance_id": instance_id,
                            "instance_path": str(inst_path),
                            "algorithm": algorithm,
                            "tuned": tuned,
                            "seed": int(seed),
                            "population_size": int(config.get("population_size", 100)),
                            "evaluation_budget": int(config.get("evaluation_budget", 10000)),
                            "archive_size": int(config.get("archive_size", 100)),
                            "reference_point_divisions": int(
                                config.get("reference_point_divisions", 99)
                            ),
                            "operators": operators,
                            "drone": drone,
                            "tuner": _tuner_payload(
                                config,
                                _derived_tuner_seed(tuner_base, instance_id, algorithm),
                            ),
                            "oracle": bool(config.get("oracle", False)),
                            "out_dir": str(out),
                        }
                    )
    return jobs


def _cmd_solve(args: argparse.Namespace) -> int:
    jobs = _solve_jobs(args)
    out = _require_out(args)
    if args.workers > 1:
        # One future per job, read in job order: a worker that dies fails
        # only the jobs it breaks, and the manifest is still written.
        entries = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = [pool.submit(_execute_job, job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    entries.append(future.result())
                except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                    entries.append(_failed_entry(job["run_id"], exc))
    else:
        entries = [_execute_job(job) for job in jobs]
    manifest = {
        "schema": "overfly.manifest/1",
        "jobs": entries,
        "total": len(entries),
        "failed": sum(1 for e in entries if e["status"] != "ok"),
    }
    _dump_json(out / "manifest.json", manifest)
    for entry in entries:
        status = entry["status"]
        detail = entry.get("error", entry.get("front", ""))
        print(f"{entry['run_id']}: {status} {detail}".rstrip())
    return 2 if manifest["failed"] else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    base_dir = Path(args.config).parent
    instances = config.get("instances")
    if not instances:
        raise _UsageError("config must list instance files under 'instances'")
    algorithms = args.algo or config.get("algorithms", list(ALGORITHMS))
    drone = _drone_from(config)
    operators = _operators_from(config)
    out = _require_out(args)
    tuner_base = int(config.get("tuner", {}).get("seed", 0))
    failed = 0
    for inst in instances:
        inst_path = (base_dir / inst).resolve() if not Path(inst).is_absolute() else Path(inst)
        instance_id = inst_path.stem
        for algorithm in algorithms:
            try:
                env = load_instance(inst_path)
                base = AlgoConfig(
                    algorithm=algorithm,
                    population_size=int(config.get("population_size", 100)),
                    evaluation_budget=int(config.get("evaluation_budget", 10000)),
                    archive_size=int(config.get("archive_size", 100)),
                    reference_point_divisions=int(
                        config.get("reference_point_divisions", 99)
                    ),
                    operators=operators,
                    seed=0,
                )
                payload = _tuner_payload(
                    config, _derived_tuner_seed(tuner_base, instance_id, algorithm)
                )
                result = tune(env, drone, base, TunerConfig(**payload))
                _dump_json(
                    out / f"{instance_id}_{algorithm}.tuning.json",
                    {
                        "schema": "overfly.tuning/1",
                        "instance": instance_id,
                        "algorithm": algorithm,
                        "tuner": payload,
                        "best": {
                            "population_size": result.best.population_size,
                            "operators": asdict(result.best.operators),
                        },
                        "trials": [asdict(t) for t in result.trials],
                    },
                )
                print(f"{instance_id} {algorithm}: best population "
                      f"{result.best.population_size}")
            except Exception as exc:  # noqa: BLE001 - per-pair isolation
                failed += 1
                print(f"{instance_id} {algorithm}: failed: {exc}", file=sys.stderr)
    return 2 if failed else 0


# -- table -------------------------------------------------------------------


def _read_front_file(path: Path) -> dict:
    payload = _load_json(path)
    if payload.get("schema") not in ("overfly.front/1", "overfly.report/1"):
        raise _UsageError(f"{path} is not a front or report file")
    return payload


def _table_summaries(payloads: list[dict]) -> list[FrontSummary]:
    by_instance: dict[str, list[dict]] = {}
    for payload in payloads:
        by_instance.setdefault(payload["instance"]["id"], []).append(payload)
    summaries: list[FrontSummary] = []
    for instance_id in sorted(by_instance):
        runs = sorted(
            by_instance[instance_id],
            key=lambda p: (p["algorithm"], not p["tuned"], p["seed"]),
        )
        bounds = None
        for p in runs:
            b = NormBounds(
                length_lo=p["bounds"]["length_lo"],
                length_hi=p["bounds"]["length_hi"],
                energy_lo=p["bounds"]["energy_lo"],
                energy_hi=p["bounds"]["energy_hi"],
            )
            bounds = b if bounds is None else bounds.merge(b)
        point_sets = []
        for p in runs:
            triples = np.asarray(
                [[m["length_m"], m["energy_j"], m["risk"]] for m in p["archive"]]
            )
            point_sets.append(combined_points(triples, 0.5, bounds))
        ref = shared_reference(point_sets)
        hvs = [hypervolume_2d(pts, ref) for pts in point_sets]
        cells: dict[tuple[str, bool], list[tuple[int, float, int]]] = {}
        for p, hv in zip(runs, hvs):
            key = (p["algorithm"], bool(p["tuned"]))
            cells.setdefault(key, []).append((p["seed"], hv, len(p["front"])))
        for (algorithm, tuned), rows in sorted(cells.items()):
            rows.sort()
            mean_hv = math.fsum(hv for _, hv, _ in rows) / len(rows)
            summaries.append(
                FrontSummary(
                    instance_id=instance_id,
                    algorithm=algorithm,
                    tuned=tuned,
                    hypervolume=mean_hv,
                    front_size=rows[0][2],
                )
            )
    return summaries


def _cmd_table(args: argparse.Namespace) -> int:
    paths = sorted(Path(p) for p in args.files)
    if not paths:
        raise _UsageError("table needs at least one front or report file")
    payloads = [_read_front_file(p) for p in paths]
    summaries = _table_summaries(payloads)
    table = relative_hv_table(summaries)
    combos = {(s.algorithm, s.tuned) for s in summaries}
    for instance_id in sorted({s.instance_id for s in summaries}):
        present = {(s.algorithm, s.tuned) for s in summaries if s.instance_id == instance_id}
        for combo in sorted(combos):
            if combo not in present:
                tuned_label = "tuned" if combo[1] else "untuned"
                print(
                    f"warning: {instance_id} has no {combo[0]} {tuned_label} entry",
                    file=sys.stderr,
                )
    out = _require_out(args)
    csv_text = table_csv(table)
    txt_text = table_text(table)
    (out / "table.csv").write_text(csv_text, encoding="utf-8")
    (out / "table.txt").write_text(txt_text, encoding="utf-8")
    print(txt_text, end="")
    return 0


# -- plot --------------------------------------------------------------------


def _series_label(payload: dict) -> str:
    tuned = "tuned" if payload["tuned"] else "untuned"
    return f"{payload['instance']['id']} {payload['algorithm']} {tuned} s{payload['seed']}"


def _cmd_plot(args: argparse.Namespace) -> int:
    out = _require_out(args)
    payloads = [(_read_front_file(Path(p)), Path(p)) for p in sorted(args.files)]
    if not payloads:
        raise _UsageError("plot needs at least one front or report file")

    scatter_series: list[Series] = []
    trace_series: list[Series] = []
    corr_lengths: list[float] = []
    corr_energies: list[float] = []
    for payload, path in payloads:
        stem = path.name.removesuffix(".front.json").removesuffix(".report.json")
        label = _series_label(payload)
        front_points = tuple((m["cost"], m["combined_risk"]) for m in payload["front"])
        scatter_series.append(Series(label=label, points=front_points))
        write_csv(
            out / f"{stem}.front.csv",
            ["cost", "risk", "length_m", "energy_j", "weight"],
            [
                (m["cost"], m["combined_risk"], m["length_m"], m["energy_j"], m["weight"])
                for m in payload["front"]
            ],
        )
        trace_points = tuple((float(e), float(hv)) for e, hv in payload["hv_trace"])
        trace_series.append(Series(label=label, points=trace_points, style="line"))
        write_csv(out / f"{stem}.convergence.csv", ["evaluations", "hypervolume"], trace_points)
        for m in payload["archive"]:
            corr_lengths.append(m["length_m"])
            corr_energies.append(m["energy_j"])
        if payload["front"]:
            best = min(payload["front"], key=lambda m: (m["cost"], m["combined_risk"]))
            write_csv(
                out / f"{stem}.path.csv",
                ["step", "row", "col", "level", "altitude_m"],
                [
                    (t, cell[0], cell[1], level, alt)
                    for t, (cell, level, alt) in enumerate(
                        zip(best["cells"], best["entry_levels"], best["entry_altitudes_m"])
                    )
                ],
            )

    (out / "fronts.svg").write_text(
        render_svg(
            scatter_series,
            title="Non-dominated fronts",
            x_label="blended cost",
            y_label="accumulated risk",
        ),
        encoding="utf-8",
    )
    (out / "convergence.svg").write_text(
        render_svg(
            trace_series,
            title="Hypervolume convergence",
            x_label="objective evaluations",
            y_label="hypervolume",
        ),
        encoding="utf-8",
    )
    try:
        r = pearson(corr_lengths, corr_energies)
        annotation = f"r={r:.3f}"
    except MetricError as exc:
        print(f"warning: correlation unavailable: {exc}", file=sys.stderr)
        annotation = "r undefined"
    (out / "correlation.svg").write_text(
        render_svg(
            [Series(label="archive points", points=tuple(zip(corr_lengths, corr_energies)))],
            title="Length vs energy",
            x_label="path length (m)",
            y_label="energy (J)",
            annotation=annotation,
        ),
        encoding="utf-8",
    )
    write_csv(
        out / "correlation.csv",
        ["length_m", "energy_j"],
        zip(corr_lengths, corr_energies),
    )
    print(f"wrote figures to {out}")
    return 0


# -- check -------------------------------------------------------------------


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_json(args.config) if args.config else {}
    params = _drone_from(config)
    env = load_instance(args.instance)
    try:
        exact = enumerate_front(env, params)
    except EnumerationLimitError as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return 2

    failures: list[str] = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        mark = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: {mark}{suffix}")
        if not ok:
            failures.append(name)

    report(
        "enumerate",
        len(exact.members) > 0,
        f"{len(exact.members)} member(s), {exact.paths_enumerated} path(s), "
        f"{exact.states_processed} state(s)",
    )

    bad_validate = sum(
        1 for m in exact.members if not validate(m.chromosome(), env).ok
    )
    report("front-validates", bad_validate == 0, f"{bad_validate} invalid member(s)")

    rng = np.random.default_rng(args.seed)
    agree = True
    worst = 0.0
    candidates = [m.chromosome() for m in exact.members]
    for _ in range(args.samples):
        candidates.append(initialize(env, params, rng))
    from .solution import evaluate as _evaluate

    for ch in candidates:
        a = _evaluate(ch, env, params)
        b = evaluate_assignment(chromosome_arcs(ch), env, params)
        for va, vb in zip(a.as_tuple(), b.as_tuple()):
            denom = max(1.0, abs(va), abs(vb))
            worst = max(worst, abs(va - vb) / denom)
            if not _rel_close(va, vb):
                agree = False
    report(
        "dual-evaluator",
        agree,
        f"{len(candidates)} candidate(s), worst relative gap {worst:.3e}",
    )

    model = build_model(env, params, "z1")
    doubled = build_model(env, params, "z1", big_m=2.0 * model.big_m)
    substitution_ok = True
    objective_ok = True
    doubled_ok = True
    for member in exact.members:
        values = assignment_values(model, env, member.cells, member.entry_levels)
        result = substitute(model, values)
        if not result.ok:
            substitution_ok = False
        if not _rel_close(objective_value(model, values), member.objectives.length_m):
            objective_ok = False
        if not substitute(doubled, values).ok:
            doubled_ok = False
    report("lp-substitution", substitution_ok, f"{len(exact.members)} assignment(s)")
    report("lp-objective", objective_ok)
    report("lp-big-m-doubling", doubled_ok)

    base = assignment_values(model, env, exact.members[0].cells, exact.members[0].entry_levels)
    caught = mutation_test(model, base)
    missed = sorted(f for f, ok in caught.items() if not ok)
    report(
        "lp-mutation",
        not missed,
        f"{len(caught)} familie(s)" if not missed else f"missed: {', '.join(missed)}",
    )

    return 3 if failures else 0


# -- lp-export ---------------------------------------------------------------


def _cmd_lp_export(args: argparse.Namespace) -> int:
    config = _load_json(args.config) if args.config else {}
    params = _drone_from(config)
    env = load_instance(args.instance)
    bounds = None
    if args.objective == "weighted":
        missing = [
            name
            for name, value in (
                ("--length-lo", args.length_lo),
                ("--length-hi", args.length_hi),
                ("--energy-lo", args.energy_lo),
                ("--energy-hi", args.energy_hi),
            )
            if value is None
        ]
        if missing:
            raise _UsageError(
                f"weighted objective requires {', '.join(missing)}"
            )
        bounds = NormBounds(
            length_lo=args.length_lo,
            length_hi=args.length_hi,
            energy_lo=args.energy_lo,
            energy_hi=args.energy_hi,
        )
    if args.objective == "epsilon" and args.risk_cap is None:
        raise _UsageError("epsilon objective requires --risk-cap")
    try:
        model = build_model(
            env,
            params,
            args.objective,
            weight=args.weight,
            bounds=bounds,
            risk_cap=args.risk_cap,
            big_m=args.big_m,
        )
    except EnumerationLimitError as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return 2
    text = render_lp(model)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text, encoding="utf-8")
    print(
        f"wrote {out_path}: {len(model.variables)} variable(s), "
        f"{len(model.rows)} row(s)"
    )
    return 0


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="overfly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate the instance suite")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--config", help="JSON file with generator overrides")
    p_gen.set_defaults(handler=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run solvers over instances")
    p_solve.add_argument("--config", required=True, help="JSON run configuration")
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--algo", action="append", choices=list(ALGORITHMS))
    p_solve.add_argument("--tuned", action="store_true")
    p_solve.add_argument("--untuned", action="store_true")
    p_solve.add_argument("--seed", action="append", type=int)
    p_solve.set_defaults(handler=_cmd_solve)

    p_tune = sub.add_parser("tune", help="random-search parameter tuning")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--out", required=True)
    p_tune.add_argument("--algo", action="append", choices=list(ALGORITHMS))
    p_tune.set_defaults(handler=_cmd_tune)

    p_table = sub.add_parser("table", help="relative hypervolume table")
    p_table.add_argument("files", nargs="+", help="front or report JSON files")
    p_table.add_argument("--out", required=True)
    p_table.set_defaults(handler=_cmd_table)

    p_plot = sub.add_parser("plot", help="CSV and SVG figures from fronts")
    p_plot.add_argument("files", nargs="+", help="front or report JSON files")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(handler=_cmd_plot)

    p_check = sub.add_parser("check", help="exact-oracle verification")
    p_check.add_argument("instance", help="instance JSON file")
    p_check.add_argument("--config", help="JSON file with drone parameters")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.set_defaults(handler=_cmd_check)

    p_lp = sub.add_parser("lp-export", help="write the integer program as LP text")
    p_lp.add_argument("instance", help="instance JSON file")
    p_lp.add_argument("--out", required=True)
    p_lp.add_argument("--config", help="JSON file with drone parameters")
    p_lp.add_argument("--objective", choices=["z1", "weighted", "epsilon"], default="z1")
    p_lp.add_argument("--weight", type=float, default=0.5)
    p_lp.add_argument("--risk-cap", type=float, default=None)
    p_lp.add_argument("--length-lo", type=float, default=None)
    p_lp.add_argument("--length-hi", type=float, default=None)
    p_lp.add_argument("--energy-lo", type=float, default=None)
    p_lp.add_argument("--energy-hi", type=float, default=None)
    p_lp.add_argument("--big-m", type=float, default=None)
    p_lp.set_defaults(handler=_cmd_lp_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
