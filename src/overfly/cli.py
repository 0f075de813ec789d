"""Batch command-line front-end.

Subcommands: ``gen`` (write the instance suite), ``solve`` (run algorithms
over instances, tuned and/or untuned), ``tune`` (random-search tuning only),
``table`` (relative-hypervolume table from front files), ``plot`` (CSV + SVG
figures), ``check`` (exact-oracle verification of an instance), and
``lp-export`` (integer-program text). Every command is deterministic given
its config and seeds; outputs are plain files. Exit codes: 0 success,
1 usage or configuration error, 2 run failure, 3 check failure. ``check``
and ``lp-export`` refuse with 2 a world whose LP model would exceed
``milp.MAX_ROWS`` rows; ``check`` also refuses one whose exact front would
exceed the enumeration's label budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import types
import typing
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .environment import (
    Environment,
    GeneratorSettings,
    InstanceFormatError,
    generate,
    load_instance,
    save_instance,
)
from .evolution import (
    ALGORITHMS,
    AlgoConfig,
    RunResult,
    TunerConfig,
    archive_hypervolumes,
    oracle_hv_ratio,
    run,
    tune,
)
from .exact import EnumerationLimitError, enumerate_front, chromosome_arcs, evaluate_assignment
from .metrics import FrontSummary, MetricError, pearson, table_csv, table_text
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
from .solution import NormBounds, evaluate, validate

import numpy as np


class _UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    """The argparse type of a seed or a sample count: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# -- shared helpers ----------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    """A config or front file named on the command line; one that cannot be
    read or parsed is a usage error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _UsageError(f"{path}: expected a JSON object at the top level")
    return payload


def _load_world(path: str) -> Environment:
    """The instance file named on the command line; one that cannot be read
    or parsed is a usage error naming it."""
    try:
        return load_instance(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except InstanceFormatError as exc:
        raise _UsageError(str(exc)) from exc


def _dump_json(path: str | Path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _json_fragments(payload: dict) -> dict[str, str]:
    """Each top-level value of ``payload`` encoded as it reads inside
    ``json.dumps(payload, indent=2, sort_keys=True)``: its nested lines two
    spaces deeper. JSON strings escape their newlines, so each newline of a
    fragment starts one of its lines."""
    return {
        key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        for key, value in payload.items()
    }


def _dump_fragments(path: Path, fragments: dict[str, str]) -> None:
    """What :func:`_dump_json` writes for a non-empty payload, from its
    :func:`_json_fragments`: files that share values encode them once."""
    body = ",\n".join(f"  {json.dumps(key)}: {fragments[key]}" for key in sorted(fragments))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{{\n{body}\n}}\n")


# -- config reader: every settings record is read from JSON the same way -----

R = TypeVar("R")

_NOUNS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _config_value(hint: object, value: object, field: str) -> object:
    """``value`` checked against the annotation ``hint`` of a record field.

    ``float`` takes an int or a float, kept as given; ``int`` takes an int or
    an integral float, stored as an int; bools are neither. ``bool`` takes
    true or false, and ``str`` a string. ``X | None`` takes null or an X,
    ``tuple[X, X]`` a list of two Xs and ``tuple[X, ...]`` a list of Xs. A
    mismatch is a usage error naming ``field``; an annotation without a rule
    here is a ``TypeError``.
    """
    if hint in _NOUNS:
        if hint in (bool, str):
            if isinstance(value, hint):
                return value
        elif not isinstance(value, bool):
            if isinstance(value, int) or (hint is float and isinstance(value, float)):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
        raise _UsageError(f"config field {field} must be {_NOUNS[hint]}, got {value!r}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = set(args) - {type(None)}
        return None if value is None else _config_value(inner, value, field)
    if origin is tuple and args[0] in _NOUNS and args[1:] in ((Ellipsis,), (args[0],)):
        noun = _NOUNS[args[0]].split()[1]
        if args[1] is Ellipsis:
            if isinstance(value, list):
                return tuple(
                    _config_value(args[0], v, f"{field}[{k}]") for k, v in enumerate(value)
                )
            raise _UsageError(f"config field {field} must be a list of {noun}s, got {value!r}")
        if isinstance(value, list) and len(value) == 2:
            try:
                return tuple(_config_value(args[0], v, field) for v in value)
            except _UsageError:
                pass
        raise _UsageError(f"config field {field} must be a list of two {noun}s, got {value!r}")
    raise TypeError(f"no config rule for field {field} annotated {hint!r}")


@functools.cache
def _field_hints(record: type) -> dict[str, object]:
    """The field annotations of a settings record, resolved once: each
    resolution compiles the record's string annotations anew."""
    return typing.get_type_hints(record)


def _config_fields(record: type, values: object, section: str) -> dict:
    """The JSON object ``values`` as keyword arguments for ``record``: each
    key must name a field, and each value must suit its annotation. Errors
    name ``<section>.<field>``, or the bare field when ``section`` is empty
    (the config's top level)."""
    if not isinstance(values, dict):
        raise _UsageError(f"config field {section} must be an object, got {values!r}")
    hints = _field_hints(record)
    prefix = f"{section}." if section else ""
    unknown = [prefix + key for key in values if key not in hints]
    if unknown:
        raise _UsageError(f"unknown config field(s): {', '.join(unknown)}")
    return {key: _config_value(hints[key], value, prefix + key) for key, value in values.items()}


def _build(record: type[R], label: str, kwargs: dict) -> R:
    """``record(**kwargs)``, checked by the record's ``__post_init__``: a
    value it rejects is a usage error ``bad <label>: <its message>``."""
    try:
        return record(**kwargs)
    except ValueError as exc:
        raise _UsageError(f"bad {label}: {exc}") from exc


def _read_section(record: type[R], config: dict, section: str) -> R:
    """The config's ``section`` object (absent: all defaults) as a checked
    ``record``."""
    return _build(
        record, f"{section} settings", _config_fields(record, config.get(section, {}), section)
    )


def _require_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise _UsageError(f"--out {out} cannot be a directory: {exc.strerror}") from exc
    return out


def _require_out_file(args: argparse.Namespace) -> Path:
    """``--out`` as a file path, refused unless a file can be written there:
    not a directory, and no existing file on the way to it. Makes nothing."""
    out = Path(args.out)
    if out.is_dir():
        raise _UsageError(f"--out {out} is a directory, not a file")
    for parent in out.parents:
        if parent.exists():
            if not parent.is_dir():
                raise _UsageError(f"--out {out} lies below {parent}, which is not a directory")
            break
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
    the start/goal placement. ``overrides``, a JSON object of generator
    fields, replaces them on every instance. Its keys and value types are
    checked once, before any settings are built; a value that one
    instance's ``GeneratorSettings`` rejects is a usage error naming the
    instance and the field.
    """
    checked = _config_fields(GeneratorSettings, {} if overrides is None else overrides, "overrides")
    out: list[tuple[str, GeneratorSettings, int]] = []
    for size in range(1, 6):
        rows, cols, levels = _SUITE_SIZES[size]
        for variant in range(1, 5):
            start, goal = _variant_endpoints(variant, rows, cols)
            suite = dict(
                rows=rows, cols=cols, level_count=levels,
                obstacle_density=_SUITE_DENSITIES[variant], ceiling_fraction=0.15,
                risk_low=0.05, risk_high=0.95, start_cell=start, goal_cell=goal,
            )
            instance_id = f"T{size}-{variant}"
            settings = _build(
                GeneratorSettings, f"generator overrides for {instance_id}", {**suite, **checked}
            )
            out.append((instance_id, settings, seed * 9973 + size * 101 + variant * 7))
    return out


def _cmd_gen(args: argparse.Namespace) -> int:
    config = _load_config(args.config, _CONFIG_KEYS | {"overrides"})
    suite = suite_settings(args.seed, config.get("overrides", {}))
    out = _require_out(args)
    listing = []
    for instance_id, settings, inst_seed in suite:
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


@dataclass(frozen=True)
class _RunList:
    """The run list at a solve config's top level: instance files (relative
    to the config's directory), algorithms, tuned flags and seeds, each
    non-empty, and whether each run is scored against the exact oracle.
    ``tune`` checks it all and reads the instances and algorithms."""

    instances: tuple[str, ...] = ()
    algorithms: tuple[str, ...] = ALGORITHMS
    tuned: tuple[bool, ...] = (False,)
    seeds: tuple[int, ...] = (0,)
    oracle: bool = False

    def __post_init__(self) -> None:
        for name in ("instances", "algorithms", "tuned", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {algo!r} in algorithms, expected one of {ALGORITHMS}"
                )
        for k, seed in enumerate(self.seeds):
            if seed < 0:
                raise ValueError(f"seeds[{k}] must be >= 0, got {seed}")


_RUN_LIST = tuple(f.name for f in fields(_RunList))

# The run sizes, the ``AlgoConfig`` fields at a config's top level: jobs take
# algorithm and seed from ``algorithms`` and ``seeds``; ``operators`` is a section.
_RUN_SIZES = tuple(
    f.name for f in fields(AlgoConfig) if f.name not in ("algorithm", "seed", "operators")
)

# Every top-level key of a solve config.
_CONFIG_KEYS = frozenset(_RUN_LIST + _RUN_SIZES + ("drone", "operators", "tuner"))


def _load_config(path: str | None, keys: frozenset[str] = _CONFIG_KEYS) -> dict:
    """The config file at ``path`` (none: an empty config). Every command
    reads a solve config, each only the sections it needs; a top-level key
    outside ``keys``, such as a misspelt section, is a usage error."""
    config = _load_json(path) if path else {}
    unknown = [key for key in config if key not in keys]
    if unknown:
        raise _UsageError(f"unknown config field(s): {', '.join(unknown)}")
    return config


def _top_level(record: type, config: dict, names: tuple[str, ...]) -> dict:
    """The config's top-level ``names`` as checked keyword arguments for ``record``."""
    return _config_fields(record, {k: v for k, v in config.items() if k in names}, "")


def _settings(config: dict) -> tuple[_RunList, DroneParams, AlgoConfig, TunerConfig]:
    """The config's run list, drone, base run settings (run sizes and
    operators, with the default algorithm and seed 0) and tuner, each
    checked by its own record before any job exists. The tuner's seed is the
    base from which each (instance, algorithm) pair's seed is derived.
    Shared by ``solve`` and ``tune``, on a config from ``_load_config``."""
    run_list = _build(_RunList, "run list", _top_level(_RunList, config, _RUN_LIST))
    drone = _read_section(DroneParams, config, "drone")
    operators = _read_section(OperatorConfig, config, "operators")
    tuner = _read_section(TunerConfig, config, "tuner")
    sizes = _top_level(AlgoConfig, config, _RUN_SIZES)
    base = _build(AlgoConfig, "run settings", {**sizes, "operators": operators})
    return run_list, drone, base, tuner


def _check_tuned_budget(base: AlgoConfig, tuner: TunerConfig) -> None:
    """A tuned trial runs at a population size drawn from
    ``tuner.population_sizes``, so the budget must cover the largest one."""
    largest = max(tuner.population_sizes)
    if base.evaluation_budget < largest:
        raise _UsageError(
            f"config field evaluation_budget ({base.evaluation_budget}) must cover the "
            f"largest tuner.population_sizes entry ({largest}) for tuned runs"
        )


def _best_payload(best: AlgoConfig) -> dict:
    return {"population_size": best.population_size, "operators": asdict(best.operators)}


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
        "cost": member.cost,
    }


def _front_payload(
    result: RunResult, env: Environment, params: DroneParams, job: dict
) -> dict:
    config = asdict(result.config)
    del config["algorithm"], config["seed"]  # top-level fields of the file
    return {
        "schema": "overfly.front/1",
        "instance": {"id": job["instance_id"], "path": job["instance_path"]},
        "algorithm": result.config.algorithm,
        "tuned": job["tuned"],
        "seed": result.config.seed,
        "config": config,
        "drone": asdict(params),
        "evaluations": result.evaluations,
        "generations": result.generations,
        "bounds": asdict(result.bounds),
        "degenerate_normalization": result.degenerate_normalization,
        "trace_reference": list(result.trace_reference),
        "front": [_member_payload(m, env) for m in result.front],
        "archive": [_member_payload(m, env) for m in result.archive],
        "hv_trace": [[e, hv] for e, hv in result.hv_trace],
    }


def _execute_job(job: dict) -> list[dict]:
    """One job's runs, each isolated: returns a manifest entry per run in
    ``job["runs"]``, never raises. A tuned job tunes once and runs every
    seed with the best settings (``tune`` ignores the run seed)."""
    try:
        env = load_instance(job["instance_path"])
        cfg = job["config"]
        tuning_info = None
        if job["tuned"]:
            tuned_result = tune(env, job["drone"], cfg, job["tuner"])
            cfg = tuned_result.best
            tuning_info = {
                "tuner_seed": job["tuner"].seed,
                "trials": len(tuned_result.trials),
                "best": _best_payload(cfg),
            }
    except Exception as exc:  # noqa: BLE001 - per-run isolation by contract
        return [_failed_entry(run_id, exc) for run_id, _ in job["runs"]]
    return [
        _execute_run(env, replace(cfg, seed=seed), run_id, tuning_info, job)
        for run_id, seed in job["runs"]
    ]


def _execute_run(
    env: Environment, cfg: AlgoConfig, run_id: str, tuning_info: dict | None, job: dict
) -> dict:
    """One solver run, isolated: returns its manifest entry, never raises."""
    try:
        params = job["drone"]
        result = run(env, params, cfg)
        # The oracle may raise (past ``exact.MAX_STATES``); it runs before
        # any file is written, so a failed run leaves none behind.
        ratio = oracle_hv_ratio(env, params, result) if job["oracle"] else None
        front = _front_payload(result, env, params, job)
        out_dir = Path(job["out_dir"])
        front_path = out_dir / f"{run_id}.front.json"
        report_path = out_dir / f"{run_id}.report.json"
        conv_path = out_dir / f"{run_id}.convergence.csv"
        # The report is the front file plus these fields, so each value
        # shared by the two files is encoded once.
        fragments = _json_fragments(front)
        _dump_fragments(front_path, fragments)
        report = {
            "schema": "overfly.report/1",
            "wall_clock_s": result.wall_clock_s,
            "operator_stats": asdict(result.stats),
        }
        if tuning_info:
            report["tuning"] = tuning_info
        if ratio is not None:
            report["oracle_hv_ratio"] = ratio
        _dump_fragments(report_path, {**fragments, **_json_fragments(report)})
        write_csv(conv_path, ["evaluations", "hypervolume"], result.hv_trace)
        entry = {
            "run_id": run_id,
            "status": "ok",
            "front": front_path.name,
            "report": report_path.name,
            "convergence": conv_path.name,
            "front_size": len(result.front),
        }
        if ratio is not None:
            entry["oracle_hv_ratio"] = ratio
        return entry
    except Exception as exc:  # noqa: BLE001 - per-run isolation by contract
        return _failed_entry(run_id, exc)


def _failed_entry(run_id: str, exc: BaseException) -> dict:
    return {"run_id": run_id, "status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _instance_paths(args: argparse.Namespace, run_list: _RunList) -> list[Path]:
    """The run list's instance files, resolved against the config's directory."""
    base_dir = Path(args.config).parent
    return [
        (base_dir / inst).resolve() if not Path(inst).is_absolute() else Path(inst)
        for inst in run_list.instances
    ]


def _solve_jobs(args: argparse.Namespace) -> list[dict]:
    """The jobs of ``solve``. ``--algo``, ``--seed`` and ``--tuned`` or
    ``--untuned`` replace the run list's algorithms, seeds and tuned flags;
    the config's own are still checked."""
    run_list, drone, base, tuner = _settings(_load_config(args.config))
    algorithms = args.algo or run_list.algorithms
    flags = [f for f, on in ((True, args.tuned), (False, args.untuned)) if on] or run_list.tuned
    seeds = args.seed or run_list.seeds
    out = Path(args.out)
    jobs: list[dict] = []
    run_ids: set[str] = set()
    for inst_path in _instance_paths(args, run_list):
        instance_id = inst_path.stem
        for algorithm in algorithms:
            pair_tuner = replace(
                tuner, seed=_derived_tuner_seed(tuner.seed, instance_id, algorithm)
            )
            for tuned in flags:
                runs = []
                for seed in seeds:
                    run_id = (
                        f"{instance_id}_{algorithm}_{'tuned' if tuned else 'untuned'}_s{seed}"
                    )
                    if run_id in run_ids:
                        # Both runs would write the same output files.
                        raise _UsageError(
                            f"duplicate run id {run_id}: instance stems, algorithms, "
                            "tuned flags and seeds must each be distinct"
                        )
                    run_ids.add(run_id)
                    runs.append((run_id, seed))
                # One job per untuned run; a tuned job shares its one tune
                # among all the pair's seeds.
                for job_runs in [runs] if tuned else [[r] for r in runs]:
                    jobs.append(
                        {
                            "runs": job_runs,
                            "instance_id": instance_id,
                            "instance_path": str(inst_path),
                            "tuned": tuned,
                            "config": replace(base, algorithm=algorithm),
                            "drone": drone,
                            "tuner": pair_tuner,
                            "oracle": run_list.oracle,
                            "out_dir": str(out),
                        }
                    )
    if any(job["tuned"] for job in jobs):
        _check_tuned_budget(base, tuner)
    return jobs


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    jobs = _solve_jobs(args)
    out = _require_out(args)
    # A fork pool starts all its workers at the first submit: no more than
    # there are jobs.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        # Imported here, not at the top: it brings in logging, which every
        # other command would pay for at start-up.
        import concurrent.futures

        # One future per job, read in job order: a worker that dies fails
        # only the runs of the jobs it breaks, and the manifest is still
        # written.
        entries = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_job, job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    entries.extend(future.result())
                except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                    entries.extend(_failed_entry(run_id, exc) for run_id, _ in job["runs"])
    else:
        entries = [entry for job in jobs for entry in _execute_job(job)]
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
    run_list, drone, base, tuner = _settings(_load_config(args.config))
    _check_tuned_budget(base, tuner)
    out = _require_out(args)
    failed = 0
    for inst_path in _instance_paths(args, run_list):
        instance_id = inst_path.stem
        for algorithm in args.algo or run_list.algorithms:
            try:
                env = load_instance(inst_path)
                pair_tuner = replace(
                    tuner, seed=_derived_tuner_seed(tuner.seed, instance_id, algorithm)
                )
                result = tune(env, drone, replace(base, algorithm=algorithm), pair_tuner)
                _dump_json(
                    out / f"{instance_id}_{algorithm}.tuning.json",
                    {
                        "schema": "overfly.tuning/1",
                        "instance": instance_id,
                        "algorithm": algorithm,
                        "tuner": asdict(pair_tuner),
                        "best": _best_payload(result.best),
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _is_list(value: object, item: Callable[[object], bool], length: int | None = None) -> bool:
    return isinstance(value, list) and length in (None, len(value)) and all(map(item, value))


_MEMBER_NUMBERS = ("weight", "length_m", "energy_j", "risk", "cost")


def _read_front_file(path: Path) -> dict:
    """A front or report file with every field that ``table`` and ``plot``
    read checked, and its ``bounds`` as a :class:`NormBounds`. A bad file is
    a usage error naming it and the field."""
    payload = _load_json(path)
    if payload.get("schema") not in ("overfly.front/1", "overfly.report/1"):
        raise _UsageError(f"{path} is not a front or report file")

    def field(record: dict, key: str, name: str, ok: Callable[[object], bool], want: str) -> object:
        if key not in record:
            raise _UsageError(f"{path}: field {name} is missing")
        if not ok(record[key]):
            raise _UsageError(f"{path}: field {name} must be {want}, got {record[key]!r}")
        return record[key]

    instance = field(payload, "instance", "instance", lambda v: isinstance(v, dict), "an object")
    field(instance, "id", "instance.id", lambda v: isinstance(v, str), "a string")
    field(payload, "algorithm", "algorithm", lambda v: isinstance(v, str), "a string")
    field(payload, "tuned", "tuned", lambda v: isinstance(v, bool), "true or false")
    field(payload, "seed", "seed", _is_int, "an integer")
    field(
        payload, "hv_trace", "hv_trace",
        lambda v: _is_list(v, lambda pair: _is_list(pair, _is_number, 2)),
        "a list of [evaluations, hypervolume] pairs",
    )
    for key in ("front", "archive"):
        members = field(payload, key, key, lambda v: _is_list(v, lambda m: isinstance(m, dict)),
                        "a list of objects")
        for k, member in enumerate(members):
            name = f"{key}[{k}]"
            for number in _MEMBER_NUMBERS:
                field(member, number, f"{name}.{number}", _is_number, "a finite number")
            cells = field(member, "cells", f"{name}.cells",
                          lambda v: _is_list(v, lambda c: _is_list(c, _is_int, 2)),
                          "a list of [row, col] pairs")
            field(member, "entry_levels", f"{name}.entry_levels",
                  lambda v: _is_list(v, _is_int, len(cells)), f"a list of {len(cells)} integers")
            field(member, "entry_altitudes_m", f"{name}.entry_altitudes_m",
                  lambda v: _is_list(v, _is_number, len(cells)),
                  f"a list of {len(cells)} finite numbers")
    bounds = field(payload, "bounds", "bounds", lambda v: isinstance(v, dict), "an object")
    names = [f.name for f in fields(NormBounds)]
    for name in names:
        # Any number here: NormBounds itself names a non-finite bound.
        field(bounds, name, f"bounds.{name}", lambda v: _is_int(v) or isinstance(v, float),
              "a number")
    try:
        payload["bounds"] = _build(NormBounds, "bounds", {name: bounds[name] for name in names})
    except _UsageError as exc:
        raise _UsageError(f"{path}: {exc}") from None
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
        hvs = archive_hypervolumes(
            [[(m["length_m"], m["energy_j"], m["risk"]) for m in p["archive"]] for p in runs],
            [p["bounds"] for p in runs],
        )
        cells: dict[tuple[str, bool], list[float]] = {}
        for p, hv in zip(runs, hvs):
            cells.setdefault((p["algorithm"], p["tuned"]), []).append(hv)
        for (algorithm, tuned), cell in sorted(cells.items()):
            mean_hv = math.fsum(cell) / len(cell)
            summaries.append(FrontSummary(instance_id, algorithm, tuned, mean_hv))
    return summaries


def _cmd_table(args: argparse.Namespace) -> int:
    payloads = [_read_front_file(p) for p in sorted(Path(p) for p in args.files)]
    summaries = _table_summaries(payloads)
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
    csv_text = table_csv(summaries)
    txt_text = table_text(summaries)
    (out / "table.csv").write_text(csv_text, encoding="utf-8")
    (out / "table.txt").write_text(txt_text, encoding="utf-8")
    print(txt_text, end="")
    return 0


# -- plot --------------------------------------------------------------------


def _series_label(payload: dict) -> str:
    tuned = "tuned" if payload["tuned"] else "untuned"
    return f"{payload['instance']['id']} {payload['algorithm']} {tuned} s{payload['seed']}"


def _cmd_plot(args: argparse.Namespace) -> int:
    payloads = [(_read_front_file(Path(p)), Path(p)) for p in sorted(args.files)]
    out = _require_out(args)

    scatter_series: list[Series] = []
    trace_series: list[Series] = []
    corr_lengths: list[float] = []
    corr_energies: list[float] = []
    for payload, path in payloads:
        stem = path.name.removesuffix(".front.json").removesuffix(".report.json")
        label = _series_label(payload)
        front_points = tuple((m["cost"], m["risk"]) for m in payload["front"])
        scatter_series.append(Series(label=label, points=front_points))
        write_csv(
            out / f"{stem}.front.csv",
            ["cost", "risk", "length_m", "energy_j", "weight"],
            [
                (m["cost"], m["risk"], m["length_m"], m["energy_j"], m["weight"])
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
            best = min(payload["front"], key=lambda m: (m["cost"], m["risk"]))
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
    config = _load_config(args.config)
    params = _read_section(DroneParams, config, "drone")
    env = _load_world(args.instance)
    try:
        # The model first: its row guard refuses a world at once, before a
        # long enumeration.
        model = build_model(env, params, "z1")
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
        f"{exact.states_processed} label extension(s)",
    )
    if not exact.members:
        return 3  # no start-to-goal route: every later check needs a member

    bad_validate = sum(
        1 for m in exact.members if not validate(m.chromosome(), env).ok
    )
    report("front-validates", bad_validate == 0, f"{bad_validate} invalid member(s)")

    rng = np.random.default_rng(args.seed)
    agree = True
    worst = 0.0
    candidates = [m.chromosome() for m in exact.members]
    for _ in range(args.samples):
        candidates.append(initialize(env, rng))
    for ch in candidates:
        a = evaluate(ch, env, params)
        b = evaluate_assignment(chromosome_arcs(ch), env, params)
        for va, vb in zip(a, b):
            denom = max(1.0, abs(va), abs(vb))
            worst = max(worst, abs(va - vb) / denom)
            if not _rel_close(va, vb):
                agree = False
    report(
        "dual-evaluator",
        agree,
        f"{len(candidates)} candidate(s), worst relative gap {worst:.3e}",
    )

    # One LP model at a time: the z1 model's checks first, then the
    # doubled-big-M model in its place.
    substitution_ok = True
    objective_ok = True
    for member in exact.members:
        values = assignment_values(model, env, member.cells, member.entry_levels)
        if not substitute(model, values).ok:
            substitution_ok = False
        if not _rel_close(objective_value(model, values), member.objectives.length_m):
            objective_ok = False
    base = assignment_values(model, env, exact.members[0].cells, exact.members[0].entry_levels)
    caught = mutation_test(model, base)
    big_m = model.big_m
    del model, values, base
    doubled = build_model(env, params, "z1", big_m=2.0 * big_m)
    doubled_ok = all(
        substitute(doubled, assignment_values(doubled, env, m.cells, m.entry_levels)).ok
        for m in exact.members
    )
    report("lp-substitution", substitution_ok, f"{len(exact.members)} assignment(s)")
    report("lp-objective", objective_ok)
    report("lp-big-m-doubling", doubled_ok)
    missed = sorted(f for f, ok in caught.items() if not ok)
    report(
        "lp-mutation",
        not missed,
        f"{len(caught)} familie(s)" if not missed else f"missed: {', '.join(missed)}",
    )

    return 3 if failures else 0


# -- lp-export ---------------------------------------------------------------


def _cmd_lp_export(args: argparse.Namespace) -> int:
    out_path = _require_out_file(args)
    config = _load_config(args.config)
    params = _read_section(DroneParams, config, "drone")
    env = _load_world(args.instance)
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
    if args.objective == "epsilon" and args.risk_cap is None:
        raise _UsageError("epsilon objective requires --risk-cap")
    try:
        if args.objective == "weighted":
            bounds = NormBounds(args.length_lo, args.length_hi, args.energy_lo, args.energy_hi)
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
    except ValueError as exc:
        # A message about one argument opens with its name; each of these
        # comes straight from the flag of the same name.
        keyword, _, rest = str(exc).partition(" ")
        if keyword not in (
            "weight", "risk_cap", "big_m", "length_lo", "length_hi", "energy_lo", "energy_hi"
        ):
            raise
        raise _UsageError(f"--{keyword.replace('_', '-')} {rest}") from exc
    text = render_lp(model)
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
    p_gen.add_argument("--seed", type=_non_negative_int, default=0)
    p_gen.add_argument("--config", help="JSON file with generator overrides")
    p_gen.set_defaults(handler=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run solvers over instances")
    p_solve.add_argument("--config", required=True, help="JSON run configuration")
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--algo", action="append", choices=list(ALGORITHMS))
    p_solve.add_argument("--tuned", action="store_true")
    p_solve.add_argument("--untuned", action="store_true")
    p_solve.add_argument("--seed", action="append", type=_non_negative_int)
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
    p_check.add_argument("--seed", type=_non_negative_int, default=0)
    p_check.add_argument("--samples", type=_non_negative_int, default=100)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state on it. It
    binds each command's handler when built, so a test patches what a
    handler calls, not the handler."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
