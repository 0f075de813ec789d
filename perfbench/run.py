"""overfly benchmark: solve wall time and front quality, with a per-module trace.

Run from the root of a checkout (the directory that holds ``src/overfly``):

    python3 perfbench/run.py --workload search-small --seed 0 --seconds 40 --trace 0

Each invocation is one process running one workload. Set-up generates the
workload's worlds with ``overfly gen --seed`` (seeds derived from ``--seed``)
and loads them; then the benchmark repeats identical passes over the
workload until ``--seconds`` have gone, with at least two passes, and
reports the median pass, scaled to a reference machine speed (see
``calibrate``). Solves go through the in-process ``overfly solve``
(``overfly.cli.main``) with ``--workers 1``, one call per job. Every output
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one traced
pass between two untraced ones and reports the per-module metrics from the
spans and call counts of ``spans.Tracer``, plus the tracing overhead; the
spans are written to ``.bench_out/trace-<workload>.npz``.

The workloads (see README.md for why each exists, and why ``search-large``
is not in ``BENCHMARK.json``):

* ``search-small``: T1 worlds (4x4x3), nsga2, nsga3 and spea2 at population
  40. The population converges, so the novelty-filtered mating loop works
  hardest here.
* ``search-large``: T5 worlds (12x12x5), the same algorithms at population
  100; evaluation and selection weigh more.
* ``oracle``: the exact-oracle check path on T1 worlds: exhaustive front,
  member validation, the arc-form evaluator against ``evaluate``, the z1
  integer program, its LP text, and row substitution for every member.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ALGORITHMS = ("nsga2", "nsga3", "spea2")
# suites: how many `overfly gen` suites the worlds come from. More worlds per
# pass keep a pass's cost from depending on how hard the few worlds of one
# seed happen to be; fewer keep a pass short enough that two or more fit in
# a 40 s run (about 10 s at rest for search-small and oracle). search-large
# needs a larger budget than search-small before its archives reach the
# exact front's reference box at all.
WORKLOADS = {
    "search-small": {"kind": "search", "size": "T1", "suites": 4, "population": 40, "budget": 400},
    "search-large": {"kind": "search", "size": "T5", "suites": 2, "population": 100, "budget": 2000},
    "oracle": {"kind": "oracle", "size": "T1", "suites": 6},
}
# Two passes at least, so that every output can be compared with the first.
MIN_PASSES = 2
# Start no pass that would end past this many seconds, whatever --seconds
# says (even below MIN_PASSES), so that a run ends within its time limit.
HARD_LIMIT_S = 120.0
REL_TOL = 1e-9
# A shared machine can run the same code up to 1.7 times slower for spells of
# tens of seconds. A fixed pure-Python kernel timed between jobs tracks those
# spells, and wall_s scales each job by it to a machine on which the kernel
# takes CAL_REF_S: its time on an idle 2-vCPU Intel Xeon VM, where scaled and
# raw seconds agree.
CAL_LOOPS = 100_000
CAL_REF_S = 0.018
# Set-up is a fresh process: interpreter start, imports, pure-Python work.
# When the machine is busy it slows far less than `calibrate`, but about as
# much as this fixed process of the same kinds of work, which runs no overfly
# code. So setup_s scales each set-up sample by REF_PROCESS_S over the mean of
# the reference runs just before and just after it. REF_PROCESS_S is the
# reference's time on the VM of CAL_REF_S while `calibrate` took 20-21 ms.
REF_PROCESS = (
    "import json, numpy\n"
    "rows = [json.dumps({'a': i, 'b': [i] * 8}) for i in range(20000)]\n"
    "sum(len(json.loads(r)['b']) for r in rows)\n"
)
REF_PROCESS_S = 0.33
# Set-up samples taken before each pass and after the last.
SETUP_SAMPLES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "hv_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- checkout and worlds -----------------------------------------------------


def require_checkout(root: Path) -> None:
    """Import overfly from ``root/src``, and only from there."""
    src = (root / "src").resolve()
    if not (src / "overfly" / "__init__.py").is_file():
        raise BenchError(f"{root} is not an overfly checkout: src/overfly is missing")
    sys.path.insert(0, str(src))
    import overfly

    if Path(overfly.__file__).resolve().parent.parent != src:
        raise BenchError(f"imported overfly from {overfly.__file__}, not from {src}")


def generate_worlds(workload: str, seed: int, out: Path) -> list[tuple[str, Path]]:
    """Run ``overfly gen`` once per suite and pick the workload's worlds."""
    from overfly import cli

    spec = WORKLOADS[workload]
    worlds = []
    for suite in range(spec["suites"]):
        suite_dir = out / f"suite{suite}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen", "--seed", str(seed * spec["suites"] + suite), "--out", str(suite_dir)])
        if code != 0:
            raise BenchError(f"overfly gen exited {code}")
        for variant in range(1, 5):
            name = f"{spec['size']}-{variant}"
            worlds.append((f"suite{suite}/{name}", suite_dir / f"{name}.json"))
    return worlds


def load_worlds(workload: str, seed: int, out: Path) -> list[tuple[str, Path, object]]:
    from overfly.environment import load_instance

    return [(wid, path, load_instance(str(path))) for wid, path in generate_worlds(workload, seed, out)]


def timed_process(cmd: list[str], root: Path) -> float:
    """Seconds for a child process to run ``cmd`` to its end."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure_setup(args: argparse.Namespace, root: Path, target: Path, count: int) -> list[tuple[float, float]]:
    """Raw and scaled seconds of ``count`` fresh processes that each start,
    import overfly, and generate and load the workload's worlds. Each is
    scaled by the runs of ``REF_PROCESS`` just before and just after it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only", str(target),
    ]
    ref_cmd = [sys.executable, "-c", REF_PROCESS]
    samples = []
    ref = timed_process(ref_cmd, root)
    for _ in range(count):
        raw = timed_process(cmd, root)
        shutil.rmtree(target, ignore_errors=True)
        next_ref = timed_process(ref_cmd, root)
        samples.append((raw, raw * 2 * REF_PROCESS_S / (ref + next_ref)))
        ref = next_ref
    return samples


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: the machine's current speed.

    The garbage collector is off meanwhile, so that the time does not depend
    on what the workload has left on the heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(CAL_LOOPS):
            acc = (acc + i * i) % 7919
            table[i & 1023] = (acc, float(i))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled_s(times: list[float], cals: list[float]) -> float:
    """Pass seconds at reference speed: each job scaled by the mean of the
    calibrations taken just before and just after it."""
    return sum(t * 2 * CAL_REF_S / (before + after) for t, before, after in zip(times, cals, cals[1:]))


# -- search workloads --------------------------------------------------------


def search_jobs(workload: str, seed: int, worlds, configs: Path) -> list[dict]:
    spec = WORKLOADS[workload]
    configs.mkdir(parents=True, exist_ok=True)
    jobs = []
    for wid, path, _env in worlds:
        for algorithm in ALGORITHMS:
            config = configs / f"job{len(jobs)}.json"
            config.write_text(json.dumps({
                "instances": [str(path.resolve())],
                "algorithms": [algorithm],
                "tuned": [False],
                "seeds": [seed],
                "population_size": spec["population"],
                "evaluation_budget": spec["budget"],
            }), encoding="utf-8")
            jobs.append({"world": wid, "algorithm": algorithm, "config": config})
    return jobs


def search_pass(jobs: list[dict], out: Path, tracer=None) -> tuple[list[float], list[float], list[dict]]:
    """Solve every job once; return per-job seconds, the calibrations around
    the jobs, and per-job outcomes."""
    from overfly import cli

    times, cals, outcomes = [], [calibrate()], []
    for idx, job in enumerate(jobs):
        job_out = out / f"job{idx}"
        if tracer is not None:
            tracer.job_id = idx
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--config", str(job["config"]), "--out", str(job_out), "--workers", "1"])
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
        outcomes.append(_solve_outcome(code, job_out))
    shutil.rmtree(out, ignore_errors=True)
    return times, cals, outcomes


def _solve_outcome(code: int, out: Path) -> dict:
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        entry = manifest["jobs"][0]
        if code != 0 or manifest["failed"] != 0 or entry["status"] != "ok":
            return {"ok": False, "problem": f"solve exited {code}: {entry.get('error', '')}"}
        raw = (out / entry["front"]).read_bytes()
        front = json.loads(raw)
        return {
            "ok": True,
            "digest": hashlib.sha256(raw).hexdigest(),
            "archive": [[m["length_m"], m["energy_j"], m["risk"]] for m in front["archive"]],
            "evaluations": front["evaluations"],
            "children": front["evaluations"] - front["config"]["population_size"],
            "generations": front["generations"],
        }
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"ok": False, "problem": f"solve exited {code}, unreadable output: {exc}"}


# -- oracle workload ---------------------------------------------------------


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def oracle_world(env, params) -> dict:
    """The check path on one world; every check is part of the work."""
    from overfly import exact, milp, solution

    problems = []
    front = exact.enumerate_front(env, params)
    arc_triples = []
    for m in front.members:
        ch = m.chromosome()
        if not solution.validate(ch, env).ok:
            problems.append(f"member {m.cells} does not validate")
            continue
        direct = solution.evaluate(ch, env, params).as_tuple()
        dual = exact.evaluate_assignment(exact.chromosome_arcs(ch), env, params).as_tuple()
        arc_triples.append(dual)
        if not all(map(_rel_close, direct, dual)) or not all(map(_rel_close, direct, m.objectives.as_tuple())):
            problems.append(f"member {m.cells}: evaluate {direct}, arc form {dual}, front {m.objectives}")
    model = milp.build_model(env, params, "z1")
    text = milp.render_lp(model)
    for m in front.members:
        report = milp.substitute(model, milp.assignment_values(model, env, m.cells, m.entry_levels))
        if not report.ok:
            problems.append(f"member {m.cells} breaks {len(report.failures())} LP row(s)")
    digest = hashlib.sha256(text.encode())
    digest.update(repr([(m.objectives.as_tuple(), m.cells, m.entry_levels) for m in front.members]).encode())
    return {
        "ok": not problems,
        "problem": "; ".join(problems),
        "digest": digest.hexdigest(),
        "exact": [m.objectives.as_tuple() for m in front.members],
        "arc": arc_triples,
        "states": front.states_processed,
        "paths": front.paths_enumerated,
        "rows": len(model.rows),
        "lp_bytes": len(text.encode()),
    }


def oracle_pass(worlds, params, tracer=None) -> tuple[list[float], list[float], list[dict]]:
    times, cals, outcomes = [], [calibrate()], []
    for idx, (wid, _path, env) in enumerate(worlds):
        if tracer is not None:
            tracer.job_id = idx
        t0 = time.perf_counter()
        try:
            outcome = oracle_world(env, params)
        except Exception as exc:  # noqa: BLE001 - a raising world is a failed operation
            outcome = {"ok": False, "problem": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
        outcomes.append(outcome)
    return times, cals, outcomes


# -- scoring (untimed) -------------------------------------------------------


def search_references(workload: str, worlds, params) -> tuple[dict[str, object], list[str]]:
    """Reference front per world id, and problems.

    Every reference is the exact label-setting front. On ``search-small`` the
    first suite's fronts are also built by the exhaustive enumerator, and any
    disagreement is a problem.
    """
    import numpy as np
    from overfly.exact import enumerate_front

    import reference

    refs, problems = {}, []
    for wid, _path, env in worlds:
        labels = [t for t, _cells, _levels in reference.label_front(env, params)]
        if workload == "search-small" and wid.startswith("suite0/"):
            exact = sorted(m.objectives.as_tuple() for m in enumerate_front(env, params).members)
            if len(exact) != len(labels) or not all(
                map(_rel_close, (x for t in exact for x in t), (x for t in labels for x in t))
            ):
                problems.append(f"{wid}: enumerate_front and the label-setting front disagree")
        refs[wid] = np.asarray(labels)
    return refs, problems


def hv_ratio(workload: str, jobs, first: list[dict], worlds, params) -> tuple[float, list[str]]:
    import numpy as np

    import reference

    if WORKLOADS[workload]["kind"] == "oracle":
        ratios = [reference.score(np.asarray(o["arc"]), np.asarray(o["exact"])) for o in first]
        return statistics.fmean(ratios), []
    refs, problems = search_references(workload, worlds, params)
    ratios = [reference.score(np.asarray(o["archive"]), refs[job["world"]]) for job, o in zip(jobs, first)]
    return statistics.fmean(ratios), problems


# -- per-layer metrics -------------------------------------------------------

LAYER_UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us", "novelty_accept_ratio": "ratio",
    "matings_per_child": "ratio", "generations": "count", "states_processed": "count",
    "paths_enumerated": "count", "rows": "count", "lp_bytes": "bytes", "overhead_s": "s",
    "spans": "count",
}


def layer_metrics(tracer, first: list[dict], traced_s: float, untraced_s: float) -> dict[str, float]:
    totals = tracer.totals()

    def span(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    def counted(name: str) -> int:
        return tracer.counts.get(name, 0)

    children = sum(o.get("children", 0) for o in first)
    mutates = span("operators.mutate", "calls")
    evaluates = span("solution.evaluate", "calls")
    out: dict[str, float] = {
        "operators.crossover.calls": span("operators.crossover", "calls"),
        "operators.crossover.self_s": span("operators.crossover", "self_s"),
        "operators.mutate.calls": mutates,
        "operators.mutate.self_s": span("operators.mutate", "self_s"),
        "operators.initialize.self_s": span("operators.initialize", "self_s"),
        # Offspring evaluated per mutate call; each mating mutates two children.
        "operators.novelty_accept_ratio": children / mutates if mutates else 0.0,
        "operators.matings_per_child": mutates / 2 / children if children else 0.0,
        "evolution.run.self_s": span("evolution.run", "self_s"),
    }
    for fn in ("fast_nondominated_sort", "crowding_distance", "spea2_fitness", "combined_points"):
        out[f"evolution.{fn}.calls"] = span(f"evolution.{fn}", "calls")
        out[f"evolution.{fn}.self_s"] = span(f"evolution.{fn}", "self_s")
    out["evolution.generations"] = sum(o.get("generations", 0) for o in first)
    out["solution.evaluate.calls"] = evaluates
    out["solution.evaluate.self_s"] = span("solution.evaluate", "self_s")
    # Inclusive of the validate call inside evaluate.
    out["solution.evaluate.us_per_call"] = 1e6 * span("solution.evaluate", "total_s") / evaluates if evaluates else 0.0
    out["solution.validate.calls"] = span("solution.validate", "calls")
    out["solution.validate.self_s"] = span("solution.validate", "self_s")
    for name in ("physics.segment_energy", "physics.average_density", "environment.level_ok",
                 "environment.successors", "environment.feasible_levels", "environment.passable"):
        out[f"{name}.calls"] = counted(name)
    out["environment.load_instance.self_s"] = span("environment.load_instance", "self_s")
    out["exact.enumerate_front.self_s"] = span("exact.enumerate_front", "self_s")
    out["exact.states_processed"] = sum(o.get("states", 0) for o in first)
    out["exact.paths_enumerated"] = sum(o.get("paths", 0) for o in first)
    out["exact.evaluate_assignment.self_s"] = span("exact.evaluate_assignment", "self_s")
    for fn in ("build_model", "render_lp", "substitute", "assignment_values"):
        out[f"milp.{fn}.self_s"] = span(f"milp.{fn}", "self_s")
    out["milp.rows"] = sum(o.get("rows", 0) for o in first)
    out["milp.lp_bytes"] = sum(o.get("lp_bytes", 0) for o in first)
    out["metrics.hypervolume_2d.calls"] = span("metrics.hypervolume_2d", "calls")
    out["metrics.hypervolume_2d.self_s"] = span("metrics.hypervolume_2d", "self_s")
    out["plots.write_csv.self_s"] = span("plots.write_csv", "self_s")
    out["cli.main.self_s"] = span("cli.main", "self_s")
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.spans"] = len(tracer.start)
    return out


# -- entry point -------------------------------------------------------------


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd()
    try:
        require_checkout(root)
        if args.setup_only:
            load_worlds(args.workload, args.seed, Path(args.setup_only))
            return 0
        work = root / ".bench_out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        try:
            return run(args, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace, root: Path, work: Path) -> int:
    from overfly.physics import DroneParams

    import spans

    workload, spec = args.workload, WORKLOADS[args.workload]
    params = DroneParams()
    worlds = load_worlds(workload, args.seed, work / "worlds")
    if spec["kind"] == "search":
        jobs = search_jobs(workload, args.seed, worlds, work / "configs")

        def one_pass(n: int, tracer=None):
            return search_pass(jobs, work / f"pass{n}", tracer)
    else:
        jobs = [{"world": wid} for wid, _p, _e in worlds]

        def one_pass(n: int, tracer=None):
            return oracle_pass(worlds, params, tracer)

    started = time.perf_counter()
    passes: list[tuple[list[float], list[float], list[dict]]] = []
    tracer = None
    traced_s = 0.0
    if args.trace:
        passes.append(one_pass(0))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = one_pass(1, tracer)
        finally:
            tracer.uninstall()
        traced_s = scaled_s(traced[0], traced[1])
        passes.append(traced)
        passes.append(one_pass(2))
    else:
        # Set-up samples before each pass and after the last, so that they
        # see the machine at the same speeds as the passes.
        setup_samples = []
        while True:
            setup_samples += measure_setup(args, root, work / "setup", SETUP_SAMPLES)
            passes.append(one_pass(len(passes)))
            elapsed = time.perf_counter() - started
            last = sum(passes[-1][0])
            if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
                break
            if elapsed + last > HARD_LIMIT_S:
                break
        setup_samples += measure_setup(args, root, work / "setup", SETUP_SAMPLES)

    # Checks: every operation ok, and every pass identical to the first.
    first = passes[0][2]
    attempted = failed = 0
    problems = []
    for n, (_times, _cals, outcomes) in enumerate(passes):
        for job, outcome, base in zip(jobs, outcomes, first):
            attempted += 1
            bad = not outcome["ok"]
            if bad:
                problems.append(f"pass {n} {job['world']} {job.get('algorithm', '')}: {outcome['problem']}")
            elif base["ok"] and outcome["digest"] != base["digest"]:
                bad = True
                problems.append(f"pass {n} {job['world']} {job.get('algorithm', '')}: output differs from pass 0")
            failed += bad
    correct = failed == 0

    machine_info = dict(machine(), seed=args.seed, workload=workload)
    print(f"machine: {json.dumps(machine_info, sort_keys=True)}")
    untraced = [(t, c) for i, (t, c, _o) in enumerate(passes) if not (args.trace and i == 1)]
    wall = statistics.median(scaled_s(t, c) for t, c in untraced)
    print(f"passes: {len(passes)}  raw pass_s: {' '.join(f'{sum(t):.4f}' for t, _c in untraced)}  "
          f"scaled pass_s: {' '.join(f'{scaled_s(t, c):.4f}' for t, c in untraced)}")
    cals = [x for _t, c in untraced for x in c]
    print(f"calibration: median {statistics.median(cals) * 1e3:.2f} ms, "
          f"range {min(cals) * 1e3:.2f}-{max(cals) * 1e3:.2f} ms, reference {CAL_REF_S * 1e3:.2f} ms")
    print(f"jobs/pass: {len(jobs)}  s/job: {wall / len(jobs):.4f}")
    evaluations = sum(o.get("evaluations", 0) for o in first)
    if evaluations:
        print(f"evaluations/pass: {evaluations}  ms/evaluation: {1e3 * wall / evaluations:.4f}")
    for line in problems[:20]:
        print(f"FAILED {line}")

    if args.trace:
        values = layer_metrics(tracer, traced[2], traced_s, wall)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[-1]]} for k, v in values.items()}
        if tracer.missing:
            print(f"not traced (absent from the program): {', '.join(tracer.missing)}")
        out = root / ".bench_out" / f"trace-{workload}.npz"
        tracer.write(out)
        print(f"spans: {len(tracer.start)} written to {out.relative_to(root)}")
    else:
        # Before scoring, which builds reference fronts the workload never needs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if all(o["ok"] for o in first):
            ratio, scoring_problems = hv_ratio(workload, jobs, first, worlds, params)
        else:
            ratio, scoring_problems = math.nan, ["hv_ratio not scored: a first-pass operation failed"]
        for problem in scoring_problems:
            print(f"FAILED {problem}")
        correct = correct and not scoring_problems
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(scaled for _raw, scaled in setup_samples),
            "hv_ratio": ratio,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"raw setup_s: {' '.join(f'{raw:.4f}' for raw, _scaled in setup_samples)}")
        print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    correct = correct and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
