"""The overfly command: all subcommands, exit codes, and determinism."""

import concurrent.futures
import hashlib
import json
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from overfly import (
    AlgoConfig,
    DroneParams,
    GeneratorSettings,
    OperatorConfig,
    TunerConfig,
    generate,
    save_instance,
)
from overfly.cli import main
import overfly.cli as cli

from helpers import build_env

SRC = str(Path(__file__).resolve().parent.parent / "src")


def save_tiny(path, seed=0, rows=3, cols=3, levels=2):
    env = generate(
        GeneratorSettings(rows=rows, cols=cols, level_count=levels,
                          obstacle_density=0.2, risk_low=0.05, risk_high=0.95),
        seed,
    )
    save_instance(env, path)
    return env


_EXECUTE_JOB = cli._execute_job


def _job_that_kills_its_worker(payload):
    """Stands in for ``cli._execute_job``; the worker running i2 dies."""
    if payload["instance_id"] == "i2":
        os._exit(1)
    return _EXECUTE_JOB(payload)


def save_oversized(path):
    """A 24x24 world with six levels: its LP model, about 965,000 rows, is
    above ``milp.MAX_ROWS``."""
    save_instance(build_env(rows=24, cols=24, levels=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0)), path)


def refuse_to_run(*_args, **_kwargs):
    raise AssertionError("an oversized world must be refused before this runs")


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the pool size asked
    for and runs each job in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def ok_entry(job):
    """Stands in for ``cli._execute_job``: a successful entry per run, no
    run."""
    return [{"run_id": run_id, "status": "ok"} for run_id, _seed in job["runs"]]


def write_solve_config(path, instances, **overrides):
    config = {
        "instances": instances,
        "algorithms": ["nsga2"],
        "tuned": [False],
        "seeds": [0],
        "population_size": 8,
        "evaluation_budget": 80,
        "archive_size": 8,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


class TestGen:
    # SHA-256 of each file that ``gen --seed 0`` writes. A changed digest
    # means the generator, the suite settings or the instance file layout
    # changed.
    SEED_ZERO_SUITE = {
        "T1-1.json":
            "b287954b5302f6fa362f8409837f742363a24c926f01f8f058047de9b96ab5fe",
        "T1-2.json":
            "3a9485b2172ac3623268e8d854f9835e2e2c58a8511d2176246c8312dd23eaec",
        "T1-3.json":
            "2f6c7946e3b0040d2073801564fd3fec470580bae391c609a50086afab7de57e",
        "T1-4.json":
            "9a3cb448f1f6b367e8a80ffe97a16ff4feb531088e596bc163d050f91905588a",
        "T2-1.json":
            "bf434f2565ad7283861d9ba27ab8671c105c53faca4dfd29c72229d3ab5d2525",
        "T2-2.json":
            "a75edaae35107b7104de45909314ff3e35962d26d6fe432ba135c99e0c0e111c",
        "T2-3.json":
            "b68590ada645a8c51333ddba6834f99b8d71fdece177da4d973a9b7367c73633",
        "T2-4.json":
            "5fcfd74342d8a2cef5fb4defcd7d3a1790b9c62ee6519e1d96835b27700ae0fb",
        "T3-1.json":
            "cda9757ee27b4285e5e9ca71e07e103529364ab219effd3e395fc8783da07011",
        "T3-2.json":
            "31130ce4872364a339ce35890ff62151f335aa9af6c5fe1c902261239a72fd86",
        "T3-3.json":
            "ceab80ad0f5912dd6f7f07db3b18c1097cb750ef97af161d1dc0c4dec10e783c",
        "T3-4.json":
            "2ca6efcce860f16b86169e0ba1e5388dacdd8a724c6f9f74fe363ca6f7e110e9",
        "T4-1.json":
            "b13f7e620c43d4479ad03a7e02ccf221c2f065a40c28e6e4aeea29c9bc49ba0d",
        "T4-2.json":
            "1ccd68d10648ac384ef835696cb029d5afab48b79b655ec28bc98855980d4d2b",
        "T4-3.json":
            "2102443e042510868cf331acdfb772c65640e76dd4efe4382b57fd333195ac12",
        "T4-4.json":
            "4dc8f81faf1aee5a2de5aecd31406f5c7b1e0b1042361de98fc1e36f70bf1cc9",
        "T5-1.json":
            "67a9db56b7af7c0b4c32e7ce6d7f45dd0fef491d24b978ac52ff838ea5a4ae77",
        "T5-2.json":
            "826d0e201656d09a4cafef7c3a3b1a9d1137a01ef0efc110b5514036c50a1224",
        "T5-3.json":
            "322f4540e133a0d90aa5ab69401e45541b91a5bfcfc861749e6ced2cd39dbed4",
        "T5-4.json":
            "b6ad765d4757b0626ad10e2b42ed43af030e745385a6a79b8d2a92e6ea5dffe2",
        "suite.json":
            "e2c3a5b566a139f2345aec1b67af33ee3a85657fc515bd092edd962237a1e57f",
    }

    def test_seed_zero_suite_bytes(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["gen", "--out", str(out), "--seed", "0"]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == self.SEED_ZERO_SUITE

    def test_writes_suite(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["gen", "--out", str(out), "--seed", "3"]) == 0
        files = sorted(p.name for p in out.glob("T*.json"))
        assert len(files) == 20
        assert "T1-1.json" in files and "T5-4.json" in files
        suite = json.loads((out / "suite.json").read_text())
        assert len(suite["instances"]) == 20

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--out", str(a), "--seed", "1"]) == 0
        assert main(["gen", "--out", str(b), "--seed", "1"]) == 0
        for pa in sorted(a.glob("*.json")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_seed_changes_instances(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a), "--seed", "1"])
        main(["gen", "--out", str(b), "--seed", "2"])
        assert (a / "T1-1.json").read_bytes() != (b / "T1-1.json").read_bytes()

    def test_generator_overrides(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"overrides": {"risk_low": 0.5, "risk_high": 0.5}}))
        out = tmp_path / "suite"
        assert main(["gen", "--out", str(out), "--config", str(cfg)]) == 0
        from overfly import load_instance

        env = load_instance(out / "T1-1.json")
        assert set(map(float, env.risk.ravel())) == {0.5}

    def test_bad_override_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"overrides": {"no_such_field": 1}}))
        assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"start_level": 7}, "start_level"),
            ({"cell_size_m": 1e154}, "cell_size_m"),
            ({"start_cell": [9, 0]}, "start_cell"),
            ({"base_altitude_m": 1e6}, "levels_m[0]"),
        ],
    )
    def test_bad_grid_override_names_field_and_writes_nothing(
        self, tmp_path, capsys, overrides, field
    ):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"overrides": overrides}))
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--config", str(cfg)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_list_endpoint_override_is_a_cell(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"overrides": {"start_cell": [0, 0], "goal_cell": [1, 3]}}))
        out = tmp_path / "suite"
        assert main(["gen", "--out", str(out), "--config", str(cfg)]) == 0
        from overfly import load_instance

        env = load_instance(out / "T1-1.json")
        assert (env.spec.start_cell, env.spec.goal_cell) == ((0, 0), (1, 3))


class TestSolve:
    def test_manifest_covers_run_matrix(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        save_tiny(tmp_path / "i2.json", 2)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json", "i2.json"],
                           algorithms=["nsga2", "spea2"], seeds=[0, 1])
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["total"] == 2 * 2 * 1 * 2
        assert manifest["failed"] == 0
        run_ids = [j["run_id"] for j in manifest["jobs"]]
        assert "i1_nsga2_untuned_s0" in run_ids
        assert "i2_spea2_untuned_s1" in run_ids
        for job in manifest["jobs"]:
            assert (out / job["front"]).exists()
            assert (out / job["report"]).exists()
            assert (out / job["convergence"]).exists()

    def test_front_files_byte_identical_across_runs(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        name = "i1_nsga2_untuned_s0"
        assert (out1 / f"{name}.front.json").read_bytes() == (out2 / f"{name}.front.json").read_bytes()
        assert (out1 / f"{name}.convergence.csv").read_bytes() == (out2 / f"{name}.convergence.csv").read_bytes()

    def test_failed_job_recorded_others_proceed(self, tmp_path, capsys):
        save_tiny(tmp_path / "good.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["missing.json", "good.json"])
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = {j["run_id"]: j["status"] for j in manifest["jobs"]}
        assert statuses["missing_nsga2_untuned_s0"] == "failed"
        assert statuses["good_nsga2_untuned_s0"] == "ok"
        failed = [j for j in manifest["jobs"] if j["status"] == "failed"][0]
        assert "error" in failed

    def test_malformed_instance_fails_its_run_naming_the_file(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"grid": {"rows": "x"}}), encoding="utf-8")
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["bad.json"])
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        [job] = json.loads((out / "manifest.json").read_text())["jobs"]
        assert job["status"] == "failed"
        assert job["error"] == (
            f"InstanceFormatError: {tmp_path / 'bad.json'}: grid.rows: expected an integer, got str"
        )

    def test_cli_flags_override_config(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], algorithms=["nsga2", "spea2"], seeds=[0, 1, 2])
        out = tmp_path / "runs"
        assert main([
            "solve", "--config", str(cfg), "--out", str(out),
            "--algo", "nsga3", "--seed", "7",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [j["run_id"] for j in manifest["jobs"]] == ["i1_nsga3_untuned_s7"]

    def test_tuned_runs_share_one_tune_per_pair(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_tune(env, params, base, tuner):
            calls.append((base.algorithm, tuner.seed))
            return tune(env, params, base, tuner)

        tune = cli.tune
        monkeypatch.setattr(cli, "tune", counting_tune)
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(
            cfg, ["i1.json"], algorithms=["nsga2", "spea2"], tuned=[True], seeds=[0, 1, 2],
            tuner={"budget": 2, "population_sizes": [8, 12]},
        )
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert [algorithm for algorithm, _seed in calls] == ["nsga2", "spea2"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [j["run_id"] for j in manifest["jobs"]] == [
            f"i1_{algorithm}_tuned_s{seed}"
            for algorithm in ("nsga2", "spea2")
            for seed in (0, 1, 2)
        ]
        for algorithm in ("nsga2", "spea2"):
            reports = [
                json.loads((out / f"i1_{algorithm}_tuned_s{seed}.report.json").read_text())
                for seed in (0, 1, 2)
            ]
            assert [r["seed"] for r in reports] == [0, 1, 2]
            assert all(r["tuning"] == reports[0]["tuning"] for r in reports)

    def test_failed_tune_fails_each_of_its_runs(self, tmp_path, capsys, monkeypatch):
        def failing_tune(*_args):
            raise RuntimeError("no trial finished")

        monkeypatch.setattr(cli, "tune", failing_tune)
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], tuned=[True, False], seeds=[0, 1],
                           tuner={"budget": 2, "population_sizes": [8]})
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        statuses = {
            j["run_id"]: j["status"]
            for j in json.loads((out / "manifest.json").read_text())["jobs"]
        }
        assert statuses == {
            "i1_nsga2_tuned_s0": "failed",
            "i1_nsga2_tuned_s1": "failed",
            "i1_nsga2_untuned_s0": "ok",
            "i1_nsga2_untuned_s1": "ok",
        }

    def test_tuned_and_untuned_flags(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(
            cfg, ["i1.json"],
            tuner={"budget": 2, "population_sizes": [8]},
        )
        out = tmp_path / "runs"
        assert main([
            "solve", "--config", str(cfg), "--out", str(out), "--tuned", "--untuned",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        run_ids = sorted(j["run_id"] for j in manifest["jobs"])
        assert run_ids == ["i1_nsga2_tuned_s0", "i1_nsga2_untuned_s0"]
        report = json.loads((out / "i1_nsga2_tuned_s0.report.json").read_text())
        assert report["tuning"]["trials"] == 2

    def test_oracle_ratio_recorded(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], oracle=True,
                           population_size=16, evaluation_budget=320)
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        ratio = manifest["jobs"][0]["oracle_hv_ratio"]
        assert 0.0 <= ratio <= 1.0 + 1e-9

    def test_oracle_ratio_recorded_on_six_by_six(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1, rows=6, cols=6, levels=3)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], oracle=True,
                           population_size=16, evaluation_budget=320)
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        job = json.loads((out / "manifest.json").read_text())["jobs"][0]
        assert job["status"] == "ok"
        assert 0.0 <= job["oracle_hv_ratio"] <= 1.0 + 1e-9

    def test_failed_oracle_leaves_no_run_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("overfly.exact.MAX_STATES", 1)
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], oracle=True)
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        job = json.loads((out / "manifest.json").read_text())["jobs"][0]
        assert job["status"] == "failed"
        assert job["error"].startswith("EnumerationLimitError")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_parallel_matches_serial(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        save_tiny(tmp_path / "i2.json", 2)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json", "i2.json"], seeds=[0, 1])
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["solve", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(parallel), "--workers", "2"]) == 0
        for front in sorted(serial.glob("*.front.json")):
            assert front.read_bytes() == (parallel / front.name).read_bytes()

    def test_dead_worker_keeps_the_batch(self, tmp_path, capsys, monkeypatch):
        for i in (1, 2, 3):
            save_tiny(tmp_path / f"i{i}.json", i)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json", "i2.json", "i3.json"])
        monkeypatch.setattr(cli, "_execute_job", _job_that_kills_its_worker)
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        jobs = {j["run_id"]: j for j in manifest["jobs"]}
        assert list(jobs) == [f"i{i}_nsga2_untuned_s0" for i in (1, 2, 3)]
        assert manifest["total"] == 3 and manifest["failed"] >= 1
        assert jobs["i2_nsga2_untuned_s0"]["status"] == "failed"
        assert "BrokenProcessPool" in jobs["i2_nsga2_untuned_s0"]["error"]
        for job in jobs.values():
            if job["status"] == "ok":
                assert (out / job["front"]).exists()

    @pytest.mark.parametrize(
        "workers, instances, pools",
        [(64, 3, [3]), (2, 3, [2]), (4, 1, [])],
        ids=["more-than-jobs", "fewer-than-jobs", "one-job"],
    )
    def test_pool_never_larger_than_the_jobs(self, tmp_path, capsys, monkeypatch,
                                             workers, instances, pools):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_execute_job", ok_entry)
        names = [f"i{i}.json" for i in range(instances)]
        for i, name in enumerate(names):
            save_tiny(tmp_path / name, i)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, names)
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)]) == 0
        assert RecordingPool.sizes == pools
        assert json.loads((out / "manifest.json").read_text())["total"] == instances

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, workers):
        ran = []
        monkeypatch.setattr(cli, "_execute_job", lambda job: ran.append(job) or ok_entry(job))
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"])
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 1
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_without_instances_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seeds": [0]}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "fields, argv, run_id",
        [
            ({"tuned": [False, False], "seeds": [0, 0]}, [], "i1_nsga2_untuned_s0"),
            ({"tuned": [True, False, True]}, [], "i1_nsga2_tuned_s0"),
            ({"seeds": [0, 1, 1]}, [], "i1_nsga2_untuned_s1"),
            ({"algorithms": ["nsga2", "spea2", "nsga2"]}, [], "i1_nsga2_untuned_s0"),
            ({}, ["--seed", "2", "--seed", "2"], "i1_nsga2_untuned_s2"),
            ({}, ["--algo", "spea2", "--algo", "spea2"], "i1_spea2_untuned_s0"),
            ({"instances": ["i1.json", "sub/i1.json"]}, [], "i1_nsga2_untuned_s0"),
        ],
        ids=["tuned-and-seeds", "tuned", "seeds", "algorithms", "seed-flag", "algo-flag", "stems"],
    )
    def test_duplicate_run_id_is_usage_error(self, tmp_path, capsys, monkeypatch, fields, argv, run_id):
        ran = []
        monkeypatch.setattr(cli, "_execute_job", lambda job: ran.append(job) or {})
        save_tiny(tmp_path / "i1.json", 1)
        (tmp_path / "sub").mkdir()
        save_tiny(tmp_path / "sub" / "i1.json", 2)
        cfg = tmp_path / "run.json"
        fields = dict(fields)
        write_solve_config(cfg, fields.pop("instances", ["i1.json"]), **fields)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), *argv]) == 1
        assert f"duplicate run id {run_id}" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()


class TestTune:
    def test_writes_tuning_files(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"],
                           tuner={"budget": 2, "population_sizes": [8]})
        out = tmp_path / "tuning"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "i1_nsga2.tuning.json").read_text())
        assert len(payload["trials"]) == 2
        assert payload["best"]["population_size"] == 8

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], algorithms=["foo"])
        out = tmp_path / "tuning"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown algorithm 'foo'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("instances", ["i1.json", ["i1.json", 5]], ids=["string", "number"])
    def test_instances_not_file_names_is_usage_error(self, tmp_path, capsys, instances):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, instances)
        out = tmp_path / "tuning"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config field instances" in capsys.readouterr().err
        assert not out.exists()


class TestRunSettings:
    # Each case: config overrides and the field the error must name.
    BAD = {
        "population-odd-and-small": ({"population_size": 3}, "population_size"),
        "budget-below-population": ({"evaluation_budget": 6}, "evaluation_budget"),
        "archive-of-one": ({"archive_size": 1}, "archive_size"),
    }

    @pytest.mark.parametrize(
        "command, case", [(command, case) for case in sorted(BAD) for command in ("solve", "tune")]
    )
    def test_bad_run_size_is_usage_error_naming_field(self, tmp_path, capsys, monkeypatch,
                                                       command, case):
        overrides, field = self.BAD[case]
        ran = []
        monkeypatch.setattr(cli, "_execute_job", lambda job: ran.append(job) or ok_entry(job))
        monkeypatch.setattr(cli, "tune", lambda *args: ran.append(args))
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], **overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"bad run settings: {field}" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    # A tuned trial may draw 60, which a budget of 40 cannot cover.
    TUNED = {"evaluation_budget": 40, "tuner": {"budget": 2, "population_sizes": [8, 60]}}

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--tuned"], ["solve", "--tuned", "--untuned"], ["tune"]],
        ids=["solve-tuned", "solve-both", "tune"],
    )
    def test_tuned_budget_below_a_tuner_size_is_usage_error(self, tmp_path, capsys, argv):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], **self.TUNED)
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field evaluation_budget (40) must cover" in err
        assert "tuner.population_sizes entry (60)" in err
        assert not out.exists()

    def test_untuned_runs_ignore_the_tuner_sizes(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], **self.TUNED)
        out = tmp_path / "o"
        assert main(["solve", "--untuned", "--config", str(cfg), "--out", str(out)]) == 0


def tiny_session(tmp_path):
    """A tuned and untuned ``solve`` and a ``tune`` of one 3x3 world; the
    bytes of their front, manifest and tuning files, keyed by file name,
    with the scratch directory replaced by ``<tmp>``."""
    save_tiny(tmp_path / "i1.json", 1)
    cfg = tmp_path / "run.json"
    write_solve_config(
        cfg, ["i1.json"],
        algorithms=["nsga2", "nsga3", "spea2"], tuned=[True, False],
        tuner={"budget": 2, "population_sizes": [8, 12], "seed": 5},
    )
    runs, tuning = tmp_path / "runs", tmp_path / "tuning"
    assert main(["solve", "--config", str(cfg), "--out", str(runs)]) == 0
    assert main(["tune", "--config", str(cfg), "--out", str(tuning)]) == 0
    files = [*runs.glob("*.front.json"), runs / "manifest.json", *tuning.glob("*.tuning.json")]
    return {
        f.name: f.read_bytes().replace(str(tmp_path).encode(), b"<tmp>") for f in sorted(files)
    }


class TestOutputsUnchanged:
    # SHA-256 of each file's bytes from ``tiny_session``. A changed digest
    # means the file layout or the search itself changed.
    EXPECTED = {
        "i1_nsga2_tuned_s0.front.json":
            "c044d504bc9e20932b0ee13c4cab7f1e003cc9a4ecb68c87595fc85a0fecf1f4",
        "i1_nsga2_untuned_s0.front.json":
            "a40d32b95c07b36b610f9ed92921bd75bafdc1f4f256189ff5c06dd3b83c1fda",
        "i1_nsga3_tuned_s0.front.json":
            "f239b7d3e820dfa499b16c960863a3a4e1e68e28a5a8c0490138bfe0e786a052",
        "i1_nsga3_untuned_s0.front.json":
            "b720ee752d9f3cca9537c9eec6638d9aa9cb6d25e66929b26740ef3520157f8a",
        "i1_spea2_tuned_s0.front.json":
            "557519520d52a404b264c1f4913254fea55ed635a41e235dd691fffc139d8779",
        "i1_spea2_untuned_s0.front.json":
            "a99f5e5099367aa5e7008774beb7f07f66086cc038a8c12a5226013ccf2b1525",
        "manifest.json":
            "3c54582f6805490e8809765e4e0c425bd4ce78d530be598a572647a02c63725d",
        "i1_nsga2.tuning.json":
            "746aec487cede0378da71101eeb53231341dae2586b96a2eaac3c855c8224db3",
        "i1_nsga3.tuning.json":
            "b9bb238f9c7bbdbd62848ac5de3e67e537fbc93dd87a72db90d55b8f0a0067a6",
        "i1_spea2.tuning.json":
            "15e43d39bbfd6b47016d535fcef7c3940638b8917213e8ef041ecd550f7393df",
    }

    def test_front_manifest_and_tuning_bytes(self, tmp_path, capsys):
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in tiny_session(tmp_path).items()
        }
        assert digests == self.EXPECTED


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJsonFiles:
    """Front, report and manifest files read as plain ``json.dumps`` output,
    and a report is its front file plus the run's own fields."""

    def test_files_are_json_dumps_and_reports_extend_fronts(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(
            cfg, ["i1.json"], tuned=[True, False], oracle=True,
            tuner={"budget": 2, "population_sizes": [8, 12], "seed": 5},
        )
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        reports = sorted(out.glob("*.report.json"))
        assert [p.name for p in reports] == ["i1_nsga2_tuned_s0.report.json", "i1_nsga2_untuned_s0.report.json"]
        for path in [*out.glob("*.front.json"), *reports, out / "manifest.json"]:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
        for path in reports:
            report = json.loads(path.read_text(encoding="utf-8"))
            own = ["wall_clock_s", "operator_stats", "oracle_hv_ratio"]
            if report["tuned"]:
                own.append("tuning")
            for key in own:
                del report[key]
            report["schema"] = "overfly.front/1"
            front = path.with_name(path.name.replace(".report.", ".front."))
            assert report == json.loads(front.read_text(encoding="utf-8")), path.name

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=st.dictionaries(st.text(), JSON_VALUES, min_size=1, max_size=6))
    def test_fragments_write_json_dumps_bytes(self, tmp_path, payload):
        path = tmp_path / "payload.json"
        cli._dump_fragments(path, cli._json_fragments(payload))
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == want


class TestTable:
    def make_runs(self, tmp_path):
        # 5x5 worlds with three levels: big enough that the two algorithms
        # reach different hypervolumes under this tight budget.
        save_tiny(tmp_path / "i1.json", 1, rows=5, cols=5, levels=3)
        save_tiny(tmp_path / "i2.json", 2, rows=5, cols=5, levels=3)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json", "i2.json"],
                           algorithms=["nsga2", "spea2"], seeds=[0, 1])
        out = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        return sorted(str(p) for p in out.glob("*.front.json"))

    def test_table_has_one_hundred_per_row(self, tmp_path, capsys):
        fronts = self.make_runs(tmp_path)
        out = tmp_path / "table"
        assert main(["table", *fronts, "--out", str(out)]) == 0
        csv_text = (out / "table.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].split(",")[0] == "instance"
        for line in lines[1:]:
            cells = line.split(",")[1:]
            assert cells.count("100.00") == 1
            for cell in cells:
                if cell:
                    assert len(cell.split(".")[-1]) == 2  # two decimals
        txt = (out / "table.txt").read_text()
        assert "%" in txt

    def test_missing_combo_blank_with_warning(self, tmp_path, capsys):
        fronts = self.make_runs(tmp_path)
        subset = [f for f in fronts if "i2_spea2" not in f]
        out = tmp_path / "table"
        assert main(["table", *subset, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "i2" in err and "spea2" in err
        csv_lines = (out / "table.csv").read_text().strip().split("\n")
        i2_row = [ln for ln in csv_lines if ln.startswith("i2")][0]
        assert ",," in i2_row or i2_row.endswith(",")

    def test_byte_identical_tables(self, tmp_path, capsys):
        fronts = self.make_runs(tmp_path)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["table", *fronts, "--out", str(out1)]) == 0
        assert main(["table", *fronts, "--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
        assert (out1 / "table.txt").read_bytes() == (out2 / "table.txt").read_bytes()

    def test_rejects_non_front_file(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "other"}))
        assert main(["table", str(bogus), "--out", str(tmp_path / "t")]) == 1


class TestFrontFileChecks:
    """``table`` and ``plot`` refuse a malformed front file before writing
    anything, naming the file and the field."""

    def make_fronts(self, tmp_path):
        save_tiny(tmp_path / "i1.json", 1)
        write_solve_config(tmp_path / "run.json", ["i1.json"], algorithms=["nsga2", "spea2"])
        runs = tmp_path / "runs"
        assert main(["solve", "--config", str(tmp_path / "run.json"), "--out", str(runs)]) == 0
        return sorted(runs.glob("*.front.json"))

    @pytest.mark.parametrize("command", ["table", "plot"])
    def test_schema_only_file_names_the_missing_field(self, tmp_path, capsys, command):
        bare = tmp_path / "bare.front.json"
        bare.write_text(json.dumps({"schema": "overfly.front/1"}))
        out = tmp_path / "out"
        assert main([command, str(bare), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bare}: field instance is missing\n"
        assert not out.exists()

    def test_plot_checks_every_file_before_writing(self, tmp_path, capsys):
        good, bad = self.make_fronts(tmp_path)
        payload = json.loads(bad.read_text())
        payload["front"][0]["cells"][1] = "east"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "figs"
        assert main(["plot", str(good), str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {bad}: field front[0].cells must be a list of [row, col] pairs, "
            f"got {payload['front'][0]['cells']!r}\n"
        )
        assert not out.exists()

    def test_table_rejects_non_finite_bounds(self, tmp_path, capsys):
        fronts = self.make_fronts(tmp_path)
        payload = json.loads(fronts[0].read_text())
        payload["bounds"]["length_lo"] = float("nan")
        fronts[0].write_text(json.dumps(payload))
        out = tmp_path / "table"
        assert main(["table", *map(str, fronts), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {fronts[0]}: bad bounds: length_lo must be finite, got nan\n"
        )
        assert not out.exists()

    def test_older_layout_reads_the_same(self, tmp_path, capsys):
        # Front files once repeated each member's risk as combined_risk and
        # held config.reference_point_divisions: table and plot still read
        # them, to the same bytes.
        fronts = self.make_fronts(tmp_path)
        older = tmp_path / "older"
        older.mkdir()
        for front in fronts:
            payload = json.loads(front.read_text())
            payload["config"]["reference_point_divisions"] = 99
            for member in payload["front"] + payload["archive"]:
                member["combined_risk"] = member["risk"]
            (older / front.name).write_text(json.dumps(payload))
        for command in ("table", "plot"):
            outputs = []
            for files in (fronts, sorted(older.iterdir())):
                out = tmp_path / command / files[0].parent.name
                assert main([command, *map(str, files), "--out", str(out)]) == 0
                outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["table", "plot"])
    def test_bounds_of_wrong_type_name_the_field(self, tmp_path, capsys, command):
        fronts = self.make_fronts(tmp_path)
        payload = json.loads(fronts[0].read_text())
        payload["bounds"]["length_lo"] = "x"
        fronts[0].write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main([command, *map(str, fronts), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {fronts[0]}: field bounds.length_lo must be a number, got 'x'\n"
        )
        assert not out.exists()


class TestPlot:
    def test_writes_figures_and_csv(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"])
        runs = tmp_path / "runs"
        assert main(["solve", "--config", str(cfg), "--out", str(runs)]) == 0
        fronts = sorted(str(p) for p in runs.glob("*.front.json"))
        out = tmp_path / "figs"
        assert main(["plot", *fronts, "--out", str(out)]) == 0
        for name in ("fronts.svg", "convergence.svg", "correlation.svg", "correlation.csv"):
            assert (out / name).exists()
        assert (out / "i1_nsga2_untuned_s0.front.csv").exists()
        assert (out / "i1_nsga2_untuned_s0.path.csv").exists()
        svg = (out / "correlation.svg").read_text()
        assert "r=" in svg or "r undefined" in svg
        path_csv = (out / "i1_nsga2_untuned_s0.path.csv").read_text().strip().split("\n")
        assert path_csv[0] == "step,row,col,level,altitude_m"
        assert len(path_csv) >= 3


class TestCheck:
    def test_passes_on_sound_instance(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        assert main(["check", str(tmp_path / "i1.json"), "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") >= 5
        assert "FAIL" not in out

    def test_passes_on_six_by_six(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1, rows=6, cols=6, levels=3)
        assert main(["check", str(tmp_path / "i1.json"), "--samples", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert all(line.split(": ", 1)[1].startswith("ok") for line in lines)

    def test_oversized_instance_refused(self, tmp_path, capsys, monkeypatch):
        save_oversized(tmp_path / "big.json")
        monkeypatch.setattr(cli, "enumerate_front", refuse_to_run)
        assert main(["check", str(tmp_path / "big.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("refusing: the LP model would have ")
        assert captured.out == ""

    @pytest.mark.parametrize("samples", [[], ["--samples", "0"]])
    def test_no_route_fails_enumerate_and_exits_three(self, tmp_path, capsys, samples):
        wall = np.zeros((3, 3))
        wall[:, 1] = 100.0  # above the top level: the middle column is impassable
        save_instance(build_env(rows=3, cols=3, obstacle=wall), tmp_path / "walled.json")
        assert main(["check", str(tmp_path / "walled.json"), *samples]) == 3
        out = capsys.readouterr().out
        assert "check enumerate: FAIL (0 member(s), 0 path(s)" in out

    def test_injected_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        save_tiny(tmp_path / "i1.json", 1)
        monkeypatch.setattr(cli, "mutation_test", lambda model, base: {"eq3": False})
        assert main(["check", str(tmp_path / "i1.json"), "--samples", "5"]) == 3
        assert "FAIL" in capsys.readouterr().out

    # SHA-256 of ``check --samples 20`` stdout on the two worlds above: the
    # check lines, counts and worst gap must not change with the LP code.
    # lp-mutation counts the model's 19 row families.
    EXPECTED_STDOUT = {
        "tiny": "5899d6cc914a2a5f5eab4ea359cef1808d302c7df7a1c8ce6e0a5fcf90a06cf2",
        "six-by-six": "87cfcf3005648aa05b40993b8fa6b71ddd62a869ca8d99093672dad39f87ad4d",
    }

    def test_stdout_bytes(self, tmp_path, capsys):
        save_tiny(tmp_path / "tiny.json", 1)
        save_tiny(tmp_path / "six-by-six.json", 1, rows=6, cols=6, levels=3)
        digests = {}
        for name in self.EXPECTED_STDOUT:
            assert main(["check", str(tmp_path / f"{name}.json"), "--samples", "20"]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == self.EXPECTED_STDOUT


class TestNegativeSeeds:
    # Each case: the command line after the instance or config, and the
    # flag or field the error must name.
    CASES = {
        "check-samples": (["check", "{world}", "--samples", "-5"], "argument --samples"),
        "check-seed": (["check", "{world}", "--seed", "-1"], "argument --seed"),
        "gen-seed": (["gen", "--out", "{out}", "--seed", "-1"], "argument --seed"),
        "solve-seed": (
            ["solve", "--config", "{config}", "--out", "{out}", "--seed", "-1"], "argument --seed"
        ),
        "config-seeds": (["solve", "--config", "{bad_config}", "--out", "{out}"], "seeds[1]"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_naming_it_with_no_output(self, tmp_path, capsys, case):
        argv, name = self.CASES[case]
        save_tiny(tmp_path / "i1.json", 1)
        write_solve_config(tmp_path / "run.json", ["i1.json"])
        write_solve_config(tmp_path / "bad.json", ["i1.json"], seeds=[0, -3])
        paths = {
            "world": tmp_path / "i1.json",
            "out": tmp_path / "o",
            "config": tmp_path / "run.json",
            "bad_config": tmp_path / "bad.json",
        }
        assert main([arg.format_map(paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()


class TestLpExport:
    def test_writes_lp_text(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        out = tmp_path / "model.lp"
        assert main(["lp-export", str(tmp_path / "i1.json"), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("\\")
        assert "Minimize" in text and "End\n" in text

    def test_weighted_requires_bounds(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        assert main([
            "lp-export", str(tmp_path / "i1.json"), "--out", str(tmp_path / "m.lp"),
            "--objective", "weighted",
        ]) == 1

    def test_weighted_with_bounds(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        assert main([
            "lp-export", str(tmp_path / "i1.json"), "--out", str(tmp_path / "m.lp"),
            "--objective", "weighted", "--weight", "0.3",
            "--length-lo", "10", "--length-hi", "50",
            "--energy-lo", "100", "--energy-hi", "900",
        ]) == 0
        assert "weighted" in (tmp_path / "m.lp").read_text()

    def test_epsilon_requires_cap(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        assert main([
            "lp-export", str(tmp_path / "i1.json"), "--out", str(tmp_path / "m.lp"),
            "--objective", "epsilon",
        ]) == 1

    def test_epsilon_with_cap(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        assert main([
            "lp-export", str(tmp_path / "i1.json"), "--out", str(tmp_path / "m.lp"),
            "--objective", "epsilon", "--risk-cap", "2.5",
        ]) == 0
        assert "risk_cap" in (tmp_path / "m.lp").read_text()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--big-m", "nan"], "--big-m must be finite, got nan"),
            (["--big-m", "inf"], "--big-m must be finite, got inf"),
            (["--objective", "epsilon", "--risk-cap", "nan"], "--risk-cap must be finite, got nan"),
            (["--big-m", "1"], "--big-m must exceed the largest altitude span, got 1.0"),
            (
                ["--objective", "epsilon", "--risk-cap", "-1"],
                "--risk-cap must be >= 0 for the epsilon objective, got -1.0",
            ),
            (
                ["--objective", "weighted", "--weight", "2", "--length-lo", "0",
                 "--length-hi", "1", "--energy-lo", "0", "--energy-hi", "1"],
                "--weight must be in [0, 1], got 2.0",
            ),
            (
                ["--objective", "weighted", "--length-lo", "nan", "--length-hi", "100",
                 "--energy-lo", "0", "--energy-hi", "10"],
                "--length-lo must be finite, got nan",
            ),
            (
                ["--objective", "weighted", "--length-lo", "0", "--length-hi", "inf",
                 "--energy-lo", "0", "--energy-hi", "10"],
                "--length-hi must be finite, got inf",
            ),
            (
                ["--objective", "weighted", "--length-lo", "100", "--length-hi", "50",
                 "--energy-lo", "0", "--energy-hi", "10"],
                "--length-hi must be >= length_lo (100.0), got 50.0",
            ),
            (
                ["--objective", "weighted", "--length-lo", "0", "--length-hi", "100",
                 "--energy-lo", "nan", "--energy-hi", "10"],
                "--energy-lo must be finite, got nan",
            ),
            (
                ["--objective", "weighted", "--length-lo", "0", "--length-hi", "100",
                 "--energy-lo", "10", "--energy-hi", "5"],
                "--energy-hi must be >= energy_lo (10.0), got 5.0",
            ),
        ],
    )
    def test_bad_lp_parameter_names_its_flag(self, tmp_path, capsys, flags, message):
        save_tiny(tmp_path / "i1.json", 1)
        out = tmp_path / "m.lp"
        assert main(["lp-export", str(tmp_path / "i1.json"), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_big_m_below_an_obstacle_top_names_its_flag(self, tmp_path, capsys):
        # Levels 0/10/20 m and one 30 m tower: an unused arc into the tower
        # meets its eq7 row only when big-M reaches 30 m.
        obstacle = np.zeros((3, 3))
        obstacle[0, 1] = 30.0
        instance, out = tmp_path / "tower.json", tmp_path / "m.lp"
        save_instance(build_env(rows=3, cols=3, obstacle=obstacle), instance)
        assert main(["lp-export", str(instance), "--out", str(out), "--big-m", "25"]) == 1
        assert capsys.readouterr().err == (
            "error: --big-m must reach the tallest obstacle off the start (30.0 m), got 25.0\n"
        )
        assert not out.exists()
        assert main(["lp-export", str(instance), "--out", str(out), "--big-m", "30"]) == 0
        assert "\\ big-M constant: 30.0\n" in out.read_text()

    def test_oversized_refused(self, tmp_path, capsys, monkeypatch):
        save_oversized(tmp_path / "big.json")
        monkeypatch.setattr(cli, "render_lp", refuse_to_run)
        assert main(["lp-export", str(tmp_path / "big.json"),
                     "--out", str(tmp_path / "m.lp")]) == 2
        assert capsys.readouterr().err.startswith("refusing: the LP model would have ")
        assert not (tmp_path / "m.lp").exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command", ["table", "plot"])
    def test_no_front_files(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 1
        assert "the following arguments are required: files" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "solve", "tune", "table", "plot"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, command):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], tuner={"budget": 2, "population_sizes": [8]})
        fronts = []
        if command in ("table", "plot"):
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
            fronts = sorted(str(p) for p in (tmp_path / "runs").glob("*.front.json"))
        inputs = {"gen": [], "solve": ["--config", str(cfg)], "tune": ["--config", str(cfg)],
                  "table": fronts, "plot": fronts}[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("keep", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        # An existing file, and a path below one.
        for out in (blocker, blocker / "below"):
            capsys.readouterr()
            assert main([command, *inputs, "--out", str(out)]) == 1
            assert f"error: --out {out} cannot be a directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("below_a_file", [False, True], ids=["directory", "below-a-file"])
    def test_lp_export_out_that_cannot_be_a_file(self, tmp_path, capsys, monkeypatch, below_a_file):
        save_tiny(tmp_path / "i1.json", 1)
        blocker = tmp_path / "blocker"
        if below_a_file:
            blocker.write_text("keep", encoding="utf-8")
            out, expected = blocker / "m.lp", f"--out {blocker / 'm.lp'} lies below {blocker}"
        else:
            blocker.mkdir()
            out, expected = blocker, f"--out {blocker} is a directory"
        monkeypatch.setattr(cli, "build_model", refuse_to_run)
        before = sorted(tmp_path.rglob("*"))
        assert main(["lp-export", str(tmp_path / "i1.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {expected}")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["check", "lp-export"])
    @pytest.mark.parametrize(
        "case",
        [
            "missing", "malformed", "not-utf-8", "oversized-cell", "off-grid-start",
            "start-is-goal", "negative-ceiling",
        ],
    )
    def test_unreadable_instance_names_the_file(self, tmp_path, capsys, command, case):
        path = tmp_path / "world.json"
        # A world error names the file's own key.
        geometry = {
            # Squared lengths would overflow to infinite objectives.
            "oversized-cell": "grid.cell_size_m: must lie in (0, 1e+06], got 1e+154",
            "off-grid-start": "start.cell: (9, 0) outside the 3x3 grid",
            "start-is-goal": "goal.cell: must differ from the start cell",
            # An unused arc into the cell would break its eq8 row.
            "negative-ceiling": "cells[0].ceiling_m: must be non-negative (cell [0, 0])",
        }
        if case in geometry:
            save_tiny(path, 1)
            doc = json.loads(path.read_text(encoding="utf-8"))
            if case == "oversized-cell":
                doc["grid"]["cell_size_m"] = 1e154
            elif case == "off-grid-start":
                doc["start"]["cell"] = [9, 0]
            elif case == "negative-ceiling":
                assert doc["cells"][0]["cell"] == [0, 0]
                doc["cells"][0]["ceiling_m"] = -5
            else:
                doc["goal"]["cell"] = doc["start"]["cell"]
            path.write_text(json.dumps(doc), encoding="utf-8")
            expected = f"error: {path}: {geometry[case]}\n"
        elif case == "malformed":
            path.write_text(json.dumps({"grid": {"rows": "x"}}), encoding="utf-8")
            expected = f"error: {path}: grid.rows: expected an integer, got str\n"
        elif case == "not-utf-8":
            path.write_bytes(b'{"grid": "\xff"}')
            expected = f"error: {path}: not valid JSON ("
        else:
            expected = f"error: cannot read {path}: "
        out = tmp_path / "m.lp"
        argv = [command, str(path)] + (["--out", str(out)] if command == "lp-export" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "check", "table"])
    @pytest.mark.parametrize("case", ["not-utf-8", "directory"])
    def test_unreadable_config_or_front_names_the_file(self, tmp_path, capsys, command, case):
        save_tiny(tmp_path / "i1.json", 1)
        path = tmp_path / "input.json"
        if case == "directory":
            path.mkdir()
            expected = f"error: cannot read {path}: "
        else:
            path.write_bytes(b'{"seeds": "\xff"}')
            expected = f"error: {path} is not valid JSON: "
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", "--config", str(path), "--out", str(out)],
            "check": ["check", str(tmp_path / "i1.json"), "--config", str(path)],
            "table": ["table", str(path), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert not out.exists()

    def test_import_leaves_out_network_and_pool_modules(self):
        # Start-up cost: none of these is needed to import the command, and
        # the pool is imported only by `solve --workers N` with N > 1.
        unwanted = ["xml.sax", "urllib.request", "http.client", "email", "ssl",
                    "concurrent.futures"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys, overfly.cli; print([m for m in {unwanted!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "[]\n"

    def test_unknown_algo_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"instances": ["x.json"]}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--algo", "genetic"]) == 1

    def test_unknown_algorithm_in_config(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], algorithms=["simulated-annealing"])
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


class TestIntegerConfigFields:
    # Each case: config overrides and the field the error must name.
    BAD = {
        "word-population": ({"population_size": "many"}, "population_size"),
        "fractional-population": ({"population_size": 40.5}, "population_size"),
        "word-seed": ({"seeds": ["x"]}, "seeds[0]"),
        "word-tuner-seed": ({"tuner": {"seed": "x"}}, "tuner.seed"),
        "bool-budget": ({"evaluation_budget": True}, "evaluation_budget"),
        "word-tuner-budget": ({"tuner": {"budget": "2"}}, "tuner.budget"),
    }

    @pytest.mark.parametrize(
        "command, case",
        [("solve", case) for case in sorted(BAD)]
        + [("tune", case) for case in sorted(BAD) if case != "word-seed"],  # tune runs no seeds
    )
    def test_non_integer_is_usage_error_naming_field(self, tmp_path, capsys, command, case):
        overrides, field = self.BAD[case]
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], **overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config field {field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_accepted(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], population_size=8.0, seeds=[1.0])
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "i1_nsga2_untuned_s1.report.json").read_text())
        assert report["config"]["population_size"] == 8


class TestConfigSections:
    # Each case: the commands it applies to, config overrides, and the text
    # the usage error must carry.
    BAD = {
        "tuned-string": (("solve",), {"tuned": "yes"}, "config field tuned must be a list of booleans"),
        "oracle-string": (("solve",), {"oracle": "false"}, "config field oracle must be a boolean"),
        "tuner-number": (("solve", "tune"), {"tuner": 5}, "config field tuner must be an object"),
        "sizes-word": (
            ("solve", "tune"),
            {"tuner": {"population_sizes": ["x"]}},
            "config field tuner.population_sizes[0] must be an integer",
        ),
        # An empty list of algorithms or tuned flags once ran an empty
        # batch, and a bare string of algorithms was read letter by letter.
        "algorithms-empty": (
            ("solve", "tune"), {"algorithms": []}, "bad run list: algorithms must not be empty"
        ),
        "tuned-empty": (("solve", "tune"), {"tuned": []}, "bad run list: tuned must not be empty"),
        "algorithms-string": (
            ("solve", "tune"),
            {"algorithms": "spea2"},
            "config field algorithms must be a list of strings, got 'spea2'",
        ),
        "instances-empty": (
            ("solve", "tune"), {"instances": []}, "bad run list: instances must not be empty"
        ),
        "seeds-empty": (("solve", "tune"), {"seeds": []}, "bad run list: seeds must not be empty"),
        # start_cell and goal_cell are the only pairs a config holds.
        "start-cell-number": (
            ("gen",),
            {"overrides": {"start_cell": 3}},
            "config field overrides.start_cell must be a list of two integers, got 3",
        ),
    }

    @pytest.mark.parametrize(
        "command, case",
        [(command, case) for case, (commands, _, _) in sorted(BAD.items()) for command in commands],
    )
    def test_bad_section_is_usage_error_naming_field(self, tmp_path, capsys, command, case):
        _commands, overrides, message = self.BAD[case]
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        overrides = dict(overrides)
        write_solve_config(cfg, overrides.pop("instances", ["i1.json"]), **overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "tune"])
    def test_config_algorithms_checked_under_algo_flag(self, tmp_path, capsys, command):
        # The flag replaces the config's list, which must still be valid.
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], algorithms=["foo"])
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--algo", "nsga2"]) == 1
        assert "unknown algorithm 'foo' in algorithms" in capsys.readouterr().err
        assert not out.exists()


class TestRecordFields:
    # Each case: the commands it applies to, config overrides, and the
    # field the usage error must name. Each of these once ran, or failed
    # later without naming the field. The settings that became constants
    # must be refused as unknown fields, not as values of the wrong type.
    DRONE_COMMANDS = ("solve", "tune", "check", "lp-export")
    BAD = {
        "drone-bool-weight": (DRONE_COMMANDS, {"drone": {"weight_kg": True}}, "drone.weight_kg"),
        "drone-half-rotor": (DRONE_COMMANDS, {"drone": {"rotor_count": 4.5}}, "drone.rotor_count"),
        "drone-unknown": (("check",), {"drone": {"mass_kg": 2}}, "drone.mass_kg"),
        "operators-fractional-retries": (
            ("solve", "tune"),
            {"operators": {"max_init_retries": 2.5}},
            "unknown config field(s): operators.max_init_retries",
        ),
        "operators-fractional-shift": (
            ("solve", "tune"),
            {"operators": {"max_shift": 1.5}},
            "unknown config field(s): operators.max_shift",
        ),
        "operators-word-probability": (
            ("solve", "tune"),
            {"operators": {"crossover_probability": "0.5"}},
            "operators.crossover_probability",
        ),
        "overrides-fractional-start": (
            ("gen",), {"overrides": {"start_cell": [0.5, 0]}}, "overrides.start_cell"
        ),
        "overrides-fractional-rounds": (
            ("gen",),
            {"overrides": {"max_rounds": 2.5}},
            "unknown config field(s): overrides.max_rounds",
        ),
        "overrides-fractional-rows": (("gen",), {"overrides": {"rows": 4.5}}, "overrides.rows"),
        "tuner-misspelt-budget": (("solve", "tune"), {"tuner": {"budgte": 5}}, "tuner.budgte"),
        "misspelt-run-size": (("solve", "tune"), {"populaton_size": 20}, "populaton_size"),
        "reference-point-divisions": (
            ("solve", "tune"),
            {"reference_point_divisions": 4},
            "unknown config field(s): reference_point_divisions",
        ),
        "tuner-crossover-range": (
            ("solve", "tune"),
            {"tuner": {"crossover_range": [0.6, 0.9]}},
            "unknown config field(s): tuner.crossover_range",
        ),
        "tuner-mutation-probability-range": (
            ("solve", "tune"),
            {"tuner": {"mutation_probability_range": [0.1, 0.2]}},
            "unknown config field(s): tuner.mutation_probability_range",
        ),
        "tuner-mutation-rate-range": (
            ("solve", "tune"),
            {"tuner": {"mutation_rate_range": [0.9, 0.2]}},
            "unknown config field(s): tuner.mutation_rate_range",
        ),
        # A misspelt section once ran on defaults under gen, check and lp-export.
        "misspelt-section": (
            ("gen", *DRONE_COMMANDS),
            {"drnoe": {"weight_kg": 99}},
            "unknown config field(s): drnoe",
        ),
        "misspelt-overrides": (
            ("gen", *DRONE_COMMANDS),
            {"overides": {"rows": 99}},
            "unknown config field(s): overides",
        ),
        "overrides-outside-gen": (
            DRONE_COMMANDS, {"overrides": {"rows": 5}}, "unknown config field(s): overrides"
        ),
    }

    @pytest.mark.parametrize(
        "command, case",
        [(command, case) for case, (commands, _, _) in sorted(BAD.items()) for command in commands],
    )
    def test_bad_field_is_usage_error_naming_it(self, tmp_path, capsys, command, case):
        _commands, overrides, field = self.BAD[case]
        instance = str(tmp_path / "i1.json")
        save_tiny(instance, 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], **overrides)
        out = tmp_path / "o"
        argv = {
            "gen": ["gen"],
            "solve": ["solve"],
            "tune": ["tune"],
            "check": ["check", instance],
            "lp-export": ["lp-export", instance],
        }[command]
        if command != "check":
            argv += ["--out", str(out)]
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f" {field} " in captured.err or f" {field}\n" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_every_solve_config_key_is_read(self, tmp_path, capsys):
        # A config holding every top-level key runs under each command that
        # takes one: the unknown-key check refuses no key a solve config may
        # hold, and gen, check and lp-export still take such a config.
        instance = str(tmp_path / "i1.json")
        save_tiny(instance, 1)
        cfg = tmp_path / "run.json"
        config = write_solve_config(
            cfg,
            ["i1.json"],
            oracle=False,
            drone={},
            operators={},
            tuner={"budget": 1, "population_sizes": [8]},
        )
        assert set(config) == cli._CONFIG_KEYS
        for argv in (
            ["gen", "--out", str(tmp_path / "g")],
            ["solve", "--out", str(tmp_path / "s")],
            ["tune", "--out", str(tmp_path / "t")],
            ["check", instance],
            ["lp-export", instance, "--out", str(tmp_path / "m.lp")],
        ):
            assert main([*argv, "--config", str(cfg)]) == 0, argv

    def test_integral_float_is_stored_as_an_integer(self, tmp_path, capsys):
        save_tiny(tmp_path / "i1.json", 1)
        cfg = tmp_path / "run.json"
        write_solve_config(cfg, ["i1.json"], drone={"rotor_count": 4.0, "weight_kg": 2})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "i1_nsga2_untuned_s0.front.json").read_text()
        assert '"rotor_count": 4,' in text
        assert '"weight_kg": 2\n' in text  # a float field keeps the number as given


class TestConfigReader:
    RECORDS = [
        DroneParams, OperatorConfig, AlgoConfig, TunerConfig, GeneratorSettings, cli._RunList
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
    def test_every_field_reads_back_its_default(self, record):
        # A field whose annotation the reader has no rule for fails here:
        # each field must take its own default, written as JSON, and must
        # refuse a JSON object with a usage error naming it.
        # ``AlgoConfig`` is read for its run sizes only.
        read = cli._RUN_SIZES if record is AlgoConfig else None
        for f in dataclasses.fields(record):
            if read is not None and f.name not in read:
                continue
            name = f.name
            default = 4 if f.default is dataclasses.MISSING else f.default  # rows, cols: none
            as_json = json.loads(json.dumps(default))
            assert cli._config_fields(record, {name: as_json}, "section") == {name: default}
            with pytest.raises(cli._UsageError, match=f"config field section.{name} must be"):
                cli._config_fields(record, {name: {}}, "section")
