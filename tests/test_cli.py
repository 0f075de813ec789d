"""The overfly command: all subcommands, exit codes, and determinism."""

import json
import os

import pytest

from overfly import GeneratorSettings, generate, save_instance
from overfly.cli import main
import overfly.cli as cli


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

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_without_instances_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seeds": [0]}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


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

    def test_oversized_instance_refused(self, tmp_path, capsys):
        save_tiny(tmp_path / "big.json", 1, rows=6, cols=6)
        assert main(["check", str(tmp_path / "big.json")]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_injected_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        save_tiny(tmp_path / "i1.json", 1)
        monkeypatch.setattr(cli, "mutation_test", lambda model, base: {"eq3": False})
        assert main(["check", str(tmp_path / "i1.json"), "--samples", "5"]) == 3
        assert "FAIL" in capsys.readouterr().out


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

    def test_oversized_refused(self, tmp_path, capsys):
        save_tiny(tmp_path / "big.json", 1, rows=6, cols=6)
        assert main(["lp-export", str(tmp_path / "big.json"),
                     "--out", str(tmp_path / "m.lp")]) == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

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
