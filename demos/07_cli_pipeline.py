"""The full command-line pipeline, end to end.

gen writes a graded suite of instance files; solve runs every requested
(instance, algorithm, tuned, seed) combination and records fronts,
convergence logs, and reports; table assembles the relative comparison;
plot renders SVG charts and CSV extracts; check runs the self-verification
oracles on one instance; lp-export writes the linear program.

Everything is driven through the same entry point the ``overfly`` console
script uses, inside a temporary directory that is removed when the demo
ends.
"""

import atexit
import json
import shutil
import tempfile
from pathlib import Path

from overfly.cli import main

tmp = Path(tempfile.mkdtemp(prefix="overfly-demo-"))
atexit.register(shutil.rmtree, tmp, ignore_errors=True)
print("working in", tmp, "\n")

# -- 1. generate a small custom suite ------------------------------------------------

inst_dir = tmp / "instances"
assert main(["gen", "--seed", "1", "--out", str(inst_dir)]) == 0
instances = sorted(p.name for p in inst_dir.glob("T*.json"))
print(f"generated {len(instances)} instances:", ", ".join(instances[:6]), "...\n")

# -- 2. solve two of them with two algorithms ----------------------------------------

config = {
    "instances": [str(inst_dir / "T1-1.json"), str(inst_dir / "T1-2.json")],
    "algorithms": ["nsga2", "spea2"],
    "tuned": [False],
    "seeds": [0, 1],
    "population_size": 20,
    "evaluation_budget": 600,
    "archive_size": 20,
    "oracle": True,
}
cfg_path = tmp / "solve.json"
cfg_path.write_text(json.dumps(config, indent=2))
runs = tmp / "runs"
assert main(["solve", "--config", str(cfg_path), "--out", str(runs)]) == 0
manifest = json.loads((runs / "manifest.json").read_text())
print(f"\nsolved {manifest['total']} jobs, {manifest['failed']} failed")
report = json.loads((runs / "T1-1_nsga2_untuned_s0.report.json").read_text())
print(f"sample run: {report['evaluations']} evaluations, "
      f"oracle ratio {report['oracle_hv_ratio']:.3f}\n")

# -- 3. comparison table ---------------------------------------------------------------

fronts = sorted(str(p) for p in runs.glob("*.front.json"))
assert main(["table", *fronts, "--out", str(tmp / "table")]) == 0

# -- 4. plots ----------------------------------------------------------------------------

assert main(["plot", *fronts, "--out", str(tmp / "plots")]) == 0
made = sorted(p.name for p in (tmp / "plots").iterdir())
print("\nplot artifacts:", ", ".join(made[:6]), "...")

# -- 5. self-checks against the exact oracle ------------------------------------------

assert main(["check", str(inst_dir / "T1-1.json")]) == 0

# -- 6. export the LP ------------------------------------------------------------------------

lp_path = tmp / "model.lp"
assert main(["lp-export", str(inst_dir / "T1-1.json"), "--out", str(lp_path)]) == 0
print(f"\nLP written: {lp_path.stat().st_size} bytes")
