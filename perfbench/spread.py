"""Run the benchmark over several seeds and summarise each metric.

From the root of a checkout:

    python3 perfbench/spread.py --workload oracle --seeds 10 --seconds 40 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed (0 .. N-1, or from ``--first``),
one after another, and prints for each metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. ``--out`` also
writes the runs (with each run's printed report, machine included) and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarise(results: list[dict]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runner = Path(__file__).with_name("run.py")
    results = []
    for seed in range(args.first, args.first + args.seeds):
        cmd = [sys.executable, str(runner), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["report"] = lines[:-1]
        results.append(result)
        shown = "  ".join(f"{k}={m['value']:.5g}" for k, m in list(result["metrics"].items())[:6])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}  {shown}",
              flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": results, "summary": summary},
                                             indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
