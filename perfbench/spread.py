"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seed 1] [--seeds 10]

Runs `run.py --trace 0` once per seed and workload of BENCHMARK.json, one
run at a time, with the workloads interleaved within each seed so that drift
on the host does not fall on a single workload, and prints each run's
metrics with their units and its fail_frac.  `--seeds 1` is one run of every
workload on one seed.  Over two or more seeds it then prints, for each
workload and metric, the median and the quartile spread, (Q3 - Q1) / median
from `statistics.quantiles(n=4)`, against the metric's bound in
BENCHMARK.json.  Exits 1 if a run fails or a spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for seed in range(args.seed, args.seed + args.seeds):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout.strip(), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    if args.seeds < 2:
        return 0

    steady = True
    print(f"{'workload':10} {'metric':12} {'median':>10} {'spread':>7} {'bound':>6}")
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in workloads:
            q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
            spread = (q3 - q1) / median
            line = f"{workload:10} {name:12} {median:10.4f} {spread:7.3f} {bound:6.2f}"
            if spread > bound:
                steady = False
                line += "  over bound"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
