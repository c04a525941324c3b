"""gradelab benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload symmetry --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the children import gradelab from
`src/`.  With `--trace 0` the run pays set-up in six set-up-only children,
three before and three after the workload children, which run the
workload's fixed operation list one after another (at least one) so that
the whole run takes about `--seconds` seconds.  Every child times the
host's pace (`pace.py`), and times are CPU seconds at the reference pace.
The run reports medians over those children:

    setup_s      child start -> `import gradelab` done and g1..g4 built
    cpu_s        the workload's operation list, after set-up
    peak_rss_mb  the child's peak resident set

It also prints, not as metrics, the raw wall and CPU times and the pace.
`fail_frac` (failed / attempted operations) is printed with its base; it is
0 on a correct program, and the run exits 1 if any operation failed.  With
`--trace 1` one untraced and one traced child run: the per-layer stage
times come from the untraced child, the counts and self times from the
traced one, and the tracing overhead is the difference of their wall times.

Children run one at a time, single-threaded, with a fixed hash seed.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORKLOADS = ("symmetry", "contract", "substrate")

SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# Printed beside the metrics: what the reference pace corrects.
RAW = {"setup_raw_s": "s", "wall_s": "s", "cpu_raw_s": "s", "pace": "ratio"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    return env


def run_child(workload, seed, *flags, tiny=False) -> dict:
    """Start one child, wait for it, and return its JSON report plus its lifetime."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           *flags] + (["--tiny"] if tiny else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["lifetime_s"] = time.monotonic() - start
    return report


def timed_run(workload, seed, seconds, tiny=False):
    """Set-up probes around workload children that fill about `seconds`.

    Half the set-up probes run before the children and half after, so that
    `setup_s` samples the same stretch of time as `cpu_s`.
    """
    def probes():
        return [run_child(workload, seed, "--pace", "--setup-only")
                for _ in range(SETUP_PROBES // 2)]

    start = time.monotonic()
    setups = probes()
    reserve = time.monotonic() - start  # for the trailing probes
    children = []
    while True:
        children.append(run_child(workload, seed, "--pace", tiny=tiny))
        elapsed = time.monotonic() - start
        if elapsed + children[-1]["lifetime_s"] + reserve > seconds:
            break
    setups += probes() + children

    def median(name, reports):
        return statistics.median(r[name] for r in reports)

    metrics = {"setup_s": median("setup_s", setups), "cpu_s": median("cpu_s", children),
               "peak_rss_mb": median("peak_rss_mb", children)}
    raw = {"setup_raw_s": median("setup_raw_s", setups),
           **{name: median(name, children) for name in ("wall_s", "cpu_raw_s", "pace")}}
    return children, {name: (value, UNITS[name]) for name, value in metrics.items()}, \
        {name: (value, RAW[name]) for name, value in raw.items()}


def traced_run(workload, seed, tiny=False):
    """Stage times from an untraced child; counts and self times from a traced one."""
    plain = run_child(workload, seed, tiny=tiny)
    traced = run_child(workload, seed, "--trace", tiny=tiny)
    metrics = {name: (seconds, "s") for name, seconds in plain["stages"].items()}
    metrics.update((name, tuple(pair)) for name, pair in traced["layers"].items())
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return [plain, traced], metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "gradelab" / "__init__.py").is_file():
        print(f"perfbench: no gradelab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            children, metrics, raw = traced_run(args.workload, args.seed, args.tiny)
        else:
            children, metrics, raw = timed_run(args.workload, args.seed, args.seconds, args.tiny)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"{args.workload} seed {args.seed}: {len(children)} children")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  {name} = {value:.6g} {unit} (not a metric)")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
