"""One measured process: set up gradelab, run one workload, print one JSON line.

    python3 perfbench/child.py --workload contract --seed 7 [--pace | --trace]

`--pace` times the host's pace (see `pace.py`) from the start of this
process and reports CPU times at the reference pace: `setup_s` covers
interpreter start, `import gradelab` and building the four catalog
gradings; `cpu_s` the workload.  `--setup-only` stops after set-up.
`--tiny` runs the smoke-test size of the workload.
"""
from __future__ import annotations

import argparse
import json
import resource
import time

from pace import Pace

START = (0.0, 0, 0.0, 0.0)  # process CPU time counts from the start of the process


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pace", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    pace = Pace()
    if args.pace:
        pace.start()
    try:
        out = measure(args, pace)
    finally:
        pace.stop()
    print(json.dumps(out))


def measure(args, pace) -> dict:
    import workloads
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ledger = workloads.Ledger()
    with ledger.stage("gradings.catalog_s"):
        workloads.setup()
    out = {}
    if args.pace:
        out["setup_s"], out["setup_raw_s"], _ = pace.phase(START)
    if not args.setup_only:
        since = pace.mark()
        t0 = time.perf_counter()
        workloads.run(args.workload, args.seed, ledger, args.tiny)
        out["wall_s"] = pace.wall_since(t0, since)
        if args.pace:
            out["cpu_s"], out["cpu_raw_s"], out["pace"] = pace.phase(since)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] = ledger.attempted
        out["failed"] = ledger.failed
        out["stages"] = {name: ledger.stages.get(name, 0.0) for name in workloads.STAGES}
        if tracer:
            out["layers"] = tracing.layer_metrics(tracer)
    return out


if __name__ == "__main__":
    main()
