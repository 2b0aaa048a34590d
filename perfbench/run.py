#!/usr/bin/env python3
"""donflow benchmark: one workload in one process.

    python3 perfbench/run.py --workload relax_n8 --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of standard output is the result,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  The full report (environment, per-repetition times,
digests, failed operations) goes to ``.perfbench_out/results/``.  See
``perfbench/README.md``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_out" / "results"
WORKLOAD_NAMES = ("relax_n8", "march_n16", "verify_all")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare():
    """Pin BLAS/OpenMP to one thread and put the checkout's ``src`` first
    on the path; both must happen before numpy or donflow is imported.
    Exits with status 2 when the checkout holds no program."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import donflow
    except ImportError as err:
        sys.exit(f"perfbench: cannot import donflow from {src}: {err}")
    if not Path(donflow.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: donflow was imported from {donflow.__file__}, "
                 f"not from {src}")


def last_overhead(name):
    """Tracing overhead of the latest traced run of ``name`` in this
    checkout, if there was one."""
    overheads = []
    for path in RESULTS.glob(f"{name}-seed*-trace1.json"):
        metrics = json.loads(path.read_text())["result"]["metrics"]
        if "trace.overhead_s" in metrics:
            overheads.append((path.stat().st_mtime,
                              metrics["trace.overhead_s"]["value"]))
    return max(overheads)[1] if overheads else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the repeated main call")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    from harness import measure
    from workloads import WORKLOADS

    RESULTS.mkdir(parents=True, exist_ok=True)
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), ROOT, RESULTS)
    overhead = (report["result"]["metrics"].get("trace.overhead_s", {}).get("value")
                if args.trace else last_overhead(args.workload))
    report["environment"]["tracing_overhead_s"] = overhead
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"environment": report["environment"],
                      "failed_ops": report["failed_ops"],
                      "walls_s": report["walls_s"],
                      "digests": report["digests"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
