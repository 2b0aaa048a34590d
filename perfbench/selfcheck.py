#!/usr/bin/env python3
"""Self-check of the benchmark at reduced sizes (about a minute and a half).

    python3 perfbench/selfcheck.py

Runs every workload of ``workloads.REDUCED`` untraced and traced, in this
process, and checks that

* the result carries exactly the metrics of ``BENCHMARK.json`` with their
  units: the end-to-end ones untraced, the per-layer ones traced;
* the gate passes and two runs give the same digests;
* every span fires on exactly the workloads ``FIRES_ON`` names, so a
  wrapper that silently never fires is caught, and so is a layer that
  starts to run where it should not;
* spans nest, no self time is negative, and self times plus untraced glue
  add up to the traced wall time;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Lists every problem found and exits non-zero if there was one.
"""

import gzip
import json
import shutil
import subprocess
import sys

from run import RESULTS, ROOT, prepare

FLOW = {"relax_n8", "march_n16"}
VERIFY = {"verify_all"}
ALL = FLOW | VERIFY

# Where each span must fire (and nowhere else) on the code as it stands.
# star_rho1/star_rho2/theta_dot_point serve the Donaldson metric and the
# Hessian, which only the check suites use; the suites also call flow.rhs
# and flow.energy (gradient and cross-formula checks).
FIRES_ON = {
    "flow.step": FLOW, "flow.rhs": ALL, "flow.energy": ALL,
    "flow.monitors": FLOW, "flow.initial_data": FLOW,
    "lattice.d1": ALL, "lattice.d2": ALL, "lattice.cohomology": FLOW,
    "lattice.least_norm_potential": VERIFY, "lattice.random_trig_field": ALL,
    "exterior.theta_point": ALL, "exterior.star_rho3": ALL,
    "exterior.g_rho": ALL, "exterior.u_of": ALL, "exterior.sd_split": ALL,
    "exterior.norm2_sq": ALL, "exterior.star_rho1": VERIFY,
    "exterior.star_rho2": VERIFY, "exterior.theta_dot_point": VERIFY,
    "snapshots.save_snapshot": FLOW,
    "lattice.fft.transforms": ALL,
    **{f"hyperkahler.{fn}": VERIFY for fn in (
        "energy_hk", "theta_hk", "grad_hk", "hessian_hk", "hessiancov_check")},
    **{f"checks.suite_{name}": VERIFY for name in (
        "appendixA", "theta", "hyperkahler", "gradient", "hessiancov")},
}


def check_metrics(result, spec, problems):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if got[k] != want[k])
        problems.append(f"metrics: missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")


def check_trace(name, report, problems):
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    for span, where in FIRES_ON.items():
        calls = metrics.get(span if span.endswith("transforms") else span + ".calls", 0)
        if (calls > 0) != (name in where):
            problems.append(f"{span}: {calls} calls, expected "
                            f"{'some' if name in where else 'none'}")
    if report["missing_spans"]:
        problems.append(f"functions not found: {report['missing_spans']}")
    if name in FLOW:
        rejected = metrics["flow.rejected_steps"]
        if rejected != int(rejected) or rejected < 0:
            problems.append(f"rejected_steps {rejected} is not a count")
        if not 4.0 < metrics["flow.rhs_per_step"] < 6.0:
            problems.append(f"rhs_per_step {metrics['flow.rhs_per_step']}")

    # accounting over the spans of the traced call
    with gzip.open(RESULTS / f"{name}-seed{report['seed']}.spans.json.gz", "rt") as fh:
        rows = json.load(fh)["spans"]
    t0, t1 = report["trace_window_ns"]
    own = [e - s for _, s, e, _ in rows]
    for i, (_, s, e, p) in enumerate(rows):
        if p >= 0:
            own[p] -= e - s
            if not rows[p][1] <= s <= e <= rows[p][2]:
                problems.append(f"span {i} is not inside its parent {p}")
                break
    window = [i for i, (_, s, e, _) in enumerate(rows) if t0 <= s and e <= t1]
    if min(own, default=0) < 0:
        problems.append("negative self time")
    glue = metrics["trace.glue_s"]
    total = sum(own[i] for i in window) / 1e9 + glue
    if glue < 0 or abs(total - metrics["trace.wall_s"]) > 1e-6:
        problems.append(f"self times {total - glue:.6f} s + glue {glue:.6f} s "
                        f"!= traced wall {metrics['trace.wall_s']:.6f} s")


def check_bare_directory(problems):
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("bare directory: the benchmark did not fail")


def main():
    prepare()
    from harness import measure
    from workloads import REDUCED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, wl in REDUCED.items():
        for trace in (False, True):
            problems = []
            report = measure(wl, 3, 0.0, trace, ROOT, RESULTS)
            result = report["result"]
            if not result["correct"]:
                problems.append(f"failed operations: {report['failed_ops']}")
            if trace:
                check_metrics(result, spec["per_layer"], problems)
                if not problems:
                    check_trace(name, report, problems)
            else:
                check_metrics(result, spec["end_to_end"], problems)
            status = "ok" if not problems else "FAIL"
            print(f"{name} trace={int(trace)}: {status} "
                  f"({result['attempted']} operations)")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    problems = []
    check_bare_directory(problems)
    print(f"bare directory: {'ok' if not problems else 'FAIL'}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
