"""One benchmark run of one workload: set-up, timed calls, gate, metrics.

Untraced (``trace=False``): the set-up is repeated ``SETUP_REPS`` times and
the workload as often as fits in ``seconds`` (at least once); the medians
are reported.  Traced: the workload runs once untraced, then the tracer is
installed and set-up and workload run again under it; the difference of
the two times is the tracing overhead, and the two digests must agree.

Times are reported in calibrated seconds: each set-up and each public call
of a workload is scaled by the machine-speed calibrations taken right
before and right after it (see ``calibration``).  The raw times and the
calibrations are kept in the report.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

import donflow
from calibration import Calibrator, calibrated
from tracer import Tracer

SETUP_REPS = 3
# a run that has not finished by then is stopped and counted as failed, so
# the process still reports within the 180 s a benchmark run may take
DEADLINE_S = 165.0


class Deadline(BaseException):
    """The workload outlived the run's time budget.  Not an Exception, so
    the per-call handler lets it through to end the run."""


def _on_alarm(signum, frame):
    raise Deadline(f"still running after the {DEADLINE_S:g} s budget")


def import_seconds(src):
    """Time to import the package in a fresh interpreter (what every
    ``donflow`` command pays before it starts)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import donflow.checks, donflow.flow; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpu.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(idx / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "threads": {var: val for var, val in sorted(os.environ.items())
                    if var.endswith("_THREADS")},
        "platform": platform.platform(),
    }


def _timed_calls(wl, seed, inputs, out_dir, calibrate, cals):
    """Run the workload's calls, calibrating after each one.  Returns raw
    and calibrated seconds and the outcome, or None when a call raised."""
    out_dir.mkdir(parents=True)
    calls = wl.calls(seed, inputs, out_dir)
    raw = scaled = 0.0
    outcome = None
    while True:
        t0 = time.perf_counter()
        try:
            next(calls)
        except StopIteration as stop:
            outcome = stop.value
        except Exception:   # a failed call is a failed operation, not a crash
            traceback.print_exc()
        dt = time.perf_counter() - t0
        cals.append(calibrate())
        raw += dt
        scaled += calibrated(dt, cals[-2], cals[-1])
        if calls.gi_frame is None:     # finished or raised
            return raw, scaled, outcome


def measure(wl, seed, seconds, trace, root, results_dir):
    """Run ``wl`` once under the benchmark's rules; returns the report."""
    src = root / "src"
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=results_dir))
    report = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    ops, input_digests, digests, metrics = [], set(), [], {}
    setup_raw, setup_cal, walls, walls_cal, cals = [], [], [], [], []

    def record(label, timed):
        wall, scaled, outcome = timed
        walls.append(wall)
        walls_cal.append(scaled)
        if outcome is None:
            ops.append(("call", False))
            digests.append(None)
            return
        gate, digest = wl.check(seed, outcome, work / label)
        ops.extend(gate)
        digests.append(digest)

    def run(label, inputs):
        record(label, _timed_calls(wl, seed, inputs, work / label,
                                   calibrate, cals))

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with Calibrator() as calibrate:
            cals.append(calibrate())
            for _ in range(1 if trace else SETUP_REPS):
                imp = import_seconds(src)
                t0 = time.perf_counter()
                inputs = wl.setup(seed)
                setup_raw.append(imp + time.perf_counter() - t0)
                cals.append(calibrate())
                setup_cal.append(calibrated(setup_raw[-1], cals[-2], cals[-1]))
                input_digests.add(wl.input_digest(inputs))

            if not trace:
                # repeat while one more repetition of average length, with
                # its calibrations, still fits in the budget
                start, spent = time.perf_counter(), 0.0
                while not walls or spent / len(walls) * (len(walls) + 1) <= seconds:
                    run(f"rep{len(walls)}", inputs)
                    spent = time.perf_counter() - start
                metrics = {
                    "wall_s": (statistics.median(walls_cal), "s"),
                    "setup_s": (statistics.median(setup_cal), "s"),
                    "peak_rss_mb": (resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                }
            else:
                run("untraced", inputs)
                tracer = Tracer()
                tracer.install(donflow)
                try:
                    inputs = wl.setup(seed)
                    cals.append(calibrate())
                    t0 = time.perf_counter_ns()
                    timed = _timed_calls(wl, seed, inputs, work / "traced",
                                         calibrate, cals)
                    t1 = time.perf_counter_ns()
                finally:
                    tracer.uninstall()
                input_digests.add(wl.input_digest(inputs))
                record("traced", timed)
                metrics = tracer.layer_metrics()
                # calibrations make no traced calls, so the top-level spans in
                # [t0, t1] are exactly those of the workload's calls
                metrics.update({
                    "trace.wall_s": (walls[1], "s"),
                    "trace.untraced_wall_s": (walls[0], "s"),
                    "trace.overhead_s": (walls_cal[1] - walls_cal[0], "s"),
                    "trace.glue_s": (walls[1] - tracer.root_ns(t0, t1) / 1e9, "s"),
                    "trace.spans": (len(tracer.names), "count"),
                })
                report["missing_spans"] = tracer.missing
                report["trace_window_ns"] = [t0, t1]
                tracer.dump(results_dir / f"{wl.name}-seed{seed}.spans.json.gz")
            ops.append(("setup_deterministic", len(input_digests) == 1))
            if len(digests) > 1:
                ops.append(("deterministic", None not in digests
                            and len(set(digests)) == 1))
    except Deadline:
        traceback.print_exc()
        ops.append(("deadline", False))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        shutil.rmtree(work, ignore_errors=True)

    failed = [name for name, ok in ops if not ok]
    report.update({
        "walls_s": walls,
        "walls_calibrated_s": walls_cal,
        "setup_reps_s": setup_raw,
        "calibrations_s": cals,
        "digests": digests,
        "input_digests": sorted(input_digests),
        "failed_ops": failed,
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    })
    return report
