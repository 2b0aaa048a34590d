"""Machine-speed calibration.

On a shared host the speed of a core drifts by up to a factor of two within
minutes, and no repetition inside a run averages that out.  So the harness
times a fixed reference kernel before the first timed interval and after
every one, and scales each interval by ``CAL_REF_S`` over the mean of the
calibrations on either side: the time it would have taken at the reference
speed.

The kernel resembles the program's work at n=16 (per-axis FFTs of a
16^4 x 6 field, a 4x4 matrix-vector einsum and 4x4 determinants over large
batches, elementwise arithmetic) but shares no code with it, so no change
to the program can move it.  Against the same mix on 8^4-sized arrays it
tracked the host's speed better on all three workloads, small-array
relax_n8 included.  It runs in a worker process pinned to the caller's
CPU: same core, so it sees the same contention, and its arrays stay out of
the workload process's peak memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# time of one calibration at the reference speed: the fastest state seen
# on the 2-vCPU Intel Xeon host the benchmark was defined on
CAL_REF_S = 0.25
CAL_ITERS = 15


def kernel_seconds(field, mats, vecs):
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        np.fft.ifft(np.fft.fft(field, axis=i % 4), axis=i % 4).real
        np.einsum("...ij,...j->...i", mats, vecs)
        (field * 1.5 + field ** 2).sum()
        np.linalg.det(mats[:20000])
    return time.perf_counter() - t0


def serve():
    """Worker loop: one calibration per line read from stdin."""
    rng = np.random.default_rng(0)
    data = (rng.normal(size=(16, 16, 16, 16, 6)), rng.normal(size=(65536, 4, 4)),
            rng.normal(size=(65536, 4)))
    kernel_seconds(*data)      # warm-up: the first run in a process is slow
    for _ in sys.stdin:
        print(kernel_seconds(*data), flush=True)


def calibrated(seconds, before, after):
    """``seconds`` measured between calibrations ``before`` and ``after``,
    in seconds at the reference speed."""
    return seconds * CAL_REF_S / (0.5 * (before + after))


class Calibrator:
    """Context manager; calling it returns the kernel's time now.

    Entering pins this process to one CPU (the worker inherits the pin);
    leaving stops the worker, waits for it and restores the affinity.
    """

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        return self

    def __call__(self):
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration worker exited")
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        os.sched_setaffinity(0, self._affinity)


if __name__ == "__main__":
    serve()
