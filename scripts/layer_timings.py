#!/usr/bin/env python3
"""Median wall time of each layer of one flow step, per grid size.

At each size the input is the seed-7 ``flow.initial_data`` field
(spectral, epsilon 0.05, kmax 2), and each layer is called on what the
step hands it: Theta, d2 of Theta, its rho-twisted star, d1 of that, the
whole rhs, the implicit solve on a 2-form (shift 1 / DT_ACCURACY), the
energy, the monitors and the cohomology class.  The monitors no longer
include the class: a run computes it only for the rows it writes, so it
is timed on its own row.  Three layers of the set-up and the checks close
the table: a ``random_trig_field`` closure drawn as ``initial_data``
draws one (kmax 2, four components), evaluated on the grid, the CG
solve ``least_norm_potential`` of the rhs at the input, as the Donaldson
pairing of the gradient check calls it, and that whole pairing
(``donaldson_pairing`` of the rhs with itself: one CG solve, one flat
potential and the pairing integral).  The last row, ``metric_factors``,
is the metric layer of the appendix A checks and does not depend on n:
building an ``exterior.Metric`` of 4,096 ``random_spd`` matrices (seed
7), which factors them by one ``exterior.lu4`` elimination (inverse and
determinant) and checks the determinant, as a check slice builds its
metric.  After one warm-up call a layer
is repeated for about a second (5 to 200 times); the CSV holds the
median in ms, the repetition count and the minor page faults per call
(the ``ru_minflt`` of ``resource.getrusage`` over the repetitions,
divided by their count).  The faults of a row depend on the rows
measured before it in the same process, not only on its layer: each call
starts from the heap the earlier rows left (``least_norm_potential`` at
n = 8 reads 0 per call run alone, 104 to 160 after the
``random_trig_field`` row).  BLAS and OpenMP are pinned to one thread.

    python3 scripts/layer_timings.py --sizes 8 16 24
"""

import os

# before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
from donflow.checks import random_spd


def _layers(g, rho, field):
    """The layers of a step, then the trig field closure ``field``, the
    CG potential solve, the Donaldson pairing and the metric factors, as
    zero-argument calls on their own inputs."""
    spd = random_spd(np.random.Generator(np.random.Philox(7)), (4096,))
    b = ext.Base(rho)
    theta = ext.theta_point(b)
    dtheta = lat.d2(g, theta)
    star = ext.star_rho3(dtheta, b)
    e = flow.energy(g, b)
    velocity = flow.rhs(g, b)
    coh0 = lat.cohomology(g, rho)
    return {
        "theta_point": lambda: ext.theta_point(b),
        "d2": lambda: lat.d2(g, theta),
        "star_rho3": lambda: ext.star_rho3(dtheta, b),
        "d1": lambda: lat.d1(g, star),
        "rhs": lambda: flow.rhs(g, b),
        "resolvent": lambda: lat.resolvent(g, velocity,
                                           1 / flow.DT_ACCURACY),
        "energy": lambda: flow.energy(g, b),
        "monitors": lambda: flow.monitors(g, b, e, velocity, coh0, 0.0),
        "cohomology": lambda: lat.cohomology(g, rho),
        "random_trig_field": lambda: field(g),
        "least_norm_potential": lambda: lat.least_norm_potential(g, velocity,
                                                                 b),
        "donaldson_pairing": lambda: flow.donaldson_pairing(g, velocity,
                                                            velocity, b),
        "metric_factors": lambda: ext.Metric(spd),
    }


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(call):
    """Median ms per call, the repetition count and minor faults per call."""
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    reps = min(200, max(5, math.ceil(1.0 / max(first, 1e-9))))
    times = []
    faults = _minflt()
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    faults = _minflt() - faults
    return float(np.median(times)) * 1e3, reps, faults / reps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 24])
    ap.add_argument("--out", type=Path, default=Path("layer_timings.csv"))
    args = ap.parse_args(argv)

    rows = []
    for n in args.sizes:
        g = lat.Grid(n)
        rng = np.random.Generator(np.random.Philox(7))
        rho = flow.initial_data(g, rng)
        field = lat.random_trig_field(rng, 2, ncomp=4)
        for layer, call in _layers(g, rho, field).items():
            ms, reps, faults = _measure(call)
            rows.append({"n": n, "layer": layer, "median_ms": f"{ms:.4g}",
                         "reps": reps, "minflt_per_call": f"{faults:.4g}"})
            print(f"n={n:<3d} {layer:<20s} {ms:9.4g} ms  ({reps} reps, "
                  f"{faults:.4g} minor faults per call)")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
