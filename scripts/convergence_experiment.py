#!/usr/bin/env python3
"""Sweep seeds and perturbation amplitudes and record how the flow relaxes.

For each seed and epsilon the flow is integrated to stationarity and one
summary row is written: steps, final time, final energy excess, residual
and sup distance to the flat form.  Output is plot-ready CSV.  The last
line counts the stationary rows and gives their step range; the exit code
is 1 when any row ends other than stationary, so the sweep is a gate.

    python3 scripts/convergence_experiment.py --n 8 --epsilons 0.02 0.05 0.1
    python3 scripts/convergence_experiment.py --seeds $(seq 1 43) --epsilons 0.05
"""

import argparse
import csv
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
from donflow.config import RunConfig


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--scheme", default="spectral")
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.02, 0.05, 0.1])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--out", type=Path, default=Path("convergence_sweep.csv"))
    args = ap.parse_args(argv)

    rows = []
    for seed in args.seeds:
        for eps in args.epsilons:
            with tempfile.TemporaryDirectory() as tmp:
                cfg = RunConfig(n=args.n, scheme=args.scheme, T=100.0,
                                tol_stationary=args.tol, seed=seed,
                                epsilon=eps, out_every=50, out_dir=tmp)
                t0 = time.monotonic()
                res = flow.run(cfg)
                wall = time.monotonic() - t0
            g = lat.Grid(args.n, args.scheme)
            dist = float(np.abs(res.state.rho - g.constant(ext.OMEGA1)).max())
            rows.append({
                "seed": seed,
                "epsilon": eps,
                "reason": res.reason,
                "steps": res.steps,
                "t_final": res.state.t,
                "energy_excess": res.state.excess,
                "residual_l2": res.state.monitors["residual_l2"],
                "sup_distance": dist,
                "wall_seconds": wall,
            })
            print(f"seed={seed:<4d} eps={eps:<6g} {res.reason:<10s} "
                  f"steps={res.steps:<6d} t={res.state.t:.3f} "
                  f"dist={dist:.2e} wall={wall:.1f}s")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    stationary = [row["steps"] for row in rows if row["reason"] == "stationary"]
    steps = (f", steps {min(stationary)}-{max(stationary)}" if stationary
             else "")
    print(f"{len(stationary)}/{len(rows)} stationary{steps}")
    return 0 if len(stationary) == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
